"""The per-block codec against the array one, and the cached type objects.

`ff_encode`, `fv_encode` and the decoders code one block through cached
joint types, memoized marginals and one count per block; the array codec
groups whole batches.  Both must give the same words and the same letters.
"""

import functools
import itertools
import sys

import numpy as np
import pytest

from compdeliv import coding_table, types_core
from compdeliv.bitio import BitReader
from compdeliv.coding_table import (
    SideInfoMismatchError,
    TableBudgetError,
    decode_side,
    encode_pair,
    get_coding_table,
    slot_book,
)
from compdeliv.ff_codec import (
    FFCodeConfig,
    FFCodeword,
    bit_width,
    ff_decode_batch,
    ff_decode_x,
    ff_decode_y,
    ff_encode,
    ff_encode_batch,
    make_code,
)
from compdeliv.fv_codec import (
    FVCodeword,
    MalformedCodewordError,
    fv_decode_batch,
    fv_decode_x,
    fv_decode_x_stream,
    fv_decode_y,
    fv_decode_y_stream,
    fv_encode,
    fv_encode_batch,
    make_fv_code,
)
from compdeliv.types_core import (
    _RANK_MAP_LIMIT,
    BINARY,
    Alphabet,
    JointType,
    Sequence,
    TypeVector,
    enumerate_joint_types,
    joint_type_count,
    joint_type_index,
    joint_type_of,
    joint_types_at,
    multinomial,
    rank_in_type_class,
    type_of,
)
from conftest import joint_type_groups, seq


def _pairs(seed, m, n, kx, ky):
    """m seeded (x, y) block pairs, y mostly following x, as arrays."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, kx, size=(m, n))
    y = np.where(rng.random((m, n)) < 0.7, x % ky, rng.integers(0, ky, size=(m, n)))
    return x, y


def _sequences(letters, alphabet):
    return [Sequence(tuple(row), alphabet) for row in letters.tolist()]


def _reader(cw):
    """A reader over the bits of one FV codeword."""
    pad = -cw.length % 8
    return BitReader((cw.value << pad).to_bytes((cw.length + pad) // 8, "big"), cw.length)


# (n, kx, ky, FF rate): 3x2 letters at n=5 and 4x4 at n=4, each with
# flagged and unflagged FF blocks.
SHAPES = [(5, 3, 2, 0.8), (4, 4, 4, 0.8)]


@pytest.mark.parametrize("n, kx, ky, rate", SHAPES)
def test_ff_scalar_matches_batch(n, kx, ky, rate):
    cfg = FFCodeConfig(n, rate, Alphabet(kx), Alphabet(ky))
    x, y = _pairs(n * kx * ky, 200, n, kx, ky)
    flags, type_index, symbols = ff_encode_batch(cfg, x, y)
    assert flags.any() and not flags.all()
    decoded_x = ff_decode_batch(cfg, (flags, type_index, symbols), y, "x")
    decoded_y = ff_decode_batch(cfg, (flags, type_index, symbols), x, "y")
    xs, ys = _sequences(x, cfg.ax), _sequences(y, cfg.ay)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        cw = ff_encode(cfg, xi, yi)
        assert (cw.error_flag, cw.type_index, cw.symbol) == (flags[i], type_index[i], symbols[i])
        assert ff_decode_x(cfg, cw, yi).letters == tuple(decoded_x[i].tolist())
        assert ff_decode_y(cfg, cw, xi).letters == tuple(decoded_y[i].tolist())
        if not cw.error_flag:
            assert (decoded_x[i] == x[i]).all() and (decoded_y[i] == y[i]).all()


@pytest.mark.parametrize("n, kx, ky, rate", SHAPES)
def test_fv_scalar_matches_batch(n, kx, ky, rate):
    code = make_fv_code(n, Alphabet(kx), Alphabet(ky))
    x, y = _pairs(n * kx * ky + 1, 200, n, kx, ky)
    type_index, symbols = fv_encode_batch(code, x, y)
    assert (fv_decode_batch(code, (type_index, symbols), y, "x") == x).all()
    assert (fv_decode_batch(code, (type_index, symbols), x, "y") == y).all()
    for i, (xi, yi) in enumerate(zip(_sequences(x, code.ax), _sequences(y, code.ay))):
        cw = fv_encode(n, xi, yi)
        width = bit_width(code.type_at(int(type_index[i])).num_symbols)
        assert (cw.value, cw.length) == (int(type_index[i]) << width | int(symbols[i]), code.header_width + width)
        # The decoders take the reproduced alphabet when it differs from
        # the side information's.
        assert fv_decode_x_stream(n, _reader(cw), yi, code.ax) == xi
        assert fv_decode_y_stream(n, _reader(cw), xi, code.ay) == yi
        assert fv_decode_x(cw, yi, code.ax) == xi
        assert fv_decode_y(cw, xi, code.ay) == yi


def test_300_letter_blocks_match_the_array_path():
    # No FF code enumerates the joint types of 300 x 300 letters at n=3
    # (they exceed MAX_JOINT_TYPE_COUNTS), and their type index needs 47
    # bits, more than an FV header may take; so the steps of the encoders
    # and the decoders past the code are compared, with each type unranked
    # by `joint_types_at`: the joint type, the table symbol and both
    # reproductions.
    k, n = 300, 3
    ax = Alphabet(k)
    x, y = _pairs(300, 12, n, k, k)
    type_index = joint_type_index(x, y, k, k)

    book = slot_book(n, ax, ax)
    assert book.type_count == joint_type_count(n, k, k) > 2 ** 40
    symbols = book.encode(x, y, type_index)
    types = joint_types_at(type_index, n, k, k)
    rows = np.arange(len(x))
    out_x = book.decode(None, type_index, symbols, y, "x", rows, MalformedCodewordError)
    out_y = book.decode(None, type_index, symbols, x, "y", rows, MalformedCodewordError)
    assert (out_x == x).all() and (out_y == y).all()
    for i, (xi, yi) in enumerate(zip(_sequences(x, ax), _sequences(y, ax))):
        jt = joint_type_of(xi, yi)
        assert jt is types[i] and jt.index == type_index[i]
        symbol = encode_pair(jt, xi, yi)
        assert symbol == symbols[i]
        assert decode_side(jt, yi, symbol, "x") == xi and decode_side(jt, xi, symbol, "y") == yi


def test_class_above_the_rank_map_limit():
    # x = y of type (10, 9): a one-symbol table over a class of 92,378
    # members, ranked and unranked by searching the class.
    jt = JointType(((10, 0), (0, 9)), 19)
    assert multinomial(jt.x_marginal().counts) > _RANK_MAP_LIMIT
    cfg = FFCodeConfig(19, 1.0)
    rng = np.random.default_rng(19)
    x = np.array([rng.permutation([0] * 10 + [1] * 9) for _ in range(20)])
    words = ff_encode_batch(cfg, x, x)
    decoded = ff_decode_batch(cfg, words, x, "x")
    assert (decoded == x).all()
    for i, xi in enumerate(_sequences(x, cfg.ax)):
        cw = ff_encode(cfg, xi, xi)
        assert (cw.error_flag, cw.type_index, cw.symbol) == (False, words[1][i], 0)
        assert ff_decode_x(cfg, cw, xi) == xi and ff_decode_y(cfg, cw, xi) == xi
    with pytest.raises(SideInfoMismatchError):
        ff_decode_x(cfg, cw, seq([1] * 10 + [0] * 9))  # type (9, 10)


@pytest.mark.parametrize("side", ["x", "y"])
def test_side_information_of_another_type_is_refused(side):
    x, y = seq("001122", 3), seq("010101")
    cfg = FFCodeConfig(6, 2.0, Alphabet(3), Alphabet(2))
    ff_cw = ff_encode(cfg, x, y)
    assert not ff_cw.error_flag
    wrong = seq("000011") if side == "x" else seq("001102", 3)
    with pytest.raises(SideInfoMismatchError):
        (ff_decode_x if side == "x" else ff_decode_y)(cfg, ff_cw, wrong)
    x = seq("001101")
    with pytest.raises(SideInfoMismatchError):
        (fv_decode_x if side == "x" else fv_decode_y)(fv_encode(6, x, y), seq("000011"))
    jt = joint_type_of(x, y)
    held = Sequence((y if side == "x" else x).letters, Alphabet(3))  # the right letters, over 3
    with pytest.raises(SideInfoMismatchError):
        decode_side(jt, held, encode_pair(jt, x, y), side)


@pytest.mark.parametrize("flagged", [False, True])
@pytest.mark.parametrize("side", ["x", "y"])
def test_side_information_over_another_alphabet_is_refused_flagged_or_not(side, flagged):
    # A 2x2 code: side information over 3 letters is refused before the
    # flag is read, as the batch decoder refuses its letter 2.
    cfg = FFCodeConfig(4, 0.01 if flagged else 2.0)
    x, y = seq("0011"), seq("0101")
    cw = ff_encode(cfg, x, y)
    assert cw.error_flag == flagged
    decode = ff_decode_x if side == "x" else ff_decode_y
    for held in (Sequence((0, 2, 1, 0), Alphabet(3)), Sequence((y if side == "x" else x).letters, Alphabet(3))):
        with pytest.raises(SideInfoMismatchError, match="side information type does not match codeword"):
            decode(cfg, cw, held)
    words = tuple(np.array([field]) for field in (cw.error_flag, cw.type_index, cw.symbol))
    with pytest.raises(ValueError, match="letter outside the alphabet of size 2"):
        ff_decode_batch(cfg, words, np.array([[0, 2, 1, 0]]), side)
    want = seq("0000") if flagged else x if side == "x" else y
    assert decode(cfg, cw, y if side == "x" else x) == want


@pytest.mark.parametrize("kx, ky", [(2, 2), (3, 2), (256, 256)])
def test_cached_types_equal_and_hash_like_fresh_objects(kx, ky):
    rng = np.random.default_rng(kx + ky)
    for _ in range(20):
        x = Sequence(tuple(rng.integers(0, kx, 6).tolist()), Alphabet(kx))
        y = Sequence(tuple(rng.integers(0, ky, 6).tolist()), Alphabet(ky))
        counts = [[0] * ky for _ in range(kx)]
        for a, b in zip(x.letters, y.letters):
            counts[a][b] += 1
        fresh = JointType(tuple(map(tuple, counts)), 6)
        jt = joint_type_of(x, y)
        assert jt == fresh and hash(jt) == hash(fresh)
        assert joint_type_of(x, y) is jt  # cached
        x_counts = tuple(map(sum, counts))
        y_counts = tuple(sum(row[b] for row in counts) for b in range(ky))
        for got, want in ((jt.x_marginal(), x_counts), (jt.y_marginal(), y_counts),
                          (fresh.x_marginal(), x_counts), (type_of(x), tuple(map(x.letters.count, range(kx))))):
            assert got == TypeVector(want, 6) and hash(got) == hash(TypeVector(want, 6))


# The four encoders, each coding the rows of two binary (m, n) letter
# arrays; FF at a rate whose region holds every joint type.
ENCODERS = {
    "ff_encode": lambda x, y: [
        ff_encode(FFCodeConfig(x.shape[1], 2.0), xi, yi) for xi, yi in zip(_sequences(x, BINARY), _sequences(y, BINARY))
    ],
    "fv_encode": lambda x, y: [
        fv_encode(x.shape[1], xi, yi) for xi, yi in zip(_sequences(x, BINARY), _sequences(y, BINARY))
    ],
    "ff_encode_batch": lambda x, y: ff_encode_batch(FFCodeConfig(x.shape[1], 2.0), x, y),
    "fv_encode_batch": lambda x, y: fv_encode_batch(make_fv_code(x.shape[1]), x, y),
}


@pytest.mark.parametrize("encoder", ENCODERS)
def test_encoders_check_the_table_budget_before_ranking(encoder):
    # Both classes of (16, 16) have C(32, 16) > MAX_CLASS_SIZE members, so
    # ranking before the table's budget check raises ClassSizeError.
    x = np.array([[0] * 16 + [1] * 16])
    y = np.array([[0, 1] * 16])
    with pytest.raises(TableBudgetError):
        ENCODERS[encoder](x, y)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_no_encoder_builds_a_one_symbol_table(encoder, monkeypatch):
    # x = y is a joint type of one symbol: every pair codes as symbol 0.
    x = np.random.default_rng(8).integers(0, 2, size=(50, 8))
    get_coding_table.cache_clear()
    calls = {"edge_color": 0}
    _counted(monkeypatch, calls, "edge_color", coding_table.edge_color)
    ENCODERS[encoder](x, x)
    assert calls["edge_color"] == 0
    balanced = np.array([[0] * 16 + [1] * 16])  # a class too large to build
    ENCODERS[encoder](balanced, balanced)
    assert calls["edge_color"] == 0
    symbols = slot_book(8, BINARY, BINARY).encode(x, x, joint_type_index(x, x, 2, 2))
    assert not symbols.any()
    assert calls["edge_color"] == 0


@pytest.mark.parametrize("rows", [0, 3])
def test_batch_decoders_refuse_an_unknown_side_with_nothing_to_decode(rows):
    # Every FF row flagged, or no FV row at all: no table is read, and the
    # side is still checked.
    x, y = np.tile([0, 0, 1, 1], (rows, 1)), np.tile([0, 1, 0, 1], (rows, 1))
    cfg = FFCodeConfig(4, 0.01)
    words = ff_encode_batch(cfg, x, y)
    assert words[0].all()
    with pytest.raises(ValueError, match="side must be 'x' or 'y', not 'z'"):
        ff_decode_batch(cfg, words, y, "z")
    code = make_fv_code(4)
    with pytest.raises(ValueError, match="side must be 'x' or 'y', not 'z'"):
        fv_decode_batch(code, fv_encode_batch(code, x[:0], x[:0]), x[:0], "z")


def test_joint_types_are_interned():
    # 286 binary n=10 joint types: more than the bounded cache in front of
    # the interning.  Every path returns the enumerated object.
    types = enumerate_joint_types(10, BINARY, BINARY)
    assert len(types) == 286
    rows = []
    for jt in types:
        (a, b), (c, d) = jt.counts
        rows.append(([0] * (a + b) + [1] * (c + d), [0] * a + [1] * b + [0] * c + [1] * d))
    for (x, y), jt in zip(rows, types):
        assert joint_type_of(seq(x), seq(y)) is jt
    x, y = (np.array(side) for side in zip(*rows))
    groups = joint_type_groups(x, y, 2, 2)
    assert len(groups) == len(types) and all(got is jt for (got, _), jt in zip(groups, types))


def test_no_decoder_builds_a_one_symbol_table(monkeypatch):
    # x = y and y = 1 - x: types of one symbol, decoded through their
    # letter map on both paths.
    x = np.random.default_rng(9).integers(0, 2, size=(50, 8))
    cfg, code = FFCodeConfig(8, 1.0), make_fv_code(8)
    get_coding_table.cache_clear()
    calls = {"edge_color": 0}
    _counted(monkeypatch, calls, "edge_color", coding_table.edge_color)
    for y in (x, 1 - x):
        ff_words, fv_words = ff_encode_batch(cfg, x, y), fv_encode_batch(code, x, y)
        for side, held, want in (("x", y, x), ("y", x, y)):
            assert (ff_decode_batch(cfg, ff_words, held, side) == want).all()
            assert (fv_decode_batch(code, fv_words, held, side) == want).all()
        for xi, yi in zip(_sequences(x[:5], BINARY), _sequences(y[:5], BINARY)):
            ff_cw, fv_cw = ff_encode(cfg, xi, yi), fv_encode(8, xi, yi)
            assert ff_decode_x(cfg, ff_cw, yi) == xi and ff_decode_y(cfg, ff_cw, xi) == yi
            assert fv_decode_x(fv_cw, yi) == xi and fv_decode_y(fv_cw, xi) == yi
    assert calls["edge_color"] == 0


# Failures planted in a decoded batch, each in its own held class: side
# information of another type, a symbol >= the type's symbol count, a
# hole (a free slot of the held row or column, which fits the field), a
# type index out of range, and a row with both a side and a symbol fault.
PLANTED = ("side", "symbol", "hole", "index", "side+symbol")


def _plant(kinds, type_at, count, words, held, side, seed):
    """Copies of (type index, symbol, side information) with `kinds`
    planted at seeded rows of distinct held classes."""
    type_index, symbols, held = words[-2].copy(), words[-1].copy(), held.copy()
    order = np.random.default_rng(seed).permutation(len(held))
    used = set()
    for kind in kinds:
        for i in order:
            counts = tuple(np.bincount(held[i], minlength=2))
            if counts in used or len(words) == 3 and words[0][i]:
                continue  # a flagged FF row is not decoded
            delta = type_at(type_index[i]).num_symbols
            if delta == 1 or delta & (delta - 1) == 0:
                continue  # a symbol count that is a power of two leaves no field value >= it
            t = get_coding_table(type_at(type_index[i]))
            rank = rank_in_type_class(Sequence(tuple(held[i].tolist()), BINARY))
            slots = (t.row_of if side == "x" else t.col_of)[rank * delta:(rank + 1) * delta]
            holes = [s for s, other in enumerate(slots) if other < 0]
            if kind == "hole" and not holes:
                continue
            if "side" in kind:
                held[i, 0] ^= 1
            if "symbol" in kind:
                symbols[i] = delta
            if kind == "hole":
                symbols[i] = holes[0]
            if kind == "index":
                type_index[i] = count
            used.update({counts, tuple(np.bincount(held[i], minlength=2))})
            break
        else:
            raise AssertionError(f"no row to plant {kind}")
    return type_index, symbols, held


def _first_scalar_failure(decode_one, count):
    for i in range(count):
        try:
            decode_one(i)
        except ValueError as exc:
            return type(exc), i
    return None


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("mode", ["ff", "fv"])
def test_batch_decoders_fail_at_the_first_row_the_scalar_ones_fail(mode, side):
    x, y = _pairs(8, 300, 8, 2, 2)
    cfg, code = FFCodeConfig(8, 0.9), make_fv_code(8)
    if mode == "ff":
        ff = make_code(cfg)
        words, type_at, count = ff_encode_batch(cfg, x, y), ff.region.__getitem__, len(ff.region_types)
    else:
        words, type_at, count = fv_encode_batch(code, x, y), code.type_at, code.type_count
    held = y if side == "x" else x
    subsets = [kinds for r in range(1, 4) for kinds in itertools.combinations(PLANTED, r)] + [PLANTED]
    for seed, kinds in enumerate(subsets):
        type_index, symbols, held_i = _plant(kinds, type_at, count, words, held, side, seed)
        held_seqs = _sequences(held_i, BINARY)
        if mode == "ff":
            planted = (words[0], type_index, symbols)

            def decode_one(i):
                if not words[0][i]:
                    cw = FFCodeword(int(type_index[i]), int(symbols[i]), False)
                    (ff_decode_x if side == "x" else ff_decode_y)(cfg, cw, held_seqs[i])

            def decode_batch():
                ff_decode_batch(cfg, planted, held_i, side)
        else:
            def decode_one(i):
                width = bit_width(type_at(int(type_index[i])).num_symbols) if type_index[i] < count else 0
                cw = FVCodeword(int(type_index[i]) << width | int(symbols[i]), code.header_width + width)
                (fv_decode_x if side == "x" else fv_decode_y)(cw, held_seqs[i])

            def decode_batch():
                fv_decode_batch(code, (type_index, symbols), held_i, side)
        kind, row = _first_scalar_failure(decode_one, len(held_i))
        with pytest.raises(kind) as caught:
            decode_batch()
        assert (type(caught.value), caught.value.row) == (kind, row), kinds


def _sparse_pairs(seed, m, n):
    """m seeded binary (x, y) block pairs, x of one to three ones and y x
    with up to two letters flipped: few, small tables at any n."""
    rng = np.random.default_rng(seed)
    x = np.zeros((m, n), np.uint8)
    for row in x:
        row[rng.choice(n, rng.integers(1, 4), replace=False)] = 1
    y = x.copy()
    for row in y:
        row[rng.choice(n, rng.integers(0, 3), replace=False)] ^= 1
    return x, y


@pytest.mark.parametrize("mode", ["ff", "fv"])
def test_batches_rank_once_per_marginal_class(mode, monkeypatch):
    # A batch ranks each side with one call of its slot book's class
    # ranker: within the code table's limit (binary n=10) one table gather
    # and no class search; past it (binary n=17) one search per marginal
    # class, however many joint types share the class.
    ranked, searched = [], []
    rank, search = types_core._Classes.rank, types_core._search_ranks

    def counted_rank(*args):
        ranked.append(len(args[1]))
        return rank(*args)

    def counted_search(letters, counts):
        searched.append(counts)
        return search(letters, counts)

    monkeypatch.setattr(types_core._Classes, "rank", counted_rank)
    for name, module in list(sys.modules.items()):
        if name.startswith("compdeliv") and getattr(module, "_search_ranks", None) is search:
            monkeypatch.setattr(module, "_search_ranks", counted_search)
    for n, (x, y) in ((10, _pairs(10, 2000, 10, 2, 2)), (17, _sparse_pairs(17, 300, 17))):
        within = types_core.code_table(n, 2) is not None
        assert within == (n == 10)
        tabled = [jt for jt, _ in joint_type_groups(x, y, 2, 2) if jt.num_symbols > 1]
        x_classes = {jt.x_marginal() for jt in tabled}
        y_classes = {jt.y_marginal() for jt in tabled}
        assert len(tabled) > (2 if within else 1) * (len(x_classes) + len(y_classes))
        cfg, code = FFCodeConfig(n, 1.0), make_fv_code(n)
        encode, decode = (
            (lambda: ff_encode_batch(cfg, x, y), lambda w, held, side: ff_decode_batch(cfg, w, held, side))
            if mode == "ff" else
            (lambda: fv_encode_batch(code, x, y), lambda w, held, side: fv_decode_batch(code, w, held, side))
        )
        ranked.clear()
        searched.clear()
        words = encode()
        assert len(ranked) == 2  # x, then y
        assert searched == [] if within else 0 < len(searched) <= len(x_classes) + len(y_classes)
        for side, held, classes in (("x", y, y_classes), ("y", x, x_classes)):
            ranked.clear()
            searched.clear()
            assert (decode(words, held, side) == (x if side == "x" else y)).all()
            assert len(ranked) == 1
            assert searched == [] if within else 0 < len(searched) == len(set(searched)) <= len(classes)


@pytest.mark.parametrize("mode", ["ff", "fv"])
def test_code_table_and_class_search_code_alike(mode, monkeypatch):
    # Seeded n=8 batches through the code table and, with its limit below
    # 2^8 codes, through the class search (tables built again): the same
    # symbols, the same decodes and the same first failing row and error
    # for each planted fault.
    x, y = _pairs(18, 300, 8, 2, 2)

    def code_and_refuse():
        cfg, code = FFCodeConfig(8, 0.9), make_fv_code(8)
        if mode == "ff":
            ff = make_code(cfg)
            words, type_at, count = ff_encode_batch(cfg, x, y), ff.region.__getitem__, len(ff.region_types)

            def decode(type_index, symbols, held, side):
                return ff_decode_batch(cfg, (words[0], type_index, symbols), held, side)
        else:
            words, type_at, count = fv_encode_batch(code, x, y), code.type_at, code.type_count

            def decode(type_index, symbols, held, side):
                return fv_decode_batch(code, (type_index, symbols), held, side)
        out = [part.tolist() for part in words]
        for side, held in (("x", y), ("y", x)):
            out.append(decode(words[-2], words[-1], held, side).tolist())
            for seed, kind in enumerate(("side", "symbol", "hole", "index")):
                with pytest.raises(ValueError) as caught:
                    decode(*_plant((kind,), type_at, count, words, held, side, seed), side)
                out.append((kind, type(caught.value), caught.value.row, str(caught.value)))
        return out

    with_table = code_and_refuse()
    monkeypatch.setattr(types_core, "_CODE_TABLE_LIMIT", 2 ** 8 - 1)
    for cache in (types_core.code_table, coding_table.get_coding_table):
        cache.cache_clear()
    try:
        assert types_core.code_table(8, 2) is None
        assert code_and_refuse() == with_table
    finally:
        monkeypatch.undo()
        for cache in (types_core.code_table, coding_table.get_coding_table):
            cache.cache_clear()


def _counted(monkeypatch, calls, name, real, when=lambda *args: True):
    """Count calls to `real` through every compdeliv module that imports it
    as `name`: the calls whose arguments `when` accepts."""

    def counted(*args, **kwargs):
        calls[name] += when(*args)
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("compdeliv") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)


def _count_alphabets(monkeypatch, calls):
    """Count every `Alphabet(...)` call, interned or not, as calls["Alphabet"]."""
    new = Alphabet.__new__

    def counted_new(cls, size):
        calls["Alphabet"] += 1
        return new(cls, size)

    monkeypatch.setattr(Alphabet, "__new__", counted_new)


def _count_sequences_and_eq(monkeypatch, calls):
    """Count built `Sequence`s as calls["Sequence"], and as calls["__eq__"]
    the calls to the `__eq__` of every compdeliv class that defines one."""
    post_init = Sequence.__post_init__

    def counted_post_init(self):
        calls["Sequence"] += 1
        post_init(self)

    monkeypatch.setattr(Sequence, "__post_init__", counted_post_init)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("compdeliv"):
            continue
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module_name and "__eq__" in vars(cls):
                monkeypatch.setattr(cls, "__eq__", functools.partialmethod(_counted_eq, calls, vars(cls)["__eq__"]))


def _counted_eq(self, calls, eq, other):
    calls["__eq__"] += 1
    return eq(self, other)


@pytest.mark.parametrize("n, kx, ky, rate", [(8, 2, 2, 0.8), *SHAPES])
def test_warm_scalar_calls_rederive_nothing(n, kx, ky, rate, monkeypatch):
    # Once each block has been coded, coding the same blocks again derives
    # no per-type state: no class sizes, no held/reproduced sides, no new
    # alphabets.  Flagged FF blocks and types of one symbol (x = y rows)
    # are among them.
    cfg, ax, ay = FFCodeConfig(n, rate, Alphabet(kx), Alphabet(ky)), Alphabet(kx), Alphabet(ky)
    x, y = _pairs(n + kx, 300, n, kx, ky)
    pairs = list(zip(_sequences(x, ax), _sequences(y, ay)))

    def code_every_block():
        for xi, yi in pairs:
            ff_cw, fv_cw = ff_encode(cfg, xi, yi), fv_encode(n, xi, yi)
            assert ff_cw.error_flag or (ff_decode_x(cfg, ff_cw, yi), ff_decode_y(cfg, ff_cw, xi)) == (xi, yi)
            assert (fv_decode_x(fv_cw, yi, ax), fv_decode_y(fv_cw, xi, ay)) == (xi, yi)

    code_every_block()
    flags = [ff_encode(cfg, xi, yi).error_flag for xi, yi in pairs]
    assert any(flags) and not all(flags)
    assert any(joint_type_of(xi, yi).num_symbols == 1 for xi, yi in pairs)
    calls = dict.fromkeys(("multinomial", "held_and_decoded", "Alphabet"), 0)
    _counted(monkeypatch, calls, "multinomial", types_core.multinomial)
    # Held and reproduced marginals; picking one of the code's two alphabets derives nothing.
    per_type = lambda side, x, y: not isinstance(x, Alphabet)  # noqa: E731
    _counted(monkeypatch, calls, "held_and_decoded", coding_table.held_and_decoded, per_type)
    _count_alphabets(monkeypatch, calls)
    Alphabet(2)
    assert calls["Alphabet"] == 1  # the counter sees every construction
    calls["Alphabet"] = 0
    for _ in range(3):
        code_every_block()
    assert calls == dict.fromkeys(calls, 0)
    coding_table._side_coders.cache_clear()  # the filtered count is live: cold coders derive the sides
    code_every_block()
    assert calls["held_and_decoded"] > 0


@pytest.mark.parametrize("n, kx, ky, rate", [(8, 2, 2, 0.8), *SHAPES])
def test_warm_scalar_decodes_build_nothing(n, kx, ky, rate, monkeypatch):
    # A warm decode returns its class's shared member: it builds no Sequence
    # and no Alphabet and calls no dataclass __eq__, however the config and
    # alphabets reach it (equal objects made anew are the interned ones).
    # Flagged FF words and types of one symbol are among the blocks.
    x, y = _pairs(n * kx + ky, 300, n, kx, ky)
    pairs = list(zip(_sequences(x, Alphabet(kx)), _sequences(y, Alphabet(ky))))
    cfg = FFCodeConfig(n, rate, Alphabet(kx), Alphabet(ky))
    words = [(ff_encode(cfg, xi, yi), fv_encode(n, xi, yi)) for xi, yi in pairs]
    assert any(ff.error_flag for ff, _ in words) and not all(ff.error_flag for ff, _ in words)
    assert any(joint_type_of(xi, yi).num_symbols == 1 for xi, yi in pairs)
    cfg, ax, ay = FFCodeConfig(n, rate, Alphabet(kx), Alphabet(ky)), Alphabet(kx), Alphabet(ky)

    def decode_every_block():
        return [
            (ff_decode_x(cfg, ff, yi), ff_decode_y(cfg, ff, xi), fv_decode_x(fv, yi, ax), fv_decode_y(fv, xi, ay))
            for (xi, yi), (ff, fv) in zip(pairs, words)
        ]

    first = decode_every_block()
    calls = dict.fromkeys(("Sequence", "Alphabet", "__eq__"), 0)
    with monkeypatch.context() as patched:
        _count_alphabets(patched, calls)
        _count_sequences_and_eq(patched, calls)
        assert Sequence((0,), BINARY) == Sequence((0,), BINARY) and Alphabet(2) is BINARY
        assert calls == {"Sequence": 2, "Alphabet": 1, "__eq__": 1}  # the counters see each call
        calls.update(dict.fromkeys(calls, 0))
        again = decode_every_block()
        assert calls == dict.fromkeys(calls, 0)
    for (xi, yi), (ff, _), got, repeat in zip(pairs, words, first, again):
        assert all(a is b for a, b in zip(got, repeat))
        assert got[2:] == (xi, yi) and (ff.error_flag or got[:2] == (xi, yi))


def test_a_cold_pass_builds_each_class_member_once(monkeypatch):
    # Every binary n=8 joint type, each block decoded on both sides twice
    # from cold caches: the decoded blocks are the 2^8 members of the n=8
    # classes, each built once, not once per block or per joint type.
    n, types = 8, enumerate_joint_types(8, BINARY, BINARY)
    blocks = []
    for jt in types:
        (a, b), (c, d) = jt.counts
        blocks.append((seq([0] * (a + b) + [1] * (c + d)), seq([0] * a + [1] * b + [0] * c + [1] * d)))
    cfg = FFCodeConfig(n, 0.8)
    _clear_every_cache()
    calls = dict.fromkeys(("Sequence", "__eq__"), 0)
    _count_sequences_and_eq(monkeypatch, calls)
    for x, y in blocks * 2:
        ff_cw, fv_cw = ff_encode(cfg, x, y), fv_encode(n, x, y)
        assert (fv_decode_x(fv_cw, y), fv_decode_y(fv_cw, x)) == (x, y)
        if not ff_cw.error_flag:
            assert (ff_decode_x(cfg, ff_cw, y), ff_decode_y(cfg, ff_cw, x)) == (x, y)
    assert 0 < calls["Sequence"] <= 2 ** n < 4 * len(types)


def _clear_every_cache():
    """Clear every cache_clear-able callable of every compdeliv module."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("compdeliv"):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_clearing_every_cache_rebuilds_the_shared_sequences(monkeypatch):
    # Every memo of the scalar decoders is clearable, so a "cold caches"
    # set-up that clears them all leaves a decode that builds its shared
    # sequences again, and equal ones.
    x, y = seq("00101101"), seq("00111101")
    cw = fv_encode(8, x, y)
    warm = fv_decode_x(cw, y)
    assert fv_decode_x(cw, y) is warm
    _clear_every_cache()
    calls = dict.fromkeys(("Sequence", "__eq__"), 0)
    _count_sequences_and_eq(monkeypatch, calls)
    cold = fv_decode_x(cw, y)
    assert calls["Sequence"] > 0 and types_core._lex_maps.cache_info().currsize > 0
    assert cold is not warm and (cold.letters, cold.alphabet) == (warm.letters, warm.alphabet) == (x.letters, BINARY)
    assert fv_decode_x(cw, y) is cold


def test_classes_without_rank_maps_code_the_same(monkeypatch):
    # Above _RANK_MAP_LIMIT members a class has no maps and is searched:
    # with the limit at 0 every class is, and the scalar codec gives the
    # same words, the same blocks and the same refusals.
    n, kx, ky = 5, 3, 2
    cfg, ax, ay = FFCodeConfig(n, 2.0, Alphabet(kx), Alphabet(ky)), Alphabet(kx), Alphabet(ky)
    x, y = _pairs(50, 100, n, kx, ky)
    pairs = list(zip(_sequences(x, ax), _sequences(y, ay)))
    wrong = Sequence((0, 0, 0, 0, 0), ay)

    def code_every_block():
        out = []
        for xi, yi in pairs:
            ff_cw, fv_cw = ff_encode(cfg, xi, yi), fv_encode(n, xi, yi)
            out.append((ff_cw, fv_cw, ff_decode_x(cfg, ff_cw, yi), ff_decode_y(cfg, ff_cw, xi),
                        fv_decode_x(fv_cw, yi, ax), fv_decode_y(fv_cw, xi, ay)))
            if yi.letters.count(0) != n:
                with pytest.raises(SideInfoMismatchError):
                    ff_decode_x(cfg, ff_cw, wrong)
        return out

    with_maps = code_every_block()
    assert [row[2:4] for row in with_maps] == pairs and [row[4:] for row in with_maps] == pairs
    monkeypatch.setattr(types_core, "_RANK_MAP_LIMIT", 0)
    for cache in (types_core._lex_maps, coding_table._side_coders):
        cache.cache_clear()
    try:
        assert types_core._lex_maps((1, 1)) is None
        assert code_every_block() == with_maps
    finally:
        monkeypatch.undo()
        for cache in (types_core._lex_maps, coding_table._side_coders):
            cache.cache_clear()
