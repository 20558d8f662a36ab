"""The slot book: every table a batch has met, read by the batch codecs
with gathers.  Batches that fill it a few types at a time code as one
fresh batch does, and a warm batch does no per-type Python work."""

import gc
import itertools
import sys
import weakref

import numpy as np
import pytest

from compdeliv import coding_table, types_core
from compdeliv.coding_table import (
    PairTypeMismatchError,
    SideInfoMismatchError,
    SymbolNotFoundError,
    build_graph,
    edge_color,
    get_coding_table,
    num_symbols_of,
    slot_book,
)
from compdeliv.ff_codec import CodewordRangeError, FFCodeConfig, ff_decode_batch, ff_encode_batch, make_code
from compdeliv.fv_codec import FVCode, MalformedCodewordError, fv_decode_batch, fv_encode_batch, make_fv_code
from compdeliv.types_core import (
    _class_letters,
    BINARY,
    JointType,
    enumerate_joint_types,
    joint_type_index,
    joint_types_at,
    type_class_size,
)


def _pairs(n, m, seed):
    """m seeded binary block pairs.  At n=8, four slices with y = x and
    each letter flipped with probability 0.02, 0.1, 0.25 and 0.5 in turn,
    so each slice meets joint types the ones before it did not; at larger
    n, x of one to three ones and y = x with up to two letters flipped,
    whose tables are small."""
    rng = np.random.default_rng(seed)
    if n == 8:
        x = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        flip = np.repeat([0.02, 0.1, 0.25, 0.5], m // 4)[:, None]
        return x, x ^ (rng.random((m, n)) < flip).astype(np.uint8)
    x = np.zeros((m, n), np.uint8)
    for row in x:
        row[rng.choice(n, rng.integers(1, 4), replace=False)] = 1
    y = x.copy()
    for row in y:
        row[rng.choice(n, rng.integers(0, 3), replace=False)] ^= 1
    return x, y


def _codec(mode, n):
    """(encode, decode) of the FF code of rate 0.9, or the FV code, at block length n."""
    if mode == "ff":
        cfg = FFCodeConfig(n, 0.9)
        return (lambda x, y: ff_encode_batch(cfg, x, y)), (lambda w, held, side: ff_decode_batch(cfg, w, held, side))
    code = make_fv_code(n)
    return (lambda x, y: fv_encode_batch(code, x, y)), (lambda w, held, side: fv_decode_batch(code, w, held, side))


def _fresh_book(n):
    slot_book.cache_clear()
    return slot_book(n, BINARY, BINARY)


def _outcome(call, offset=0):
    """The decoded rows `call` returns, or the class, row (plus `offset`) and message it raises."""
    try:
        return call()
    except (SideInfoMismatchError, SymbolNotFoundError) as exc:
        return type(exc), exc.row + offset, str(exc)


@pytest.mark.parametrize("mode", ["ff", "fv"])
def test_batches_that_meet_new_types_code_as_one_fresh_batch(mode):
    n, m = 8, 400
    x, y = _pairs(n, m, 3)
    encode, decode = _codec(mode, n)
    slices = np.array_split(np.arange(m), 4)
    _fresh_book(n)
    whole = encode(x, y)
    unflagged = np.flatnonzero(~whole[0]) if mode == "ff" else np.arange(m)

    # Encoding slice by slice into an empty book: each slice enters types.
    book, parts, met = _fresh_book(n), [], []
    for at in slices:
        parts.append(encode(x[at], y[at]))
        met.append(len(book._met))
    assert 0 < met[0] < met[1] < met[2] < met[3] == len(book._delta)
    assert [np.concatenate(part).tolist() for part in zip(*parts)] == [part.tolist() for part in whole]

    # Decoding each side slice by slice into an empty book, the book first
    # filled by the decoder: the same rows, and the same first failure
    # once a symbol past its type's (row 230) and side information of
    # another type (row 260) are planted in the third slice.
    for side, held in (("x", y), ("y", x)):
        bad_symbol, bad_side = unflagged[unflagged >= 230][0], unflagged[unflagged >= 260][0]
        symbols, faulty = whole[-1].copy(), held.copy()
        symbols[bad_symbol] = 1 << 20
        faulty[bad_side, 0] ^= 1
        for words, info in ((whole, held), ((*whole[:-1], symbols), faulty)):
            _fresh_book(n)
            expected = _outcome(lambda: decode(words, info, side))
            book, got, met = _fresh_book(n), [], []
            for at in slices:
                part = _outcome(lambda: decode(tuple(w[at] for w in words), info[at], side), at[0])
                got.append(part)
                met.append(len(book._met))
                if isinstance(part, tuple):
                    break
            if isinstance(expected, tuple):
                assert got[-1] == expected == (SymbolNotFoundError, bad_symbol, expected[2])
                assert len(got) == 3
            else:
                assert (np.concatenate(got) == expected).all()
                assert (expected[unflagged] == (x if side == "x" else y)[unflagged]).all()
                assert 0 < met[0] < met[1] < met[2] < met[3]


def test_cache_clear_empties_the_book():
    x, y = _pairs(8, 100, 4)
    ff_encode_batch(FFCodeConfig(8, 0.9), x, y)
    book = slot_book(8, BINARY, BINARY)
    assert book._met and len(book._slots[0]) > 0 and len(book._delta) == len(book._met)
    slot_book.cache_clear()
    fresh = slot_book(8, BINARY, BINARY)
    assert fresh is not book and not fresh._met and list(map(len, fresh._slots)) == [0, 0] and len(fresh._delta) == 0


# What a batch once did per joint type; a warm batch calls none of them.
PER_TYPE = ("edge_color", "num_symbols_of", "ids_of", "type_at")


def _count_calls(monkeypatch, calls):
    """Count every call of the `PER_TYPE` functions, through every compdeliv
    module that binds them, and of `FVCode.type_at` and `_Classes.ids_of`."""
    monkeypatch.setattr(FVCode, "type_at", _counted(calls, "type_at", FVCode.type_at))
    monkeypatch.setattr(types_core._Classes, "ids_of", _counted(calls, "ids_of", types_core._Classes.ids_of))
    for name, real in (("edge_color", coding_table.edge_color), ("num_symbols_of", coding_table.num_symbols_of)):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("compdeliv") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, _counted(calls, name, real))


def _counted(calls, name, real):
    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return counted


@pytest.mark.parametrize("n", [8, 17])  # within the code table's limit, and past it
@pytest.mark.parametrize("mode", ["ff", "fv"])
def test_a_warm_batch_does_no_per_type_work(mode, n, monkeypatch):
    x, y = _pairs(n, 300, 5)
    encode, decode = _codec(mode, n)
    _fresh_book(n)
    words = encode(x, y)
    cold = [decode(words, y, "x"), decode(words, x, "y")]
    calls = dict.fromkeys(PER_TYPE, 0)
    _count_calls(monkeypatch, calls)
    again = encode(x, y)
    warm = [decode(again, y, "x"), decode(again, x, "y")]
    assert calls == dict.fromkeys(PER_TYPE, 0)
    assert [part.tolist() for part in again] == [part.tolist() for part in words]
    assert all((a == b).all() for a, b in zip(warm, cold))
    # The count is live: a batch into an empty book makes these calls.
    _fresh_book(n)
    encode(x, y)
    assert calls["edge_color"] > 0 and calls["num_symbols_of"] > 0 and calls["ids_of"] > 0


def _every_type(n):
    """One binary block pair of each joint type at n, in enumeration order."""
    rows = []
    for jt in enumerate_joint_types(n, BINARY, BINARY):
        (a, b), (c, d) = jt.counts
        rows.append(([0] * (a + b) + [1] * (c + d), [0] * a + [1] * b + [0] * c + [1] * d))
    return tuple(np.array(side, np.uint8) for side in zip(*rows))


def _fill_with_every_type(n):
    """A fresh book that FV batches coding every joint type at n, decoded on both sides, filled."""
    book, code, (x, y) = _fresh_book(n), make_fv_code(n), _every_type(n)
    half = len(x) // 2
    for rows in (slice(0, half), slice(half, None)):
        words = fv_encode_batch(code, x[rows], y[rows])
        assert (fv_decode_batch(code, words, y[rows], "x") == x[rows]).all()
        assert (fv_decode_batch(code, words, x[rows], "y") == y[rows]).all()
    return book


def test_the_book_holds_each_table_once():
    book, types = _fill_with_every_type(8), enumerate_joint_types(8, BINARY, BINARY)
    tabled = [jt for jt in types if num_symbols_of(jt) > 1]
    assert len(book._met) == len(types) and 0 < len(tabled) < len(types)
    # Slots in closed form: each tabled entry's classes times its symbol count, nothing more.
    for side, marginal in ((0, "x_marginal"), (1, "y_marginal")):
        slots = sum(type_class_size(getattr(jt, marginal)()) * num_symbols_of(jt) for jt in tabled)
        assert len(book._slots[side]) == slots
    # A table read through get_coding_table is a window on the book's own
    # buffers, holding the slots a fresh build gives.
    get_coding_table.cache_clear()
    for jt in tabled:
        t = get_coding_table(jt)
        assert t.col_slots is book._slots[0] and t.row_slots is book._slots[1]
        fresh = edge_color(build_graph(jt))
        assert (t.col_of, t.row_of, t.num_symbols) == (fresh.col_of, fresh.row_of, fresh.num_symbols)


def test_a_window_built_by_its_own_call_enters_the_book_once(monkeypatch):
    jt, calls = enumerate_joint_types(8, BINARY, BINARY)[40], []
    assert num_symbols_of(jt) > 1
    real = coding_table.build_graph
    monkeypatch.setattr(coding_table, "build_graph", lambda t: calls.append(t) or real(t))
    book = _fresh_book(8)
    t = get_coding_table(jt)
    assert calls == [jt] and list(book._met) == [jt.index] and t.col_slots is book._slots[0]
    assert len(book._slots[0]) == len(t.col_of) and len(book._slots[1]) == len(t.row_of)


def _window_buffers(n):
    """Weak references to the buffers of a filled book that windows read."""
    book = _fill_with_every_type(n)
    tabled = [jt for jt in enumerate_joint_types(n, BINARY, BINARY) if num_symbols_of(jt) > 1]
    assert all(get_coding_table(jt).col_slots is book._slots[0] for jt in tabled)
    return [weakref.ref(buf) for buf in book._slots]


def test_clearing_the_books_drops_the_windows_on_them():
    refs = _window_buffers(6)
    slot_book.cache_clear()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    jt = next(jt for jt in enumerate_joint_types(6, BINARY, BINARY) if num_symbols_of(jt) > 1)
    assert get_coding_table(jt).row_slots is slot_book(6, BINARY, BINARY)._slots[1]


def test_a_batch_that_raised_leaves_the_book_free_to_grow():
    # The exception of a failed decode stays alive, with its traceback's
    # frames, while the next batch enters new types into the same buffers.
    x, y = _pairs(8, 400, 3)
    code, book = make_fv_code(8), _fresh_book(8)
    words = fv_encode_batch(code, x[:100], y[:100])
    symbols = words[1].copy()
    symbols[7] = 1 << 20
    with pytest.raises(SymbolNotFoundError) as caught:
        fv_decode_batch(code, (words[0], symbols), y[:100], "x")
    met, size = len(book._met), len(book._slots[0])
    words = fv_encode_batch(code, x[300:], y[300:])
    assert len(book._met) > met and len(book._slots[0]) > size
    assert (fv_decode_batch(code, words, y[300:], "x") == x[300:]).all()
    assert caught.value.row == 7


def test_an_encode_that_raised_leaves_the_book_free_to_grow():
    # Row 7 is x = y = 00001111 given the index of counts ((3, 1), (1, 3)),
    # a type of the same marginals: no cell of its table, and the book
    # still takes new types while the exception lives.
    book = _fresh_book(8)
    x, y = _pairs(8, 400, 3)
    x[7] = y[7] = [0] * 4 + [1] * 4
    index = joint_type_index(x[:100], y[:100], 2, 2)
    index[7] = JointType(((3, 1), (1, 3)), 8).index
    with pytest.raises(PairTypeMismatchError) as caught:
        book.encode(x[:100], y[:100], index)
    met, size = len(book._met), len(book._slots[0])
    words = fv_encode_batch(make_fv_code(8), x[300:], y[300:])
    assert len(book._met) > met and len(book._slots[0]) > size
    assert (fv_decode_batch(make_fv_code(8), words, y[300:], "x") == x[300:]).all()
    assert caught.value.row == 7


# Binary n=4 types whose held side (y decoding x, x decoding y) has
# vertices of degree 2 below their 3 symbols: a hole at each of them.
HOLE_TYPES = {"x": ((2, 1), (0, 1)), "y": ((2, 0), (1, 1))}


def _hole(side):
    """(joint type, held block, symbol) of a hole met when decoding `side`:
    a symbol below the type's symbol count absent at the held block's vertex."""
    jt = JointType(HOLE_TYPES[side], 4)
    t = get_coding_table(jt)
    slots, held = (t.row_of, jt.y_marginal()) if side == "x" else (t.col_of, jt.x_marginal())
    vertex, symbol = divmod(slots.index(-1), t.num_symbols)
    return jt, _class_letters(held.counts)[vertex], symbol


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("mode", ["ff", "fv"])
def test_a_batch_decode_reports_its_lowest_failing_row(mode, side):
    # Four failures on distinct rows, in every order: a type field out of
    # range, side information of another type, a symbol past its type's
    # count and a hole.  The error raised is the lowest row's.
    rng = np.random.default_rng(21)
    x, y = rng.integers(0, 2, (12, 4), np.uint8), rng.integers(0, 2, (12, 4), np.uint8)
    hole_type, hole_block, hole_symbol = _hole(side)
    if mode == "ff":
        cfg = FFCodeConfig(4, 1.0)
        flags, *fields = ff_encode_batch(cfg, x, y)
        assert not flags.any()
        code = make_code(cfg)
        count, hole_field, range_error = len(code.region), code.region_of[hole_type.index], CodewordRangeError
        decode = lambda words, held: ff_decode_batch(cfg, (flags, *words), held, side)  # noqa: E731
    else:
        code = make_fv_code(4)
        fields = fv_encode_batch(code, x, y)
        count, hole_field, range_error = code.type_count, hole_type.index, MalformedCodewordError
        decode = lambda words, held: fv_decode_batch(code, words, held, side)  # noqa: E731
    assert hole_field >= 0 and hole_symbol < num_symbols_of(hole_type)
    raised = {"range": range_error, "side": SideInfoMismatchError, "symbol": SymbolNotFoundError,
              "hole": SymbolNotFoundError}
    types = joint_types_at(joint_type_index(x, y, 2, 2), 4, 2, 2)
    for order in itertools.permutations(raised):
        rows = np.sort(rng.choice(len(x), 4, replace=False))
        type_field, symbols, held = fields[0].copy(), fields[1].copy(), (y if side == "x" else x).copy()
        for row, failure in zip(rows, order):
            if failure == "range":
                type_field[row] = count
            elif failure == "side":
                held[row, 0] ^= 1
            elif failure == "symbol":
                symbols[row] = num_symbols_of(types[row])
            else:
                type_field[row], symbols[row], held[row] = hole_field, hole_symbol, hole_block
        with pytest.raises(raised[order[0]]) as caught:
            decode((type_field, symbols), held)
        assert type(caught.value) is raised[order[0]] and caught.value.row == rows[0]
