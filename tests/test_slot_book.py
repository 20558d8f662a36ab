"""The slot book: every table a batch has met, read by the batch codecs
with gathers.  Batches that fill it a few types at a time code as one
fresh batch does, and a warm batch does no per-type Python work."""

import sys

import numpy as np
import pytest

from compdeliv import coding_table, types_core
from compdeliv.coding_table import SideInfoMismatchError, SymbolNotFoundError, slot_book
from compdeliv.ff_codec import FFCodeConfig, ff_decode_batch, ff_encode_batch
from compdeliv.fv_codec import FVCode, fv_decode_batch, fv_encode_batch, make_fv_code
from compdeliv.types_core import BINARY


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
        met.append(len(book.met))
    assert 0 < met[0] < met[1] < met[2] < met[3] == len(book.delta)
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
                met.append(len(book.met))
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
    assert book.met and book.used[0] > 0 and len(book.delta) == len(book.met)
    slot_book.cache_clear()
    fresh = slot_book(8, BINARY, BINARY)
    assert fresh is not book and not fresh.met and fresh.used == [0, 0] and len(fresh.delta) == 0


# What a batch once did per joint type; a warm batch calls none of them.
PER_TYPE = ("get_coding_table", "num_symbols_of", "class_key", "type_at")


def _count_calls(monkeypatch, calls):
    """Count every call of the `PER_TYPE` functions, through every compdeliv
    module that binds them and through `FVCode.type_at`."""
    monkeypatch.setattr(FVCode, "type_at", _counted(calls, "type_at", FVCode.type_at))
    for name, real in (("get_coding_table", coding_table.get_coding_table),
                       ("num_symbols_of", coding_table.num_symbols_of), ("class_key", types_core.class_key)):
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
    assert calls["get_coding_table"] > 0 and calls["num_symbols_of"] > 0 and calls["class_key"] > 0
