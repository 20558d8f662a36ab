"""Shared helpers for the test suite."""

import itertools

import numpy as np

from compdeliv.simulator import _sample_cells
from compdeliv.types_core import Alphabet, BINARY, Sequence, joint_type_index, joint_types_at


def seq(letters, k=2):
    """A sequence over k letters: seq('0011') or seq([0, 0, 1, 1])."""
    return Sequence(tuple(int(c) for c in letters), Alphabet(k))


def sample_pair(p, n, seed):
    """One (x, y) pair of letter tuples from the cell sampler `run_plan` draws with."""
    cells = _sample_cells(p, n, 1, np.random.Generator(np.random.PCG64(seed)))[0]
    return tuple((cells // p.num_y).tolist()), tuple((cells % p.num_y).tolist())


def bit_text(cw):
    """The '0'/'1' text of a variable-length codeword."""
    return format(cw.value, f"0{len(cw)}b") if len(cw) else ""


def all_binary_sequences(n):
    """All 2^n binary sequences of length n."""
    return [Sequence(bits, BINARY) for bits in itertools.product((0, 1), repeat=n)]


def all_binary_pairs(n):
    """All 4^n (x, y) pairs of binary sequences of length n."""
    seqs = all_binary_sequences(n)
    return [(x, y) for x in seqs for y in seqs]


def assert_proper_coloring(table):
    """Every edge carries one symbol in range, no symbol repeats within a
    row or a column, both inverse lookups return the edge, and every other
    (row or column, symbol) slot is a hole."""
    from compdeliv.coding_table import SymbolNotFoundError

    g = table.graph
    k = table.num_symbols
    row_syms, col_syms = set(), set()
    for i, j in g.edges:
        c = table.symbol_at(i, j)
        assert type(c) is int and 0 <= c < k
        assert (i, c) not in row_syms, f"symbol {c} repeats in row {i}"
        assert (j, c) not in col_syms, f"symbol {c} repeats in column {j}"
        row_syms.add((i, c))
        col_syms.add((j, c))
        assert table.row_for(j, c) == i and table.col_for(i, c) == j
    assert len(row_syms) == len(g.edges)
    for size, used, lookup in ((g.left_size, row_syms, table.col_for),
                               (g.right_size, col_syms, table.row_for)):
        for v in range(size):
            for c in range(k):
                if (v, c) in used:
                    continue
                try:
                    lookup(v, c)
                except SymbolNotFoundError:
                    continue
                raise AssertionError(f"slot ({v}, {c}) marked outside the edges")


# Block lengths and alphabets whose joint types exceed MAX_JOINT_TYPE_COUNTS
# but whose FV type index fits its header: (n, letters per side, blocks).
PAST_ENUMERATION = [(8, 4, 6), (12, 3, 4)]


def correlated_blocks(seed, m, n, k):
    """m seeded (x, y) block pairs over k x k letters, y mostly equal to x."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, k, size=(m, n), dtype=np.uint8)
    y = np.where(rng.random((m, n)) < 0.9, x, rng.integers(0, k, size=(m, n), dtype=np.uint8))
    return x, y


def joint_type_groups(x, y, kx, ky):
    """Row pairs (x[i], y[i]) grouped by joint type, in type index order: a
    reference the batch codecs, which read the type index itself, are checked against."""
    index = joint_type_index(x, y, kx, ky)
    order = np.argsort(index, kind="stable")
    values, starts = np.unique(index[order], return_index=True)
    groups = np.split(order, starts[1:])
    return list(zip(joint_types_at(values, np.shape(x)[1], kx, ky), groups))
