"""Per-joint-type coding tables via bipartite edge coloring.

Rows index the x-type class, columns the y-type class, and the marked
cells are exactly the pairs sharing the joint type.  The marked cells are
filled with max-degree many symbols so that no symbol repeats within a
row or a column; a bipartite graph always admits such a coloring with
exactly its maximum degree of colors, so the symbol count is optimal.

Construction is deterministic: edges are processed in lexicographic
(row rank, column rank) order and recoloring chains always start from the
right endpoint of the conflicted edge, so two independent builds of the
same joint type produce identical tables.  Encoder and decoder therefore
rebuild tables locally and never exchange them.

Tables live in flat 32-bit integer buffers, not per-cell Python objects:
`col_of[row * num_symbols + s]` and `row_of[col * num_symbols + s]` hold
the other end of the cell carrying symbol s, or -1 for a hole.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .types_core import (
    JointType,
    Sequence,
    _as_keys,
    _class_letters,
    joint_type_of,
    rank_in_type_class,
    rank_rows,
    type_class_size,
    type_of,
    unrank_in_type_class,
    unrank_rows,
    v_shell_size,
    w_shell_size,
)

# Largest table, in allocated lookup slots ((rows + columns) x symbols),
# built without an explicit override.  A table costs 4 B per slot plus
# 12 B per marked cell; slots are at least twice the cells, so
# a table at this budget takes at most 640 MB.  Measured: about 20 B per
# cell on a balanced table, 29 B per cell over the whole n=10 codebook.
# The per-cell dicts these buffers replaced cost about 320 B per cell,
# about 21 GB at this budget.
DEFAULT_CELL_BUDGET = 2 ** 26

# Buffers hold 32-bit ranks; every stored value is below the slot count.
_MAX_SLOTS = 2 ** 31 - 1


class TableBudgetError(ResourceWarning, ValueError):
    """Joint type's table exceeds the configured cell budget."""


class SymbolNotFoundError(ValueError):
    """No cell with the requested symbol in that row/column: desync or corruption."""


class PairTypeMismatchError(ValueError):
    """Sequence pair does not belong to this table's joint type."""


class SideInfoMismatchError(ValueError):
    """Side information inconsistent with the codeword's joint type."""


class TypeEdges:
    """The (row, col) edges of a type graph, row-major, columns ascending.

    Every row of a type graph has the same degree, so only the columns are
    stored: row i's columns are `cols[i * degree:(i + 1) * degree]`.
    """

    __slots__ = ("cols", "degree")

    def __init__(self, cols: array, degree: int):
        self.cols = cols
        self.degree = degree

    def __len__(self) -> int:
        return len(self.cols)

    def __iter__(self):
        rows = range(len(self.cols) // self.degree)
        repeated = map(itertools.repeat, rows, itertools.repeat(self.degree))
        return zip(itertools.chain.from_iterable(repeated), self.cols)


@dataclass(frozen=True)
class BipartiteTypeGraph:
    """Bipartite graph of one joint type class: left = rows, right = columns.

    `edges` is any sized iterable of (row, col) pairs; `build_graph` gives
    a `TypeEdges`.
    """

    jt: JointType
    left_size: int
    right_size: int
    left_degree: int
    right_degree: int
    edges: TypeEdges | tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.jt.n


def build_graph(jt: JointType, cell_budget: int = DEFAULT_CELL_BUDGET) -> BipartiteTypeGraph:
    """Materialize the type class as rank-indexed edges, lex sorted.

    The budget bounds the slots the colored table allocates, checked
    before anything is built.
    """
    left_size = type_class_size(jt.x_marginal())
    right_size = type_class_size(jt.y_marginal())
    left_degree = v_shell_size(jt)
    right_degree = w_shell_size(jt)
    cells = left_size * left_degree
    slots = (left_size + right_size) * max(left_degree, right_degree)
    limit = min(cell_budget, _MAX_SLOTS)
    if slots > limit:
        raise TableBudgetError(
            f"joint type {jt.counts} at n={jt.n} needs {slots} table slots for {cells} "
            f"cells, about {(4 * slots + 12 * cells) / 2 ** 20:.0f} MB (> budget {limit} slots)"
        )
    edges = TypeEdges(_int_array(_shell_columns(jt)), left_degree)
    return BipartiteTypeGraph(jt, left_size, right_size, left_degree, right_degree, edges)


def _shell_columns(jt: JointType) -> np.ndarray:
    """Column ranks of every row's V-shell, row-major, ascending in a row.

    Row x's shell is every interleaving of one arrangement of each joint
    count row jt.counts[a], placed where x takes letter a.  Lexicographic
    rank in a type class is the position among the class's sequences in
    sorted order, so a searchsorted over byte-string keys gives the column
    ranks with no integer code to overflow at large n.
    """
    n = jt.n
    x_class = _class_letters(jt.x_marginal().counts)
    rows = len(x_class)
    row_idx = np.arange(rows)[:, None, None]
    y_class = _class_letters(jt.y_marginal().counts)
    shells = np.zeros((rows, 1, n), y_class.dtype)
    for a, sub_counts in enumerate(jt.counts):
        arrangements = _class_letters(sub_counts)
        positions = np.argsort(x_class != a, axis=1, kind="stable")[:, : sum(sub_counts)]
        part = np.zeros((rows, len(arrangements), n), y_class.dtype)
        arr_idx = np.arange(len(arrangements))[None, :, None]
        part[row_idx, arr_idx, positions[:, None, :]] = arrangements
        shells = (shells[:, :, None, :] + part[:, None, :, :]).reshape(rows, -1, n)
    cols = np.searchsorted(_as_keys(y_class), _as_keys(shells.reshape(-1, n))).reshape(rows, -1)
    cols.sort(axis=1)
    return cols


def _int_array(values: np.ndarray) -> array:
    """A numpy integer array as a flat array('i'), whose items read as Python ints."""
    out = _zeros(values.size)
    np.frombuffer(out, np.int32)[:] = values.ravel()
    return out


def _zeros(size: int) -> array:
    return array("i", [0]) * size  # sized exactly; frombytes would over-allocate


@dataclass(frozen=True)
class CodingTable:
    """Edge-colored table over flat 32-bit buffers.

    `col_of[row * num_symbols + s]` and `row_of[col * num_symbols + s]` give
    the other end of the cell carrying symbol s, -1 for a hole.  Row i's
    cells by ascending column are `sorted_cols[k]`/`sorted_syms[k]` for k in
    `row_start[i]:row_start[i + 1]`.  Lookups return Python ints; the
    plural lookups take and return numpy arrays, one element per lookup,
    and raise what the scalar ones raise if any element fails.
    """

    graph: BipartiteTypeGraph
    num_symbols: int
    col_of: array
    row_of: array
    row_start: array
    sorted_cols: array
    sorted_syms: array

    @property
    def jt(self) -> JointType:
        return self.graph.jt

    def symbol_at(self, row: int, col: int) -> int:
        lo, hi = self.row_start[row], self.row_start[row + 1]
        k = bisect_left(self.sorted_cols, col, lo, hi)
        if k == hi or self.sorted_cols[k] != col:
            raise PairTypeMismatchError(f"no marked cell at row {row}, column {col}")
        return self.sorted_syms[k]

    def row_for(self, col: int, symbol: int) -> int:
        if 0 <= symbol < self.num_symbols:
            row = self.row_of[col * self.num_symbols + symbol]
            if row >= 0:
                return row
        raise SymbolNotFoundError(f"symbol {symbol} absent in column {col}")

    def col_for(self, row: int, symbol: int) -> int:
        if 0 <= symbol < self.num_symbols:
            col = self.col_of[row * self.num_symbols + symbol]
            if col >= 0:
                return col
        raise SymbolNotFoundError(f"symbol {symbol} absent in row {row}")

    def symbols_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vector `symbol_at`.

        Cells sorted by row, then column, have ascending keys
        row * right_size + column, so one search over the table's keys finds
        every cell.
        """
        width = self.graph.right_size
        start = np.frombuffer(self.row_start, np.int32)
        keys = np.repeat(np.arange(self.graph.left_size, dtype=np.int64) * width, np.diff(start))
        keys += np.frombuffer(self.sorted_cols, np.int32)
        wanted = np.asarray(rows, np.int64) * width + cols
        k = np.searchsorted(keys, wanted)
        missing = keys[np.minimum(k, len(keys) - 1)] != wanted
        if missing.any():
            i = int(np.argmax(missing))
            raise PairTypeMismatchError(f"no marked cell at row {rows[i]}, column {cols[i]}")
        return np.frombuffer(self.sorted_syms, np.int32)[k]

    def rows_for(self, cols: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """Vector `row_for`."""
        return _slot_lookup(self.row_of, self.num_symbols, cols, symbols, "column")

    def cols_for(self, rows: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """Vector `col_for`."""
        return _slot_lookup(self.col_of, self.num_symbols, rows, symbols, "row")

    def dump_csv(self, stream) -> None:
        """Debug dump: rows x columns grid of symbols, blank for unmarked cells."""
        start, cols, syms = self.row_start, self.sorted_cols, self.sorted_syms
        for i in range(self.graph.left_size):
            cells = [""] * self.graph.right_size
            for k in range(start[i], start[i + 1]):
                cells[cols[k]] = str(syms[k])
            stream.write(",".join(cells) + "\n")


def _slot_lookup(slots: array, delta: int, at: np.ndarray, symbols: np.ndarray, what: str) -> np.ndarray:
    """slots[at * delta + symbol] for every element, or SymbolNotFoundError
    for a symbol outside [0, delta) or a hole, as `row_for`/`col_for`."""
    at, symbols = np.asarray(at, np.int64), np.asarray(symbols, np.int64)
    found = np.frombuffer(slots, np.int32).take(at * delta + symbols, mode="clip")
    bad = (found < 0) | (symbols < 0) | (symbols >= delta)  # a clipped read is a bad symbol
    if bad.any():
        i = int(np.argmax(bad))
        raise SymbolNotFoundError(f"symbol {symbols[i]} absent in {what} {at[i]}")
    return found


def edge_color(g: BipartiteTypeGraph) -> CodingTable:
    """Properly color the edges with exactly max-degree symbols.

    Incremental assignment with alternating-path recoloring: when the two
    endpoints of a fresh edge have no common free color, swap the two
    candidate colors along the alternating chain starting at the right
    endpoint, which frees the left endpoint's candidate on both sides.
    Colors used at a vertex are a bitmask; `~u & (u + 1)` is the lowest
    free one.
    """
    delta = max(g.left_degree, g.right_degree)
    col_of = array("i", [-1]) * (g.left_size * delta)
    row_of = array("i", [-1]) * (g.right_size * delta)
    left_used = [0] * g.left_size
    right_used = [0] * g.right_size
    full = 1 << delta

    for i, j in g.edges:
        lu = left_used[i]
        ru = right_used[j]
        used = lu | ru
        bit = ~used & (used + 1)
        if bit >= full:  # no common free color
            bit = ~lu & (lu + 1)
            b = ~ru & (ru + 1)
            if bit >= full or b >= full:
                raise ValueError(f"edge ({i}, {j}) exceeds the maximum degree {delta}")
            _flip_chain(col_of, row_of, left_used, right_used, delta, j,
                        bit.bit_length() - 1, b.bit_length() - 1)
            ru = right_used[j]
        s = bit.bit_length() - 1
        left_used[i] = lu | bit
        right_used[j] = ru | bit
        col_of[i * delta + s] = j
        row_of[j * delta + s] = i

    return CodingTable(g, delta, col_of, row_of, *_row_cells(col_of, g.left_size, delta))


def _flip_chain(col_of, row_of, left_used, right_used, delta: int, col: int, a: int, b: int):
    """Swap colors a and b along the alternating chain starting at `col`.

    `col` carries a and misses b; the chain alternates a (into rows) and b
    (into columns) and, being simple and unable to reach the left endpoint
    of the conflicted edge, the swap leaves a free at `col`.  Swapping the
    a and b slots of every chain vertex recolors the chain; only its two
    ends change which of a and b they use.
    """
    ab = (1 << a) | (1 << b)
    right_used[col] ^= ab
    while True:
        ka, kb = col * delta + a, col * delta + b
        row = row_of[ka]
        row_of[ka], row_of[kb] = row_of[kb], row
        if row < 0:
            right_used[col] ^= ab
            return
        ka, kb = row * delta + a, row * delta + b
        nxt = col_of[kb]
        col_of[ka], col_of[kb] = nxt, col_of[ka]
        if nxt < 0:
            left_used[row] ^= ab
            return
        col = nxt


def _row_cells(col_of: array, rows: int, delta: int) -> tuple[array, array, array]:
    """(row_start, sorted_cols, sorted_syms): each row's cells by ascending column.

    Each slot packs into one int64 key col * delta + symbol (holes last),
    so one in-place sort per row orders a row's cells by column.
    """
    hole = np.iinfo(np.int64).max
    slots = np.frombuffer(col_of, np.int32).reshape(rows, delta)
    holes = slots < 0
    degrees = delta - holes.sum(axis=1)
    keys = slots.astype(np.int64)
    keys *= delta
    keys += np.arange(delta)
    keys[holes] = hole
    del holes
    keys.sort(axis=1)
    width = int(degrees.max(initial=0))
    kept = keys[:, :width]
    if (degrees != width).any():  # rows of unequal degree: drop their holes
        kept = kept[kept != hole]
    start = np.zeros(rows + 1, np.int64)
    np.cumsum(degrees, out=start[1:])
    cols, syms = _zeros(kept.size), _zeros(kept.size)
    np.floor_divide(kept, delta, out=np.frombuffer(cols, np.int32).reshape(kept.shape))
    np.remainder(kept, delta, out=np.frombuffer(syms, np.int32).reshape(kept.shape))
    return _int_array(start), cols, syms


@lru_cache(maxsize=None)
def get_coding_table(jt: JointType) -> CodingTable:
    """Deterministic table for jt, cached per process (idempotent rebuild)."""
    return edge_color(build_graph(jt))


def lookup_symbol(t: CodingTable, x: Sequence, y: Sequence) -> int:
    """Symbol stored at the cell of (x, y); pair must belong to t's joint type."""
    if joint_type_of(x, y) != t.jt:
        raise PairTypeMismatchError("pair does not belong to this table's joint type")
    return t.symbol_at(rank_in_type_class(x), rank_in_type_class(y))


def decode_side(t: CodingTable, side_info: Sequence, symbol: int, side: str) -> Sequence:
    """Reproduce one sequence of a pair from the other one and the cell symbol.

    `side` names the sequence reproduced, as `decode --side` does: "x"
    reads the column of side information y, "y" reads the row of x.
    """
    if side == "x":
        held, lookup, other = t.jt.y_marginal(), t.row_for, t.jt.x_marginal()
    elif side == "y":
        held, lookup, other = t.jt.x_marginal(), t.col_for, t.jt.y_marginal()
    else:
        raise ValueError(f"side must be 'x' or 'y', not {side!r}")
    if type_of(side_info) != held:
        raise SideInfoMismatchError("side information type does not match codeword")
    return unrank_in_type_class(other, lookup(rank_in_type_class(side_info), symbol))


def decode_side_rows(t: CodingTable, side_info: np.ndarray, symbols: np.ndarray, side: str) -> np.ndarray:
    """Vector `decode_side`: one reproduced sequence per row of `side_info`."""
    x_counts, y_counts = tuple(map(sum, t.jt.counts)), tuple(map(sum, zip(*t.jt.counts)))
    if side == "x":
        held, lookup, other = y_counts, t.rows_for, x_counts
    elif side == "y":
        held, lookup, other = x_counts, t.cols_for, y_counts
    else:
        raise ValueError(f"side must be 'x' or 'y', not {side!r}")
    try:
        ranks = rank_rows(side_info, held)
    except ValueError:
        raise SideInfoMismatchError("side information type does not match codeword") from None
    return unrank_rows(other, lookup(ranks, symbols))
