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

A table is its two flat 32-bit slot buffers, not per-cell Python objects:
`col_of[row * num_symbols + s]` and `row_of[col * num_symbols + s]` hold
the other end of the cell carrying symbol s, or -1 for a hole: the
coloring and its inverse, which the recoloring chains walk from both sides.

A pair's symbol is `encode_pair` of one block, or `symbols_at` of a
batch's ranks (`ff_codec.encode_rows`).  A joint type of one symbol codes
every pair as 0 and nothing builds its table: it pairs each letter of one
side with one of the other (`letter_map`), and the decoders apply that.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .types_core import (
    MAX_CLASS_SIZE,
    Alphabet,
    JointType,
    RankRangeError,
    RowError,
    Sequence,
    TypeVector,
    _as_keys,
    _class_keys,
    _class_letters,
    _letter_dtype,
    _lex_maps,
    _rank_letters,
    _unrank_letters,
    code_table,
    type_class_size,
    type_of,
    v_shell_size,
    w_shell_size,
)

# Largest table, in allocated lookup slots ((rows + columns) x symbols),
# built without an explicit override.  A table costs 4 B per slot plus
# 4 B per marked cell (its graph's edge columns); slots are at least twice
# the cells, so a table at this budget takes at most about 384 MB.
# Measured: 12 B per cell on a balanced table, 21 B per cell over the
# whole n=10 codebook.
# The per-cell dicts these buffers replaced cost about 320 B per cell,
# about 21 GB at this budget.  Both classes of a table within it are
# small enough to enumerate.
DEFAULT_CELL_BUDGET = MAX_CLASS_SIZE

# Buffers hold 32-bit ranks; every stored value is below the slot count.
_MAX_SLOTS = 2 ** 31 - 1

# Most slots `symbols_at` compares at once.
_SLICE_SLOTS = 2 ** 20


class TableBudgetError(ResourceWarning, ValueError):
    """Joint type's table exceeds the configured cell budget."""


class SymbolNotFoundError(RowError):
    """No cell with the requested symbol in that row/column: desync or corruption."""


class PairTypeMismatchError(RowError):
    """Sequence pair does not belong to this table's joint type."""


class SideInfoMismatchError(RowError):
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
            f"cells, about {(4 * slots + 4 * cells) / 2 ** 20:.0f} MB (> budget {limit} slots)"
        )
    cols = array("i", [0]) * cells  # sized exactly; frombytes would over-allocate
    np.frombuffer(cols, np.int32)[:] = _shell_columns(jt).ravel()
    return BipartiteTypeGraph(jt, left_size, right_size, left_degree, right_degree, TypeEdges(cols, left_degree))


def _shell_columns(jt: JointType) -> np.ndarray:
    """Column ranks of every row's V-shell, row-major, ascending in a row.

    Row x's shell is every interleaving of one arrangement of each joint
    count row jt.counts[a], placed where x takes letter a.  Lexicographic
    rank in a type class is the position among the class's sequences in
    sorted order.  Within the code table's limit a shell is its code, the
    sum of its parts' codes, and one gather of the table ranks it; above
    it the shells are built as letters and a searchsorted over byte-string
    keys ranks them, with no integer code to overflow at large n.
    """
    n, y_counts = jt.n, jt.y_marginal().counts
    x_class = _class_letters(jt.x_marginal().counts)
    rows = len(x_class)
    row_idx = np.arange(rows)[:, None, None]
    table, dtype = code_table(n, len(y_counts)), _letter_dtype(len(y_counts))
    shells = np.zeros((rows, 1), np.int64) if table is not None else np.zeros((rows, 1, n), dtype)
    for a, sub_counts in enumerate(jt.counts):
        arrangements = _class_letters(sub_counts)
        positions = np.argsort(x_class != a, axis=1, kind="stable")[:, : sum(sub_counts)]
        if table is not None:  # (rows, arrangements) codes
            part = table.powers[positions] @ arrangements.T
        else:
            part = np.zeros((rows, len(arrangements), n), dtype)
            part[row_idx, np.arange(len(arrangements))[None, :, None], positions[:, None, :]] = arrangements
        shells = (shells[:, :, None] + part[:, None]).reshape(rows, -1, *part.shape[2:])
    if table is not None:
        cols = table.rank[shells]
    else:
        cols = np.searchsorted(_class_keys(y_counts), _as_keys(shells.reshape(-1, n))).reshape(rows, -1)
    cols.sort(axis=1)
    return cols


@dataclass(frozen=True)
class CodingTable:
    """Edge-colored table over two flat 32-bit slot buffers.

    `col_of[row * num_symbols + s]` and `row_of[col * num_symbols + s]` give
    the other end of the cell carrying symbol s, -1 for a hole, so a cell's
    symbol is its slot number in its row.  Lookups return Python ints;
    `symbols_at` takes and returns numpy arrays, one element per lookup,
    and raises what `symbol_at` raises if any element fails, with the
    first failing element as its `row`.
    """

    graph: BipartiteTypeGraph
    num_symbols: int
    col_of: array
    row_of: array

    @property
    def jt(self) -> JointType:
        return self.graph.jt

    def symbol_at(self, row: int, col: int) -> int:
        start = row * self.num_symbols
        try:
            return self.col_of.index(col, start, start + self.num_symbols) - start
        except ValueError:
            raise PairTypeMismatchError(f"no marked cell at row {row}, column {col}") from None

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
        """Vector `symbol_at`: each row's slots compared with its column.

        Rows are taken in slices of at most `_SLICE_SLOTS` slots, so the
        comparison's temporaries stay bounded on long batches.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        slots = np.frombuffer(self.col_of, np.int32).reshape(-1, self.num_symbols)
        out = np.empty(len(rows), np.int64)
        step = max(1, _SLICE_SLOTS // self.num_symbols)
        for lo in range(0, len(rows), step):
            hit = slots[rows[lo:lo + step]] == cols[lo:lo + step, None]
            out[lo:lo + step] = hit.argmax(axis=1)
            if np.count_nonzero(hit) < len(hit):  # a column fills at most one slot of a row
                i = lo + int(np.argmin(hit.any(axis=1)))
                raise PairTypeMismatchError(f"no marked cell at row {rows[i]}, column {cols[i]}", i)
        return out

    def dump_csv(self, stream) -> None:
        """Debug dump: rows x columns grid of symbols, blank for unmarked cells."""
        delta = self.num_symbols
        for i in range(self.graph.left_size):
            cells = [""] * self.graph.right_size
            for s, j in enumerate(self.col_of[i * delta:(i + 1) * delta]):
                if j >= 0:
                    cells[j] = str(s)
            stream.write(",".join(cells) + "\n")


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

    return CodingTable(g, delta, col_of, row_of)


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


@lru_cache(maxsize=None)
def get_coding_table(jt: JointType) -> CodingTable:
    """Deterministic table for jt, cached per process (idempotent rebuild)."""
    return edge_color(build_graph(jt))


@lru_cache(maxsize=None)
def num_symbols_of(jt: JointType) -> int:
    """Symbols a table for jt uses: its maximum degree, in closed form."""
    return max(v_shell_size(jt), w_shell_size(jt))


class SideCoder(NamedTuple):
    """Everything a decode of one side of a joint type reads that does not
    depend on the block, memoized per joint type by `_side_coders`.

    `held` is the side information's marginal type and `rank_of` its class
    as letters -> rank; `other` is the reproduced marginal type and
    `letters_of` its class as rank -> shared `Sequence`, `size` members
    over `alphabet`.  A class above `_RANK_MAP_LIMIT` has no map (None) and
    is searched instead.  `to` is the `letter_map` of a type of one symbol,
    None for a type with a table; such a type's `letters_of` is indexed by
    the held rank, which its map keeps unless it reorders letters.
    """

    held: TypeVector
    rank_of: dict | None
    other: TypeVector
    letters_of: tuple | None
    size: int
    alphabet: Alphabet
    to: tuple[int, ...] | None


@lru_cache(maxsize=None)
def _side_coders(jt: JointType) -> tuple[SideCoder, SideCoder]:
    """The `SideCoder` decoding x and the one decoding y, in that order.
    The one decoding y holds x's class map, and the other y's."""
    coders = []
    for side in ("x", "y"):
        held, other = held_and_decoded(side, jt.x_marginal(), jt.y_marginal())
        to = letter_map(jt, side) if num_symbols_of(jt) == 1 else None
        held_maps, other_maps = _lex_maps(held.counts), _lex_maps(other.counts)
        members = other_maps and other_maps[1]
        support = [to[a] for a, c in enumerate(held.counts) if c] if to is not None else []
        if members and support != sorted(support):
            members = tuple(members[other_maps[0][tuple(map(to.__getitem__, s))]] for s in held_maps[0])
        coders.append(SideCoder(
            held,
            held_maps and held_maps[0],
            other,
            members,
            type_class_size(other),
            Alphabet(other.num_letters),
            to,
        ))
    return tuple(coders)


def _rank(coder: SideCoder, letters: tuple[int, ...]) -> int:
    """Rank of `letters`, a member of the coder's held class (not checked)."""
    return coder.rank_of[letters] if coder.rank_of is not None else _rank_letters(letters, coder.held.counts)


def encode_pair(jt: JointType, x: Sequence, y: Sequence) -> int:
    """The symbol of the cell (x, y), a pair of joint type jt (not checked):
    0 for a type of one symbol, for which no table is built.  Otherwise the
    table, and with it its budget check, comes before the ranks."""
    decode_x, decode_y = _side_coders(jt)
    if decode_x.to is not None:
        return 0
    t = get_coding_table(jt)
    return t.symbol_at(_rank(decode_y, x.letters), _rank(decode_x, y.letters))


def _side_index(side: str) -> int:
    if side == "x":
        return 0
    if side == "y":
        return 1
    raise ValueError(f"side must be 'x' or 'y', not {side!r}")


def held_and_decoded(side: str, x, y) -> tuple:
    """(held, decoded) for a decode of `side`: of an x value and a y value,
    the side information's and the reproduced sequence's.  Raises the
    ValueError of `decode_side` for a side other than "x" and "y"."""
    return (y, x) if _side_index(side) == 0 else (x, y)


def decode_side(jt: JointType, side_info: Sequence, symbol: int, side: str) -> Sequence:
    """Reproduce one sequence of a pair of joint type jt from the other one
    and the cell symbol.

    `side` names the sequence reproduced, as `decode --side` does: "x"
    reads the column of side information y, "y" reads the row of x.  The
    side information's rank is its type check: a block missing from its
    held class's map is of another type; a class without a map, and a type
    of one symbol, count the block instead.  A type of one symbol reads no
    table: its block is `letters_of` at the held rank, or, in a class
    without maps, the side information mapped through `letter_map`.  A
    decoded block of a class with maps is that class's shared member, so a
    warm decode builds no object.
    """
    coder = _side_coders(jt)[_side_index(side)]
    held, rank_of, other, letters_of, size, alphabet, to = coder
    t = get_coding_table(jt) if to is None else None
    letters = side_info.letters
    if rank_of is not None and side_info.alphabet.size == len(held.counts):
        rank = rank_of.get(letters)
    elif type_of(side_info).counts == held.counts:
        rank = 0 if t is None else _rank(coder, letters)  # a type of one symbol reads no rank
    else:
        rank = None
    if rank is None:
        raise SideInfoMismatchError("side information type does not match codeword")
    if t is None:
        if symbol != 0:
            raise SymbolNotFoundError(f"symbol {symbol} absent in a joint type of one symbol")
        if letters_of is None:
            return Sequence(tuple(map(to.__getitem__, letters)), alphabet)
        return letters_of[rank]
    r = t.row_for(rank, symbol) if side == "x" else t.col_for(rank, symbol)
    if not 0 <= r < size:
        raise RankRangeError(f"rank {r} outside type class of size {size}")
    return letters_of[r] if letters_of is not None else Sequence(_unrank_letters(other.counts, r), alphabet)


@lru_cache(maxsize=None)
def letter_map(jt: JointType, side: str) -> tuple[int, ...]:
    """For a joint type of one symbol (at most one nonzero count per row and
    column): the `side` letter paired with each side-information letter."""
    counts = np.array(jt.counts)
    return tuple((counts.T if side == "x" else counts).argmax(axis=1).tolist())
