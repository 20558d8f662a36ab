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

A table is two sides, rows and columns (see `CodingTable`): the coloring
`col_of` and its inverse `row_of`, which the recoloring chains walk from
both sides.  The side of higher degree fills its Δ slots per vertex and
is stored dense.  The other side is mostly holes, and is stored by edge
when that takes fewer bytes (`table_bytes`): each vertex's d symbols and
the other end of each, at a stride of its degree d.  A slot, a symbol and
an end take the item size of the slot book of the table's block length
and alphabets (`_slot_code`): 2 B when their largest class has fewer than
_NARROW_CLASS members, else 4 B, for every table of that book.  Every
table is held once, in that `slot_book`.
`encode_pair` and `decode_side` code one block through `get_coding_table`,
a window on its book entry; `SlotBook.encode` and `SlotBook.decode` code a
batch with gathers and vertex scans in the book.  A table's symbol count Δ
is `JointType.num_symbols`, in closed form (`types_core.num_symbols_column`
for every type at once).  A joint type of one symbol codes every pair as 0
and nothing builds its table: it pairs each letter of one side with one of
the other (`letter_map`).
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .types_core import (
    Alphabet,
    JointType,
    RankRangeError,
    RowError,
    Sequence,
    TypeVector,
    _Classes,
    _as_blocks,
    _letter_dtype,
    _lex_maps,
    _rank_letters,
    _shell_columns,
    _unrank_letters,
    joint_type_count,
    joint_types_at,
    multinomial,
    type_class_size,
    type_of,
    v_shell_size,
    w_shell_size,
)

# Most bytes one table may take while it is built, read by `build_graph` at
# each call and counted in closed form before anything is allocated
# (`table_bytes`): what its slot book stores, and what `edge_color` holds
# while it colors (8 B per slot of a list, _DICT_ITEM_BYTES per edge of a
# dict).  The graph adds one slot item per cell while it is built or a
# window keeps it.  At 12 B per slot, 4 B stored and 8 B listed, a table
# of 2^26 slots fits with both sides dense.
DEFAULT_BUILD_BYTES = 768 * 2 ** 20

# Bytes per edge of a side colored in a dict (a dict item and its key's
# int, measured 72-85 B).
_DICT_ITEM_BYTES = 96

# A slot book whose largest class has fewer members than this keeps every
# slot, end and edge column in 16 bits (binary n <= 17, 3 letters n <= 11),
# else in 32.
_NARROW_CLASS = 2 ** 15

# Most slots the batch encoder compares at once (`SlotBook.encode`).
_SLICE_SLOTS = 2 ** 20

# Most type indices a slot book maps to its entries with a dense array, at
# 8 B per index (512 KB: binary n <= 71, 3 x 2 letters n <= 20); past it, a dict.
_DENSE_TYPES = 2 ** 16


@lru_cache(maxsize=16)
def _slot_code(n: int, kx: int, ky: int) -> str:
    """The `array` typecode of the slot book of n-letter blocks over kx x ky
    letters, by the size of its largest x or y class: every table, graph
    and book of those blocks takes items of it."""
    largest = max(multinomial([n // k + (i < n % k) for i in range(min(k, n))]) for k in (kx, ky))
    return "h" if largest < _NARROW_CLASS else "i"


def _layout(degrees, delta: int) -> list[tuple[bool, bool]]:
    """(stored by edge, colored in a dict) of the rows, then the columns, of
    a table of these degrees.  A side of degree d is stored by edge when a
    symbol and an end per edge take fewer items than Δ slots per vertex
    (2d < Δ), and then colored in a dict when that takes fewer bytes than a
    list of its slots (about Δ > 12d)."""
    return [(2 * d < delta, 2 * d < delta and d * _DICT_ITEM_BYTES < delta * 8) for d in degrees]


def _shape(jt: JointType) -> tuple[tuple[int, int], tuple[int, int]]:
    """The class sizes, then the degrees, of the rows and the columns of jt's table."""
    return (type_class_size(jt.x_marginal()), type_class_size(jt.y_marginal())), (v_shell_size(jt), w_shell_size(jt))


def table_bytes(jt: JointType, shape=None) -> tuple[int, int]:
    """(stored, colored), in closed form: the bytes the slot book stores for
    jt's table, 0 for a type of one symbol (no table), and those `edge_color`
    holds in lists or dicts while it colors it.  A dense side stores an item
    per vertex and symbol, a side stored by edge two per edge, at the book's
    item size.  `shape` is `_shape(jt)`, if the caller has it."""
    (sizes, degrees), delta = shape or _shape(jt), jt.num_symbols
    itemsize, stored, colored = array(_slot_code(jt.n, jt.num_x, jt.num_y)).itemsize, 0, 0
    for size, degree, (by_edge, in_dict) in zip(sizes, degrees, _layout(degrees, delta)):
        stored += size * (2 * degree if by_edge else delta) * itemsize
        colored += size * (degree * _DICT_ITEM_BYTES if in_dict else delta * 8)
    return stored if delta > 1 else 0, colored


class TableBudgetError(ResourceWarning, ValueError):
    """Joint type's table exceeds the configured byte budget."""


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


def build_graph(jt: JointType) -> BipartiteTypeGraph:
    """Materialize the type class as rank-indexed edges, lex sorted.

    `DEFAULT_BUILD_BYTES` bounds the bytes the table takes while it is
    built (`table_bytes`), checked before anything is built.
    """
    (left_size, right_size), (left_degree, right_degree) = shape = _shape(jt)
    cells, (stored, colored) = left_size * left_degree, table_bytes(jt, shape)
    if stored + colored > DEFAULT_BUILD_BYTES:
        raise TableBudgetError(
            f"joint type {jt.counts} at n={jt.n} needs {stored + colored} B for {cells} cells, "
            f"{stored / 2 ** 20:.0f} MB stored and {colored / 2 ** 20:.0f} MB more while it is colored "
            f"(> budget {DEFAULT_BUILD_BYTES} B)"
        )
    code = _slot_code(jt.n, jt.num_x, jt.num_y)
    cols = array(code, [0]) * cells  # sized exactly; frombytes would over-allocate
    np.frombuffer(cols, code)[:] = _shell_columns(jt).ravel()
    return BipartiteTypeGraph(jt, left_size, right_size, left_degree, right_degree, TypeEdges(cols, left_degree))


# Where a table side sits on its slot buffer, (base, width, edges): vertex
# v's `width` items from `base + v * width` are its Δ slots when `edges` is 0
# (dense), else the other ends of its `width` cells (stored by edge), whose
# symbols, ascending, are the `width` items `edges` (the side's cell count)
# further on.  A plain tuple: a NamedTuple unpacks 4x slower.
_Side = tuple[int, int, int]


@dataclass(frozen=True)
class CodingTable:
    """Edge-colored table: its col_of and row_of sides (`_Side`) on one
    slot buffer, of its own (`edge_color`) or its slot book's
    (`get_coding_table`).  The side of degree Δ is always dense.

    Dense, `col_of[row * num_symbols + s]` and `row_of[col * num_symbols + s]`
    give the other end of the cell with symbol s, -1 for a hole, so a cell's
    symbol is its slot number in its row; the properties build them.
    Lookups read the sides as stored and return Python ints.
    """

    graph: BipartiteTypeGraph
    num_symbols: int
    slots: array
    col_side: _Side
    row_side: _Side

    @property
    def jt(self) -> JointType:
        return self.graph.jt

    col_of = property(lambda self: self._dense(self.col_side, self.graph.left_size))
    row_of = property(lambda self: self._dense(self.row_side, self.graph.right_size))

    def symbol_at(self, row: int, col: int) -> int:
        (base, width, edges), slots = self.col_side, self.slots
        start = base + row * width
        try:
            at = slots.index(col, start, start + width)
        except ValueError:
            raise PairTypeMismatchError(f"no marked cell at row {row}, column {col}") from None
        return slots[at + edges] if edges else at - start

    def row_for(self, col: int, symbol: int) -> int:
        return self._end(self.row_side, col, symbol, "column")

    def col_for(self, row: int, symbol: int) -> int:
        return self._end(self.col_side, row, symbol, "row")

    def _end(self, side: _Side, vertex: int, symbol: int, name: str) -> int:
        """The other end of the vertex's cell of this symbol on this side: a
        dense slot, or a bisect of the vertex's symbols stored by edge."""
        (base, width, edges), slots = side, self.slots
        start = base + vertex * width
        if not edges:
            end = slots[start + symbol] if 0 <= symbol < width else -1
        else:
            at = bisect_left(slots, symbol, start + edges, start + edges + width)
            end = slots[at - edges] if at < start + edges + width and slots[at] == symbol else -1
        if end < 0:
            raise SymbolNotFoundError(f"symbol {symbol} absent in {name} {vertex}")
        return end

    def _dense(self, side: _Side, size: int) -> array:
        """The side's dense slots, copied out or built."""
        (base, width, edges), slots, delta = side, self.slots, self.num_symbols
        if not edges:
            return slots[base:base + size * delta]
        out = array(slots.typecode, [-1]) * (size * delta)
        at = np.arange(0, len(out), delta).repeat(width)  # each vertex's first slot, per cell
        at += np.frombuffer(slots, slots.typecode)[base + edges:base + 2 * edges]
        np.frombuffer(out, out.typecode)[at] = np.frombuffer(slots, slots.typecode)[base:base + edges]
        return out

    def dump_csv(self, stream) -> None:
        """Debug dump: rows x columns grid of symbols, blank for unmarked cells."""
        delta, col_of = self.num_symbols, self.col_of
        for i in range(self.graph.left_size):
            cells = [""] * self.graph.right_size
            for s, j in enumerate(col_of[i * delta:(i + 1) * delta]):
                if j >= 0:
                    cells[j] = str(s)
            stream.write(",".join(cells) + "\n")


class _Holes(dict):
    """The slots of a side while it is colored, by slot number: a missing one is a hole."""

    def __missing__(self, key: int) -> int:
        return -1


def _pack(colored, slots: array, delta: int, degree: int | None) -> _Side:
    """Append a side's slots, colored in a list or a `_Holes` dict, to
    `slots` as the book stores them, and return where they sit: dense, or
    by edge at a stride of `degree` (every slot but the holes, in slot
    order: each vertex's cells by symbol)."""
    base, code = len(slots), slots.typecode
    if degree is None:
        slots.fromlist(colored)
        return base, delta, 0
    if isinstance(colored, dict):  # from its sorted keys: an int64 array of them would add 8-16 B per cell
        keys = sorted(colored)
        ends = np.fromiter(map(colored.__getitem__, keys), code, len(keys))
        symbols = np.fromiter((k % delta for k in keys), code, len(keys))
    else:
        colored = array(code, colored)
        keys = np.flatnonzero(np.frombuffer(colored, code) >= 0)
        ends, symbols = np.frombuffer(colored, code)[keys], (keys % delta).astype(code)
    keep = ends >= 0  # a chain may leave a hole written as -1 in a dict
    slots.frombytes(np.concatenate([ends[keep], symbols[keep]]).tobytes())
    return base, degree, (len(slots) - base) // 2


def edge_color(g: BipartiteTypeGraph, slots: array | None = None) -> CodingTable:
    """Properly color the edges with exactly max-degree symbols.

    Greedy in edge order with alternating-path recoloring: a fresh edge
    takes the lowest color free at both ends.  When there is none, a is
    the lowest free at the row and b the lowest free at the column, and
    swapping a and b along the alternating chain from the column frees a
    there too.  The colors free at a vertex are a bitmask, `f & -f` the
    lowest.  The slots of a side are a Python list while coloring, 8 B per
    slot, or for a side stored by edge whose list would be the larger a
    `_Holes` dict (`_layout`): every slot naming a column holds the one int
    of `columns`, and one naming a row the int the edges give.  Both read
    and write the same slots, so the colors are the same.  At the end both
    sides are packed onto `slots` (`_pack`): a slot book's buffer, or if
    None a new one of the book's item size (`_slot_code`).
    """
    delta = max(g.left_degree, g.right_degree)
    sizes, degrees = (g.left_size, g.right_size), (g.left_degree, g.right_degree)
    layout = _layout(degrees, delta)
    col_of, row_of = (_Holes() if in_dict else [-1] * (size * delta) for size, (_, in_dict) in zip(sizes, layout))
    columns = list(range(g.right_size))
    all_free = (1 << delta) - 1
    left_free, right_free = [all_free] * g.left_size, [all_free] * g.right_size
    # The current row's free mask and first slot live in locals until the
    # row changes.  No chain enters that row: a chain enters rows only
    # along color a, and a is free at it.
    row, free_row, base = -1, 0, 0

    for i, j in g.edges:
        if i != row:
            if row >= 0:
                left_free[row] = free_row
            row, free_row, base = i, left_free[i], i * delta
        free_col = right_free[j]
        bit = free_row & free_col
        if bit:
            bit &= -bit
        else:  # no common free color: flip the a/b chain from column j
            bit, b = free_row & -free_row, free_col & -free_col
            if not bit or not b:
                raise ValueError(f"edge ({i}, {j}) exceeds the maximum degree {delta}")
            # Column j carries a and misses b.  The chain alternates a (into
            # rows) and b (into columns); swapping the a and b slots of each
            # of its vertices recolors it, and only its two ends change
            # which of a and b they use.
            ab = bit | b
            a, b = bit.bit_length() - 1, b.bit_length() - 1
            free_col ^= ab
            col = j
            while True:
                k = col * delta
                r = row_of[k + a]
                row_of[k + a] = row_of[k + b]
                row_of[k + b] = r
                if r < 0:  # the chain ends at a column
                    right_free[col] ^= ab
                    break
                k = r * delta
                col = col_of[k + b]
                col_of[k + b] = col_of[k + a]
                col_of[k + a] = col
                if col < 0:  # the chain ends at a row
                    left_free[r] ^= ab
                    break
        s = bit.bit_length() - 1
        free_row ^= bit
        right_free[j] = free_col ^ bit
        col_of[base + s] = columns[j]
        row_of[j * delta + s] = i

    slots = array(_slot_code(g.jt.n, g.jt.num_x, g.jt.num_y)) if slots is None else slots
    strides = [degree if by_edge else None for degree, (by_edge, _) in zip(degrees, layout)]
    col_of = _pack(col_of, slots, delta, strides[0])  # frees that container before the other is packed
    return CodingTable(g, delta, slots, col_of, _pack(row_of, slots, delta, strides[1]))


@lru_cache(maxsize=None)
def get_coding_table(jt: JointType) -> CodingTable:
    """Deterministic table for jt, cached per process: a window on its
    `slot_book` entry, or for a type of one symbol a table of its own."""
    if jt.num_symbols == 1:
        return edge_color(build_graph(jt))
    return slot_book(jt.n, Alphabet(jt.num_x), Alphabet(jt.num_y)).table(jt)


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
        to = letter_map(jt, side) if jt.num_symbols == 1 else None
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


def letter_map(jt: JointType, side: str) -> tuple[int, ...]:
    """For a joint type of one symbol (at most one nonzero count per row and
    column): the `side` letter paired with each side-information letter."""
    counts = np.array(jt.counts)
    return tuple((counts.T if side == "x" else counts).argmax(axis=1).tolist())


class SlotBook:
    """Every joint type of n-letter blocks over kx x ky letters that a batch
    or `get_coding_table` has met, as arrays by book id, so that a batch
    reads all of its tables with gathers and no loop over joint types:
    `encode` and `decode` are the batch twins of `encode_pair` and
    `decode_side`, and `table` is the window `get_coding_table` returns.

    Entry i is of the i-th type index in `_met`.  `_entries[i]` holds its
    symbol count, its marginal counts on side 0 (x) and 1 (y), the `_Side`
    of its col_of (side 0) and of its row_of (side 1) on the one buffer
    `_slots`, which holds the one copy of every table, and a one-symbol
    type's `letter_map`s decoding x and y.  `_ids` updates the arrays a
    batch gathers: `_delta`, `_cls[side]` (ids in `_classes[side]`), the
    sides' fields `_base[side]`, `_width[side]` and `_edges[side]`, and
    `_maps[side]`.  The buffer is an `array`, viewed as a numpy array only
    within an expression: a viewed buffer cannot grow, and the traceback
    of an error a method raises keeps its locals.
    """

    def __init__(self, n: int, kx: int, ky: int):
        self.n, self.type_count = n, joint_type_count(n, kx, ky)
        self._classes, self._entries = (_Classes(n, kx), _Classes(n, ky)), []
        self._delta, self._cls = np.zeros(0, np.int64), [np.zeros(0, np.int64)] * 2
        self._base, self._width, self._edges = ([np.zeros(0, np.int64)] * 2 for _ in range(3))
        self._maps = [np.zeros((0, ky), _letter_dtype(kx)), np.zeros((0, kx), _letter_dtype(ky))]
        self._slots = array(_slot_code(n, kx, ky))
        # Each type index met, to its entry; and, when the type indices
        # number at most _DENSE_TYPES, an array of every index's entry.
        self._met = {}
        self._dense = np.full(self.type_count, -1, np.int64) if self.type_count <= _DENSE_TYPES else None

    def encode(self, x: np.ndarray, y: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The symbol of every row pair of (m, n) letter arrays (checked by
        the caller): row i is of the joint type of index `index[i]`, or left
        out when that is negative; rows left out, and rows of a type of one
        symbol, get symbol 0.

        One lookup gives every row its book entry (a type met for the first
        time is entered: its table built, and budget checked, before any
        rank).  Each side is ranked by one code-table gather (past its limit,
        one search per class).  Every row's col_of vertex is scanned for its
        column rank at once (`_scan`): its Δ dense slots, or its ends when
        col_of is stored by edge, whose symbols are then one gather.  No
        loop runs over joint types.
        """
        symbols = np.zeros(len(x), np.int64)
        rows = np.flatnonzero(index >= 0)
        ids = self._ids(index[rows])
        tabled = self._delta[ids] > 1
        rows, ids = rows[tabled], ids[tabled]
        x_rank, _ = self._classes[0].rank(x.take(rows, axis=0), self._cls[0][ids], np.ones(len(rows), bool))
        y_rank, _ = self._classes[1].rank(y.take(rows, axis=0), self._cls[1][ids], np.ones(len(rows), bool))
        width, edges = self._width[0][ids], self._edges[0][ids]
        start = self._base[0][ids] + x_rank * width
        found, at = _scan(self._slots, start, width, y_rank), np.flatnonzero(edges)
        if len(at):  # rows stored by edge: the symbol of the end found, kept -1 where none was
            place = found[at]
            found_symbols = np.frombuffer(self._slots, self._slots.typecode)[start[at] + place + edges[at]]
            found[at] = np.where(place >= 0, found_symbols, -1)
        if len(found) and found.min() < 0:
            i = int(np.argmax(found < 0))
            raise PairTypeMismatchError(f"no marked cell at row {x_rank[i]}, column {y_rank[i]}", int(rows[i]))
        symbols[rows] = found
        return symbols

    def decode(self, types, type_index, symbols, side_info, side: str, rows, range_error) -> np.ndarray:
        """Reproduce the `side` blocks of a batch from (m, n) side information
        `side_info` and codewords of fields `type_index` and `symbols`, one
        per row: `decode_side` of the given rows (ascending), zeros elsewhere.
        The type field indexes `types`, the type indices of an FF region, or
        with `types` None is a type index.

        The side and the shapes are checked first (ValueError).  One lookup
        gives every row its book entry.  The side information is ranked and
        type-checked by one code-table gather (past its limit a sort checks
        it and each held class is searched once).  The dense slots are read
        by one gather, after one scan of each held vertex's symbols on the
        sides stored by edge (`_scan`) finds their places, and every unrank
        (past the limit, one per class) and letter map of a type of one
        symbol is one gather.  A failure raises the lowest failing row's
        error (`range_error` for a type field out of range; checks in the
        scalar order), with that row as `row`.
        """
        held, other = held_and_decoded(side, 0, 1)  # x is side 0 of the book, y side 1
        type_index, symbols = np.asarray(type_index), np.asarray(symbols)
        if len(type_index) != len(symbols):
            raise ValueError(f"codeword fields of {len(type_index)} and {len(symbols)} rows for {len(side_info)} blocks")
        side_info = _as_blocks(self.n, side_info, self._classes[held].k, "side information", len(type_index))
        count = self.type_count if types is None else len(types)
        failures, fields = [], type_index[rows]
        if len(fields) and not 0 <= fields.min() <= fields.max() < count:
            bad = (fields < 0) | (fields >= count)
            row = int(rows[np.argmax(bad)])
            failures.append(range_error(f"type index {type_index[row]} out of range", row))
            rows, fields = rows[~bad], fields[~bad]
        ids = self._ids(fields if types is None else types[fields])
        delta, symbol, letters = self._delta[ids], symbols[rows], side_info.take(rows, axis=0)
        tabled = delta > 1
        rank, wrong_side = self._classes[held].rank(letters, self._cls[held][ids], tabled)
        wrong = wrong_side | (symbol < 0) | (symbol >= delta)
        read, found = (tabled & ~wrong).nonzero()[0], np.zeros(len(rows), np.int64)  # array methods cost less
        entry = ids[read]
        width, edges = self._width[held][entry], self._edges[held][entry]
        start, at = self._base[held][entry] + rank[read] * width, edges.nonzero()[0]
        found[read] = np.frombuffer(self._slots, self._slots.typecode).take(start + symbol[read], mode="clip")
        if len(at):  # rows stored by edge: the symbol's place among the vertex's symbols, -1 for a hole
            first, by_edge = start[at], read[at]
            place = _scan(self._slots, first + edges[at], width[at], symbol[by_edge])
            found[by_edge] = np.where(place >= 0, np.frombuffer(self._slots, self._slots.typecode)[first + place], -1)
        wrong |= found < 0  # a hole
        read = read[found[read] >= 0]
        out = np.zeros(side_info.shape, _letter_dtype(self._classes[other].k))
        _put_rows(out, rows[read], self._classes[other].unrank(self._cls[other][ids[read]], found[read]))
        one = (~tabled).nonzero()[0]
        maps = self._maps[other]  # a one-symbol row's letters through its entry's map
        mapped = maps.ravel().take(letters.take(one, axis=0) + (ids[one] * maps.shape[1])[:, None])
        _put_rows(out, rows[one], mapped)
        if wrong.any():
            i = int(np.argmax(wrong))
            if wrong_side[i]:
                failures.append(SideInfoMismatchError("side information type does not match codeword", int(rows[i])))
            else:
                where = "a joint type of one symbol" if delta[i] == 1 else f"{'column' if side == 'x' else 'row'} {rank[i]}"
                failures.append(SymbolNotFoundError(f"symbol {symbol[i]} absent in {where}", int(rows[i])))
        if failures:
            raise min(failures, key=lambda exc: exc.row)
        return out

    def table(self, jt: JointType) -> CodingTable:
        """A window on the entry of jt, a tabled type, entered first if new.
        Its graph is the one entering built; an entry a batch made builds one."""
        graph = None if jt.index in self._met else self._enter(jt.index, jt)
        entry = self._entries[self._met[jt.index]]
        return CodingTable(graph or build_graph(jt), entry[0], self._slots, *entry[3:5])

    def _ids(self, index: np.ndarray) -> np.ndarray:
        """The book id of each type index (all in range), entering the types met for the first time."""
        ids = self._find(index)
        if len(ids) and ids.min() < 0:
            new = list(dict.fromkeys(np.sort(index[ids < 0]).tolist()))  # np.unique would import numpy.ma
            for i, jt in zip(new, joint_types_at(new, self.n, self._classes[0].k, self._classes[1].k)):
                self._enter(i, jt)
            ids = self._find(index)
        if len(self._delta) < len(self._entries):  # types entered since the last call: rebuild the arrays
            delta, *counts, x_sides, y_sides, x_maps, y_maps = zip(*self._entries)
            self._delta = np.array(delta, np.int64)
            for side, placed in enumerate((x_sides, y_sides)):
                self._base[side], self._width[side], self._edges[side] = np.array(placed, np.int64).T.copy()
            self._cls = [np.array(classes.ids_of(c), np.int64) for classes, c in zip(self._classes, counts)]
            for side, maps in enumerate((x_maps, y_maps)):
                zeros = (0,) * self._maps[side].shape[1]
                self._maps[side] = np.array([m or zeros for m in maps], self._maps[side].dtype)
        return ids

    def _find(self, index: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense[index]
        values, inverse = np.unique(index, return_inverse=True)
        return np.array([self._met.get(value, -1) for value in values.tolist()], np.int64)[inverse]

    def _enter(self, index: int, jt: JointType) -> BipartiteTypeGraph | None:
        """Enter jt, of this type index: its table built (budget checked first)
        and its sides appended, or a one-symbol type's letter maps.  Returns
        the table's graph, None for a type of one symbol."""
        delta, graph, sides = jt.num_symbols, None, ((0, 0, 0),) * 2
        if delta > 1:
            graph = build_graph(jt)
            t = edge_color(graph, self._slots)
            sides = t.col_side, t.row_side
        maps = (letter_map(jt, "x"), letter_map(jt, "y")) if delta == 1 else (None, None)
        self._entries.append((delta, jt.x_marginal().counts, jt.y_marginal().counts, *sides, *maps))
        self._met[index] = len(self._met)
        if self._dense is not None:
            self._dense[index] = self._met[index]
        return graph


def _scan(buf: array, start: np.ndarray, width: np.ndarray, want: np.ndarray) -> np.ndarray:
    """For each vertex, the place among its `width` items from `start` in
    `buf` of the one equal to `want`, -1 where none is: every item compared
    at once, in slices of at most `_SLICE_SLOTS` items.  A vertex holds
    each value at most once, so a hit per vertex is one in each, in order."""
    found = np.full(len(start), -1, np.int64)
    step = max(1, _SLICE_SLOTS // int(width.max(initial=1)))
    for lo in range(0, len(start), step):  # array methods: numpy's function wrappers cost more on short rows
        d, first, ends = width[lo:lo + step], start[lo:lo + step], width[lo:lo + step].cumsum()
        at = (first - ends + d).repeat(d) + np.arange(ends[-1])  # every item of every vertex
        hit = (np.frombuffer(buf, buf.typecode)[at] == want[lo:lo + step].repeat(d)).nonzero()[0]
        owner = np.arange(len(d)).repeat(d)[hit] if len(hit) < len(d) else slice(None)
        found[lo:lo + step][owner] = at[hit] - first[owner]
    return found


def _put_rows(out: np.ndarray, at: np.ndarray, rows: np.ndarray) -> None:
    """`out[at] = rows`, a whole row per item: several times faster than
    numpy's fancy indexing of short rows.  `out`'s rows must be contiguous."""
    whole = np.dtype((np.void, out.shape[1] * out.itemsize))
    out.view(whole)[:, 0][at] = np.ascontiguousarray(rows, out.dtype).view(whole)[:, 0]


@lru_cache(maxsize=None)
def slot_book(n: int, ax: Alphabet, ay: Alphabet) -> SlotBook:
    """The `SlotBook` of blocks of n letters over ax x ay, one per process:
    the FV code, every FF rate and `get_coding_table` read it.  Its
    `cache_clear` drops every book, and `get_coding_table`'s windows with them."""
    return SlotBook(n, ax.size, ay.size)


slot_book.cache_clear = lambda books=slot_book.cache_clear, windows=get_coding_table.cache_clear: books() or windows()
