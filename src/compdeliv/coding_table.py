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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .types_core import (
    JointType,
    Sequence,
    joint_type_of,
    multiset_permutations,
    multiset_ranker,
    rank_in_type_class,
    type_class_size,
    type_of,
    unrank_in_type_class,
    v_shell_size,
    w_shell_size,
)

# Largest table, in marked cells, built without an explicit override.
DEFAULT_CELL_BUDGET = 2 ** 26


class TableBudgetError(ResourceWarning, ValueError):
    """Joint type's table exceeds the configured cell budget."""


class SymbolNotFoundError(ValueError):
    """No cell with the requested symbol in that row/column: desync or corruption."""


class PairTypeMismatchError(ValueError):
    """Sequence pair does not belong to this table's joint type."""


class SideInfoMismatchError(ValueError):
    """Side information inconsistent with the codeword's joint type."""


@dataclass(frozen=True)
class BipartiteTypeGraph:
    """Bipartite graph of one joint type class: left = rows, right = columns."""

    jt: JointType
    left_size: int
    right_size: int
    left_degree: int
    right_degree: int
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.jt.n


def build_graph(jt: JointType, cell_budget: int = DEFAULT_CELL_BUDGET) -> BipartiteTypeGraph:
    """Materialize the type class as rank-indexed edges, lex sorted."""
    left_size = type_class_size(jt.x_marginal())
    right_size = type_class_size(jt.y_marginal())
    left_degree = v_shell_size(jt)
    right_degree = w_shell_size(jt)
    if left_size * left_degree > cell_budget:
        raise TableBudgetError(
            f"joint type {jt.counts} at n={jt.n} needs "
            f"{left_size * left_degree} cells (> budget {cell_budget})"
        )
    edges = _enumerate_edges(jt)
    edges.sort()
    return BipartiteTypeGraph(jt, left_size, right_size, left_degree, right_degree, tuple(edges))


def _enumerate_edges(jt: JointType) -> list[tuple[int, int]]:
    """All (row rank, column rank) pairs of the type class.

    For each x in lex order, its shell members are the interleavings of
    one arrangement per row of the joint counts, placed at the positions
    where x takes the corresponding letter.
    """
    n = jt.n
    row_perms = [tuple(multiset_permutations(list(jt.counts[a]))) for a in range(jt.num_x)]
    rank_y = multiset_ranker(jt.y_marginal().counts)
    edges = []
    for i, x_letters in enumerate(multiset_permutations(list(jt.x_marginal().counts))):
        positions = [[t for t, c in enumerate(x_letters) if c == a] for a in range(jt.num_x)]
        for combo in itertools.product(*row_perms):
            y = [0] * n
            for a in range(jt.num_x):
                for t, letter in zip(positions[a], combo[a]):
                    y[t] = letter
            edges.append((i, rank_y(tuple(y))))
    return edges


@dataclass(frozen=True)
class CodingTable:
    """Edge-colored table with O(1) forward and inverse lookups."""

    graph: BipartiteTypeGraph
    num_symbols: int
    color_of: dict  # (row rank, col rank) -> symbol
    rows_by_col: dict  # col rank -> {symbol: row rank}
    cols_by_row: dict  # row rank -> {symbol: col rank}

    @property
    def jt(self) -> JointType:
        return self.graph.jt

    def symbol_at(self, row: int, col: int) -> int:
        return self.color_of[(row, col)]

    def row_for(self, col: int, symbol: int) -> int:
        try:
            return self.rows_by_col[col][symbol]
        except KeyError:
            raise SymbolNotFoundError(
                f"symbol {symbol} absent in column {col}"
            ) from None

    def col_for(self, row: int, symbol: int) -> int:
        try:
            return self.cols_by_row[row][symbol]
        except KeyError:
            raise SymbolNotFoundError(f"symbol {symbol} absent in row {row}") from None

    def dump_csv(self, stream) -> None:
        """Debug dump: rows x columns grid of symbols, blank for unmarked cells."""
        for i in range(self.graph.left_size):
            row_syms = self.cols_by_row.get(i, {})
            by_col = {col: sym for sym, col in row_syms.items()}
            cells = [
                str(by_col[j]) if j in by_col else ""
                for j in range(self.graph.right_size)
            ]
            stream.write(",".join(cells) + "\n")


def edge_color(g: BipartiteTypeGraph) -> CodingTable:
    """Properly color the edges with exactly max-degree symbols.

    Incremental assignment with alternating-path recoloring: when the two
    endpoints of a fresh edge have no common free color, swap the two
    candidate colors along the alternating chain starting at the right
    endpoint, which frees the left endpoint's candidate on both sides.
    """
    delta = max(g.left_degree, g.right_degree)
    left_used: dict[int, dict[int, int]] = {}   # row -> {color: col}
    right_used: dict[int, dict[int, int]] = {}  # col -> {color: row}
    color_of: dict[tuple[int, int], int] = {}

    def first_free(used: dict[int, int]) -> int:
        for c in range(delta):
            if c not in used:
                return c
        raise AssertionError("node already at maximum degree")  # internal defect

    for (i, j) in g.edges:
        lu = left_used.setdefault(i, {})
        ru = right_used.setdefault(j, {})
        common = next((c for c in range(delta) if c not in lu and c not in ru), None)
        if common is None:
            a = first_free(lu)
            b = first_free(ru)
            _flip_chain(g, left_used, right_used, color_of, start_col=j, a=a, b=b)
            common = a
        color_of[(i, j)] = common
        lu[common] = j
        ru[common] = i

    return CodingTable(
        graph=g,
        num_symbols=delta,
        color_of=color_of,
        rows_by_col=right_used,
        cols_by_row=left_used,
    )


def _flip_chain(g, left_used, right_used, color_of, start_col: int, a: int, b: int):
    """Swap colors a and b along the alternating chain starting at start_col.

    start_col misses b and carries a; the chain alternates a (into rows)
    and b (into columns) and, being simple and unable to reach the left
    endpoint of the conflicted edge, the swap leaves a free at start_col.
    """
    path = []
    col = start_col
    while True:
        row = right_used[col].get(a)
        if row is None:
            break
        path.append((row, col, a))
        nxt = left_used[row].get(b)
        if nxt is None:
            break
        path.append((row, nxt, b))
        col = nxt
    for row, col, old in path:
        del left_used[row][old]
        del right_used[col][old]
    for row, col, old in path:
        new = b if old == a else a
        color_of[(row, col)] = new
        left_used[row][new] = col
        right_used[col][new] = row


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
