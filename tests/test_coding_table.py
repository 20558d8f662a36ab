"""Coding-table construction: bipartite graphs and optimal edge coloring."""

import io

import numpy as np
import pytest

from compdeliv.coding_table import (
    BipartiteTypeGraph,
    PairTypeMismatchError,
    SideInfoMismatchError,
    SymbolNotFoundError,
    TableBudgetError,
    build_graph,
    decode_side,
    edge_color,
    get_coding_table,
    lookup_symbol,
)
from compdeliv.ff_codec import bit_width
from compdeliv.types_core import (
    BINARY,
    JointType,
    enumerate_joint_types,
    joint_type_of,
    rank_in_type_class,
    type_class_size,
    unrank_in_type_class,
    v_shell_size,
    w_shell_size,
)
from conftest import all_binary_pairs, assert_proper_coloring as assert_proper


def cells(table):
    """(row, col, symbol) of every edge, in edge order."""
    return [(i, j, table.symbol_at(i, j)) for i, j in table.graph.edges]


class TestBuildGraph:
    def test_deterministic_coupling_is_matching(self):
        g = build_graph(JointType(((2, 0), (0, 2)), 4))
        assert g.left_degree == 1 and g.right_degree == 1
        assert len(g.edges) == g.left_size

    def test_balanced_type_shape(self):
        g = build_graph(JointType(((1, 1), (1, 1)), 4))
        assert g.left_size == 6 and g.right_size == 6
        assert g.left_degree == 4  # per-row multinomials 2 * 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_edges_are_exactly_the_type_class(self, n):
        pairs_by_type = {}
        for x, y in all_binary_pairs(n):
            jt = joint_type_of(x, y)
            pairs_by_type.setdefault(jt, set()).add(
                (rank_in_type_class(x), rank_in_type_class(y))
            )
        for jt, expected in pairs_by_type.items():
            g = build_graph(jt)
            assert list(g.edges) == sorted(expected)
            assert g.left_size == type_class_size(jt.x_marginal())
            assert g.right_size == type_class_size(jt.y_marginal())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_regularity(self, n):
        for jt in enumerate_joint_types(n, BINARY, BINARY):
            g = build_graph(jt)
            left = {}
            right = {}
            for i, j in g.edges:
                left[i] = left.get(i, 0) + 1
                right[j] = right.get(j, 0) + 1
            assert set(left.values()) == {v_shell_size(jt)}
            assert set(right.values()) == {w_shell_size(jt)}

    def test_budget_error_names_the_type(self):
        jt = JointType(((8, 8), (8, 8)), 32)
        with pytest.raises(TableBudgetError, match="n=32"):
            build_graph(jt, cell_budget=100)

    def test_budget_bounds_allocated_slots_not_cells(self):
        # one row of degree 3 against three columns of degree 1: 3 cells,
        # but (1 + 3) rows and columns x 3 symbols = 12 lookup slots
        jt = JointType(((2, 1), (0, 0)), 3)
        with pytest.raises(TableBudgetError, match=r"12 table slots .* MB"):
            build_graph(jt, cell_budget=11)
        assert len(build_graph(jt, cell_budget=12).edges) == 3


# Types whose sequence codes k^n overflow 64 bits: binary n=64 and a 3x2
# alphabet at n=40 (3^40 > 2^63).
LARGE_N_TYPES = [
    JointType(((63, 1), (0, 0)), 64),
    JointType(((64, 0), (0, 0)), 64),
    JointType(((62, 1), (1, 0)), 64),
    JointType(((37, 1), (1, 0), (0, 1)), 40),
]


@pytest.mark.parametrize("jt", LARGE_N_TYPES, ids=lambda jt: f"n={jt.n} {jt.counts}")
def test_large_block_length_tables(jt):
    g = build_graph(jt)
    assert g.left_size == type_class_size(jt.x_marginal())
    assert g.right_size == type_class_size(jt.y_marginal())
    left, right = {}, {}
    for i, j in g.edges:
        x = unrank_in_type_class(jt.x_marginal(), i)
        y = unrank_in_type_class(jt.y_marginal(), j)
        assert joint_type_of(x, y) == jt
        left[i] = left.get(i, 0) + 1
        right[j] = right.get(j, 0) + 1
    assert len(set(g.edges)) == len(g.edges)
    assert len(left) == g.left_size and set(left.values()) == {v_shell_size(jt)}
    assert len(right) == g.right_size and set(right.values()) == {w_shell_size(jt)}
    table = edge_color(g)
    assert table.num_symbols == max(v_shell_size(jt), w_shell_size(jt))
    assert_proper(table)


def test_alphabet_above_256_letters():
    # y letters 0, 1 and 256 of 300: 256 needs a second byte, and as a
    # little-endian word it would sort below 1
    row = [0] * 300
    row[0] = row[1] = row[256] = 1
    jt = JointType((tuple(row),), 3)
    g = build_graph(jt)
    assert g.left_size == 1 and g.right_size == 6 == len(g.edges)
    for i, j in g.edges:
        y = unrank_in_type_class(jt.y_marginal(), j)
        assert joint_type_of(unrank_in_type_class(jt.x_marginal(), i), y) == jt
    assert [unrank_in_type_class(jt.y_marginal(), j).letters for _, j in g.edges] == [
        (0, 1, 256), (0, 256, 1), (1, 0, 256), (1, 256, 0), (256, 0, 1), (256, 1, 0)
    ]
    assert_proper(edge_color(g))


class TestEdgeColor:
    def test_perfect_matching_one_color(self):
        table = edge_color(build_graph(JointType(((2, 0), (0, 2)), 4)))
        assert table.num_symbols == 1
        assert {s for _, _, s in cells(table)} == {0}

    def test_complete_bipartite_k33(self):
        # not a type class; exercises the coloring algorithm directly
        placeholder = JointType(((3, 0), (0, 0)), 3)
        edges = tuple((i, j) for i in range(3) for j in range(3))
        g = BipartiteTypeGraph(placeholder, 3, 3, 3, 3, edges)
        table = edge_color(g)
        assert table.num_symbols == 3
        assert_proper(table)
        # Latin square: every row and column uses all three symbols
        for i in range(3):
            assert {table.symbol_at(i, j) for j in range(3)} == {0, 1, 2}
            assert {table.symbol_at(j, i) for j in range(3)} == {0, 1, 2}
            assert {table.col_for(i, s) for s in range(3)} == {0, 1, 2}
            assert {table.row_for(i, s) for s in range(3)} == {0, 1, 2}

    def test_five_by_five_three_regular(self):
        # circulant 3-regular bipartite graph on 5+5 nodes
        placeholder = JointType(((5, 0), (0, 0)), 5)
        edges = tuple(
            sorted((i, (i + d) % 5) for i in range(5) for d in range(3))
        )
        table = edge_color(BipartiteTypeGraph(placeholder, 5, 5, 3, 3, edges))
        assert table.num_symbols == 3
        assert_proper(table)

    def test_edges_beyond_the_declared_degree_rejected(self):
        placeholder = JointType(((2, 0), (0, 0)), 2)
        edges = ((0, 0), (0, 1), (1, 0))  # row 0 and column 0 have degree 2
        with pytest.raises(ValueError, match="maximum degree 1"):
            edge_color(BipartiteTypeGraph(placeholder, 2, 2, 1, 1, edges))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_types_proper_and_optimal(self, n):
        for jt in enumerate_joint_types(n, BINARY, BINARY):
            table = edge_color(build_graph(jt))
            assert table.num_symbols == max(v_shell_size(jt), w_shell_size(jt))
            assert_proper(table)

    def test_deterministic_rebuild(self):
        jt = JointType(((2, 1), (1, 2)), 6)
        a = edge_color(build_graph(jt))
        b = edge_color(build_graph(jt))
        assert cells(a) == cells(b)

    def test_cache_returns_same_table(self):
        jt = JointType(((1, 1), (1, 1)), 4)
        assert get_coding_table(jt) is get_coding_table(jt)


class TestLookups:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trips(self, n):
        for x, y in all_binary_pairs(n):
            t = get_coding_table(joint_type_of(x, y))
            s = lookup_symbol(t, x, y)
            assert s < t.num_symbols
            assert t.row_for(rank_in_type_class(y), s) == rank_in_type_class(x)
            assert t.col_for(rank_in_type_class(x), s) == rank_in_type_class(y)
            assert decode_side(t, y, s, "x") == x
            assert decode_side(t, x, s, "y") == y

    def test_pair_of_wrong_type_rejected(self):
        from compdeliv.types_core import seq

        t = get_coding_table(JointType(((1, 1), (1, 1)), 4))
        with pytest.raises(PairTypeMismatchError):
            lookup_symbol(t, seq("0000"), seq("0101"))
        unmarked = next(c for c in range(t.graph.right_size) if (0, c) not in set(t.graph.edges))
        (first_row, first_col), *_ = t.graph.edges
        with pytest.raises(PairTypeMismatchError):  # one bad element fails the batch
            t.symbols_at(np.array([first_row, 0]), np.array([first_col, unmarked]))

    def test_absent_symbol_signals_desync(self):
        from compdeliv.types_core import seq

        t = get_coding_table(JointType(((2, 0), (0, 2)), 4))
        with pytest.raises(SymbolNotFoundError):
            decode_side(t, seq("0011"), 5, "x")

    # Lookups index flat buffers: a symbol outside [0, num_symbols) must
    # not read a neighbouring row's or column's slot, nor run off the end.
    # Delta = 3 on 4 rows and 4 columns, so a 2-bit symbol field can carry
    # the invalid 3.
    @pytest.mark.parametrize("symbol", [-1, 3, 2 ** 40])
    def test_out_of_range_symbol_signals_desync(self, symbol):
        t = get_coding_table(JointType(((2, 1), (1, 0)), 4))
        assert t.graph.left_size == t.graph.right_size == 4
        assert t.num_symbols == 3 < 2 ** bit_width(t.num_symbols)
        for col in (0, t.graph.right_size - 1):
            with pytest.raises(SymbolNotFoundError):
                t.row_for(col, symbol)
            with pytest.raises(SymbolNotFoundError):
                t.rows_for(np.array([0, col]), np.array([0, symbol]))
        for row in (0, t.graph.left_size - 1):
            with pytest.raises(SymbolNotFoundError):
                t.col_for(row, symbol)
            with pytest.raises(SymbolNotFoundError):
                t.cols_for(np.array([0, row]), np.array([0, symbol]))

    def test_holes_signal_desync_and_lookups_return_ints(self):
        t = get_coding_table(JointType(((2, 1), (0, 0)), 3))
        for col in range(t.graph.right_size):
            found = []
            for s in range(t.num_symbols):
                try:
                    found.append(t.row_for(col, s))
                except SymbolNotFoundError:
                    continue
            assert found == [0]  # column degree 1: the other two slots are holes
            assert type(found[0]) is int
            holes = [s for s in range(t.num_symbols) if s != t.symbol_at(0, col)]
            with pytest.raises(SymbolNotFoundError):
                t.rows_for(np.array([col]), np.array(holes[:1]))
        for i, j in t.graph.edges:
            s = t.symbol_at(i, j)
            assert type(s) is int
            assert type(t.col_for(i, s)) is int and type(t.row_for(j, s)) is int

    def test_side_info_of_wrong_type_rejected(self):
        from compdeliv.types_core import seq

        t = get_coding_table(JointType(((2, 0), (0, 2)), 4))
        with pytest.raises(SideInfoMismatchError):
            decode_side(t, seq("0001"), 0, "y")
        with pytest.raises(ValueError):
            decode_side(t, seq("0011"), 0, "z")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_vector_lookups_match_scalar(self, n):
        for jt in enumerate_joint_types(n, BINARY, BINARY):
            t = get_coding_table(jt)
            rows, cols = np.array(list(t.graph.edges)).T
            syms = t.symbols_at(rows, cols)
            assert syms.tolist() == [t.symbol_at(i, j) for i, j in t.graph.edges]
            assert (t.rows_for(cols, syms) == rows).all()
            assert (t.cols_for(rows, syms) == cols).all()


class TestDump:
    def test_csv_shape_and_properness(self):
        t = get_coding_table(JointType(((1, 1), (1, 1)), 4))
        buf = io.StringIO()
        t.dump_csv(buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()]
        assert len(rows) == 6
        assert all(len(r) == 6 for r in rows)
        filled = sum(1 for r in rows for c in r if c)
        assert filled == 24  # 6 rows x degree 4
        for r in rows:
            syms = [c for c in r if c]
            assert len(syms) == len(set(syms))
