"""Coding-table construction: bipartite graphs and optimal edge coloring."""

import io

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
from compdeliv.types_core import (
    BINARY,
    JointType,
    enumerate_joint_types,
    joint_type_of,
    rank_in_type_class,
    type_class_size,
    v_shell_size,
    w_shell_size,
)
from conftest import all_binary_pairs


def assert_proper(table):
    """No symbol repeats within any row or any column."""
    seen_row = {}
    seen_col = {}
    for (i, j), c in table.color_of.items():
        assert c < table.num_symbols
        assert (i, c) not in seen_row, f"color {c} repeats in row {i}"
        assert (j, c) not in seen_col, f"color {c} repeats in column {j}"
        seen_row[(i, c)] = j
        seen_col[(j, c)] = i


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
            assert set(g.edges) == expected
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


class TestEdgeColor:
    def test_perfect_matching_one_color(self):
        table = edge_color(build_graph(JointType(((2, 0), (0, 2)), 4)))
        assert table.num_symbols == 1
        assert set(table.color_of.values()) == {0}

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
            assert set(table.cols_by_row[i]) == {0, 1, 2}
            assert set(table.rows_by_col[i]) == {0, 1, 2}

    def test_five_by_five_three_regular(self):
        # circulant 3-regular bipartite graph on 5+5 nodes
        placeholder = JointType(((5, 0), (0, 0)), 5)
        edges = tuple(
            sorted((i, (i + d) % 5) for i in range(5) for d in range(3))
        )
        table = edge_color(BipartiteTypeGraph(placeholder, 5, 5, 3, 3, edges))
        assert table.num_symbols == 3
        assert_proper(table)

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
        assert a.color_of == b.color_of

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

    def test_absent_symbol_signals_desync(self):
        from compdeliv.types_core import seq

        t = get_coding_table(JointType(((2, 0), (0, 2)), 4))
        with pytest.raises(SymbolNotFoundError):
            decode_side(t, seq("0011"), 5, "x")

    def test_side_info_of_wrong_type_rejected(self):
        from compdeliv.types_core import seq

        t = get_coding_table(JointType(((2, 0), (0, 2)), 4))
        with pytest.raises(SideInfoMismatchError):
            decode_side(t, seq("0001"), 0, "y")
        with pytest.raises(ValueError):
            decode_side(t, seq("0011"), 0, "z")


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
