"""Coding-table construction: bipartite graphs and optimal edge coloring."""

import dataclasses
import io
from array import array

import numpy as np
import pytest

from compdeliv import coding_table
from compdeliv.coding_table import (
    BipartiteTypeGraph,
    CodingTable,
    PairTypeMismatchError,
    SideInfoMismatchError,
    SymbolNotFoundError,
    TableBudgetError,
    build_graph,
    decode_side,
    edge_color,
    get_coding_table,
    slot_book,
)
from compdeliv.ff_codec import FFCodeConfig, bit_width, ff_decode_batch, ff_encode_batch
from compdeliv.fv_codec import fv_decode_batch, fv_encode_batch, make_fv_code
from compdeliv.types_core import (
    _class_letters,
    BINARY,
    Alphabet,
    JointType,
    RankRangeError,
    enumerate_joint_types,
    joint_type_of,
    rank_in_type_class,
    type_class_size,
    unrank_in_type_class,
    v_shell_size,
    w_shell_size,
)
from conftest import all_binary_pairs, assert_proper_coloring as assert_proper, seq


def batch_symbols(jt: JointType, rows, cols) -> np.ndarray:
    """The batch encoder's symbols (`SlotBook.encode`) of the blocks of
    ranks rows[i] and cols[i] in jt's marginal classes, every pair given
    jt's type index, whatever its own joint type."""
    x, y = _class_letters(jt.x_marginal().counts)[rows], _class_letters(jt.y_marginal().counts)[cols]
    book = slot_book(jt.n, Alphabet(jt.num_x), Alphabet(jt.num_y))
    return book.encode(x, y, np.full(len(x), jt.index))


@pytest.fixture
def set_narrow_class(monkeypatch):
    """Set `coding_table._NARROW_CLASS` for one test, emptying what reads it
    (`_slot_code`, and the slot books with their windows) at each change
    and after the test."""
    def clear():
        coding_table._slot_code.cache_clear()
        slot_book.cache_clear()

    def set_to(limit):
        monkeypatch.setattr(coding_table, "_NARROW_CLASS", limit)
        clear()

    yield set_to
    monkeypatch.undo()
    clear()


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

    def test_budget_error_names_the_type(self, monkeypatch):
        jt = JointType(((8, 8), (8, 8)), 32)
        monkeypatch.setattr(coding_table, "DEFAULT_BUILD_BYTES", 100)
        with pytest.raises(TableBudgetError, match="n=32"):
            build_graph(jt)

    def test_budget_bounds_allocated_slots_not_cells(self, monkeypatch):
        # one row of degree 3 against three columns of degree 1: 3 cells,
        # but (1 + 3) rows and columns x 3 symbols = 12 slots of 8 B listed
        # while colored, and stored in 2 B items: the row's 3 slots, and a
        # symbol and an end per column, by edge (2 items where 3 slots
        # would be): 96 + 18 = 114 B
        jt = JointType(((2, 1), (0, 0)), 3)
        assert coding_table.table_bytes(jt) == (18, 96)
        monkeypatch.setattr(coding_table, "DEFAULT_BUILD_BYTES", 113)
        with pytest.raises(TableBudgetError, match=r"needs 114 B for 3 cells, .* MB"):
            build_graph(jt)
        monkeypatch.setattr(coding_table, "DEFAULT_BUILD_BYTES", 114)
        assert len(build_graph(jt).edges) == 3


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

    def test_k33_in_column_major_order_revisits_rows(self):
        # the row changes on every edge, so each row's colors are picked up again
        placeholder = JointType(((3, 0), (0, 0)), 3)
        edges = tuple((i, j) for j in range(3) for i in range(3))
        table = edge_color(BipartiteTypeGraph(placeholder, 3, 3, 3, 3, edges))
        assert table.num_symbols == 3
        assert {s for _, _, s in cells(table)} == {0, 1, 2}
        assert_proper(table)

    def test_shuffled_five_by_five_circulant(self):
        placeholder = JointType(((5, 0), (0, 0)), 5)
        edges = [(i, (i + d) % 5) for i in range(5) for d in range(3)]
        np.random.default_rng(7).shuffle(edges)
        table = edge_color(BipartiteTypeGraph(placeholder, 5, 5, 3, 3, tuple(edges)))
        assert table.num_symbols == 3
        assert {s for _, _, s in cells(table)} == {0, 1, 2}
        assert_proper(table)

    def test_edges_beyond_the_declared_degree_rejected(self):
        placeholder = JointType(((2, 0), (0, 0)), 2)
        edges = ((0, 0), (0, 1), (1, 0))  # row 0 and column 0 have degree 2
        with pytest.raises(ValueError, match=r"edge \(0, 1\) exceeds the maximum degree 1"):
            edge_color(BipartiteTypeGraph(placeholder, 2, 2, 1, 1, edges))

    def test_a_column_beyond_its_degree_rejected(self):
        # rows of degree 1 always have a free color; column 0's third edge has none
        placeholder = JointType(((3, 0), (0, 0)), 3)
        edges = ((0, 0), (1, 0), (2, 0))
        with pytest.raises(ValueError, match=r"edge \(2, 0\) exceeds the maximum degree 2"):
            edge_color(BipartiteTypeGraph(placeholder, 3, 2, 1, 2, edges))

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
            s = t.symbol_at(rank_in_type_class(x), rank_in_type_class(y))
            assert s < t.num_symbols
            assert t.row_for(rank_in_type_class(y), s) == rank_in_type_class(x)
            assert t.col_for(rank_in_type_class(x), s) == rank_in_type_class(y)
            assert decode_side(t.jt, y, s, "x") == x
            assert decode_side(t.jt, x, s, "y") == y

    def test_pair_of_wrong_type_rejected(self):
        t = get_coding_table(JointType(((1, 1), (1, 1)), 4))
        x, y = seq("0011"), seq("0011")  # joint type ((2, 0), (0, 2)), not the table's
        with pytest.raises(PairTypeMismatchError):
            t.symbol_at(rank_in_type_class(x), rank_in_type_class(y))
        unmarked = next(c for c in range(t.graph.right_size) if (0, c) not in set(t.graph.edges))
        (first_row, first_col), *_ = t.graph.edges
        with pytest.raises(PairTypeMismatchError) as caught:  # one bad element fails the batch
            batch_symbols(t.jt, np.array([first_row, 0]), np.array([first_col, unmarked]))
        assert caught.value.row == 1

    def test_absent_symbol_signals_desync(self):
        with pytest.raises(SymbolNotFoundError):  # a type of one symbol
            decode_side(JointType(((2, 0), (0, 2)), 4), seq("0011"), 5, "x")
        with pytest.raises(SymbolNotFoundError):
            decode_side(JointType(((1, 1), (1, 1)), 4), seq("0011"), 5, "x")

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
        for row in (0, t.graph.left_size - 1):
            with pytest.raises(SymbolNotFoundError):
                t.col_for(row, symbol)
        code = make_fv_code(4)  # the batch decoder reads the same slots
        words = np.array([0, t.jt.index]), np.array([0, symbol])
        for side in ("x", "y"):  # both marginals are (3, 1)
            with pytest.raises(SymbolNotFoundError) as caught:
                fv_decode_batch(code, words, np.array([[1, 1, 1, 1], [0, 0, 0, 1]]), side)
            assert caught.value.row == 1

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
        for i, j in t.graph.edges:
            s = t.symbol_at(i, j)
            assert type(s) is int
            assert type(t.col_for(i, s)) is int and type(t.row_for(j, s)) is int

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_table_rank_outside_its_class_raises(self, side):
        # A slot holding a rank past the reproduced class (a corrupted
        # table) is refused, not read past the class's end.
        jt = JointType(((1, 1), (1, 1)), 4)
        x, y = seq("0011"), seq("0101")
        t = get_coding_table(jt)
        symbol = t.symbol_at(rank_in_type_class(x), rank_in_type_class(y))
        held, (base, width, edges) = (y, t.row_side) if side == "x" else (x, t.col_side)
        assert edges == 0 and width == t.num_symbols  # both sides dense
        slot, buffer = base + rank_in_type_class(held) * width + symbol, t.slots
        saved, buffer[slot] = buffer[slot], 6
        try:
            with pytest.raises(RankRangeError, match="rank 6 outside type class of size 6"):
                decode_side(jt, held, symbol, side)
        finally:
            buffer[slot] = saved
        assert decode_side(jt, held, symbol, side) == (x if side == "x" else y)

    def test_side_info_of_wrong_type_rejected(self):
        for counts in (((2, 0), (0, 2)), ((1, 1), (1, 1))):  # one symbol, then a table
            jt = JointType(counts, 4)
            with pytest.raises(SideInfoMismatchError):
                decode_side(jt, seq("0001"), 0, "y")
            with pytest.raises(ValueError):
                decode_side(jt, seq("0011"), 0, "z")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_vector_lookups_match_scalar(self, n):
        for jt in enumerate_joint_types(n, BINARY, BINARY):
            t = get_coding_table(jt)
            rows, cols = np.array(list(t.graph.edges)).T
            syms = batch_symbols(jt, rows, cols)
            assert syms.tolist() == [t.symbol_at(i, j) for i, j in t.graph.edges]


class TestSlotBuffers:
    """A table is its two slot buffers: a cell's symbol is its slot in its row."""

    @pytest.mark.parametrize(
        "n, kx, ky", [(n, 2, 2) for n in range(1, 9)] + [(n, 3, 2) for n in range(1, 6)]
    )
    def test_lookups_agree_with_the_slots_on_every_cell(self, n, kx, ky):
        for jt in enumerate_joint_types(n, Alphabet(kx), Alphabet(ky)):
            t = get_coding_table(jt)
            delta = t.num_symbols
            rows, cols = np.array(list(t.graph.edges)).reshape(-1, 2).T
            syms = [t.symbol_at(i, j) for i, j in t.graph.edges]
            assert batch_symbols(jt, rows, cols).tolist() == syms
            for i, j, s in zip(rows.tolist(), cols.tolist(), syms):
                assert t.col_of[i * delta + s] == j and t.row_of[j * delta + s] == i
                assert t.row_for(j, s) == i and t.col_for(i, s) == j
            assert sum(c >= 0 for c in t.col_of) == sum(r >= 0 for r in t.row_of) == len(t.graph.edges)

    @pytest.mark.parametrize("slice_slots", [1, 50, 1000])
    def test_sliced_batch_matches_scalar(self, monkeypatch, slice_slots):
        t = get_coding_table(JointType(((2, 2), (2, 2)), 8))
        monkeypatch.setattr(coding_table, "_SLICE_SLOTS", slice_slots)
        rows, cols = np.array(list(t.graph.edges)).T
        order = np.random.default_rng(5).permutation(len(rows))
        rows, cols = rows[order], cols[order]
        step = max(1, slice_slots // t.num_symbols)
        assert len(rows) > 3 * step  # the batch spans several slices
        syms = batch_symbols(t.jt, rows, cols)
        assert syms.tolist() == [t.symbol_at(i, j) for i, j in zip(rows.tolist(), cols.tolist())]
        bad, delta = len(rows) - 2, t.num_symbols  # a cell in the last slice
        marked = set(t.col_of[rows[bad] * delta:(rows[bad] + 1) * delta])
        cols[bad] = unmarked = next(c for c in range(t.graph.right_size) if c not in marked)
        with pytest.raises(PairTypeMismatchError, match=f"row {rows[bad]}, column {unmarked}") as info:
            batch_symbols(t.jt, rows, cols)
        assert info.value.row == bad

    @pytest.mark.parametrize("narrow_class, itemsize", [(2 ** 15, 2), (1, 4)])
    def test_buffers_take_their_item_size_per_slot(self, set_narrow_class, narrow_class, itemsize):
        # Classes of binary n=6 have at most 20 members: 16-bit slots,
        # unless the narrow limit is below them.  A side stored by edge
        # holds a symbol and an end per cell: `table_bytes` in all.
        set_narrow_class(narrow_class)
        fields = ["graph", "num_symbols", "slots", "col_side", "row_side"]
        assert [f.name for f in dataclasses.fields(CodingTable)] == fields
        edge_sides = 0
        for jt in enumerate_joint_types(6, BINARY, BINARY):
            g = build_graph(jt)
            t = edge_color(g)
            sides = [t.col_side, t.row_side]
            by_edge = [side for side in sides if side[2]]
            assert isinstance(t.slots, array) and t.col_side[0] == 0
            assert t.slots.itemsize == g.edges.cols.itemsize == itemsize
            cells, delta = len(g.edges), t.num_symbols
            spans = [t.row_side[0], len(t.slots) - t.row_side[0]]
            for (_, width, edges), span, size, degree in zip(sides, spans, (g.left_size, g.right_size), (g.left_degree, g.right_degree)):
                # dense: Δ slots per vertex; by edge: an end and a symbol per cell
                assert (width, edges, span) in ((delta, 0, size * delta), (degree, cells, 2 * cells))
            total = t.slots.itemsize * len(t.slots)
            dense = itemsize * (g.left_size + g.right_size) * t.num_symbols
            assert total == (coding_table.table_bytes(jt)[0] if t.num_symbols > 1 else dense)
            edge_sides += len(by_edge)
        assert edge_sides > 0

    def test_narrow_and_wide_slots_code_alike(self, set_narrow_class):
        # Binary n=8 classes have at most 70 members.  With the narrow limit
        # at 60 the slot book, and with it every table of its blocks, is
        # 32-bit, as at 1.  Every limit gives the same tables, words and
        # decodes.
        rng = np.random.default_rng(16)
        x = rng.integers(0, 2, size=(400, 8))
        y = x ^ (rng.random(x.shape) < 0.2)
        cfg, code = FFCodeConfig(8, 0.9), make_fv_code(8)

        def code_all(narrow_class):
            set_narrow_class(narrow_class)
            tables = [edge_color(build_graph(jt)) for jt in enumerate_joint_types(8, BINARY, BINARY)]
            out = [(list(t.col_of), list(t.row_of), list(t.graph.edges.cols)) for t in tables]
            ff_words, fv_words = ff_encode_batch(cfg, x, y), fv_encode_batch(code, x, y)
            out += [part.tolist() for part in (*ff_words, *fv_words)]
            for side, held in (("x", y), ("y", x)):
                out.append(ff_decode_batch(cfg, ff_words, held, side).tolist())
                out.append(fv_decode_batch(code, fv_words, held, side).tolist())
            return {t.col_of.typecode for t in tables}, slot_book(8, BINARY, BINARY)._slots.typecode, out

        narrow, mixed, wide = code_all(2 ** 15), code_all(60), code_all(1)
        assert narrow[:2] == ({"h"}, "h")
        assert mixed[:2] == ({"i"}, "i")
        assert wide[:2] == ({"i"}, "i")
        assert narrow[2] == mixed[2] == wide[2]

    def test_one_item_size_per_book(self, set_narrow_class):
        # With the narrow limit at 60 the binary n=8 book (classes of up to
        # 70 members) is 32-bit.  A table of smaller classes takes the
        # book's items too, built alone, as a window or as graph columns,
        # and codes as it does at the default limit.
        def tables(narrow_class):
            set_narrow_class(narrow_class)
            out = []
            for jt in small:
                alone, window, g = edge_color(build_graph(jt)), get_coding_table(jt), build_graph(jt)
                assert window.slots is slot_book(8, BINARY, BINARY)._slots
                codes = {alone.slots.typecode, window.slots.typecode, g.edges.cols.typecode}
                out.append((codes, [(cells(t), list(t.col_of), list(t.row_of)) for t in (alone, window)]))
            return out

        small = [jt for jt in enumerate_joint_types(8, BINARY, BINARY) if jt.num_symbols > 1
                 and max(type_class_size(jt.x_marginal()), type_class_size(jt.y_marginal())) < 60]
        assert any(2 * min(v_shell_size(jt), w_shell_size(jt)) < jt.num_symbols for jt in small)  # sides by edge too
        wide, narrow = tables(60), tables(2 ** 15)
        assert [codes for codes, _ in wide] == [{"i"}] * len(small)
        assert [codes for codes, _ in narrow] == [{"h"}] * len(small)
        assert [coded for _, coded in wide] == [coded for _, coded in narrow]
        assert all(alone == window for _, (alone, window) in wide)


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
        assert all(rows[i][j] == str(t.symbol_at(i, j)) for i, j in t.graph.edges)
