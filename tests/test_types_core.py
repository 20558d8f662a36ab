"""Types, joint types, shells, and enumerative rank/unrank."""

import itertools
import math

import numpy as np
import pytest

from compdeliv import types_core
from compdeliv.types_core import (
    _CODE_TABLE_LIMIT,
    _Classes,
    _COUNT_CODE_LIMIT,
    _RANK_MAP_LIMIT,
    _class_letters,
    _compositions,
    _multinomial_cached,
    _search_ranks,
    MAX_CLASS_SIZE,
    MAX_JOINT_TYPE_COUNTS,
    Alphabet,
    BINARY,
    ClassSizeError,
    code_table,
    JointType,
    LengthMismatchError,
    RankRangeError,
    Sequence,
    TypeVector,
    enumerate_joint_types,
    joint_type_index,
    joint_types_at,
    joint_type_count,
    joint_type_of,
    multinomial,
    rank_in_type_class,
    type_class_size,
    type_of,
    unrank_in_type_class,
    v_shell_size,
    w_shell_size,
)
from conftest import all_binary_pairs, all_binary_sequences, joint_type_groups, seq


class TestJointTypeOf:
    def test_constant_pair(self):
        jt = joint_type_of(seq("00"), seq("00"))
        assert jt.counts == ((2, 0), (0, 0))

    def test_opposite_pair(self):
        jt = joint_type_of(seq("01"), seq("10"))
        assert jt.counts[0][1] == 1
        assert jt.counts[1][0] == 1
        assert jt.counts[0][0] == 0 and jt.counts[1][1] == 0

    def test_balanced_pair(self):
        jt = joint_type_of(seq("0011"), seq("0101"))
        assert jt.counts == ((1, 1), (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            joint_type_of(seq("00"), seq("000"))

    def test_marginals(self):
        jt = joint_type_of(seq("0011"), seq("0111"))
        assert jt.x_marginal().counts == (2, 2)
        assert jt.y_marginal().counts == (1, 3)


class TestEnumeration:
    def test_n1_binary(self):
        assert len(enumerate_joint_types(1, BINARY, BINARY)) == 4

    def test_n2_binary(self):
        assert len(enumerate_joint_types(2, BINARY, BINARY)) == 10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_bound(self, n):
        # composition count is below (n+1)^|cells| for the product alphabet
        types = enumerate_joint_types(n, BINARY, BINARY)
        assert len(types) == math.comb(n + 3, 3)
        assert len(types) <= (n + 1) ** 4

    def test_lexicographic_order_and_uniqueness(self):
        types = enumerate_joint_types(3, BINARY, BINARY)
        flats = [jt.flat_counts() for jt in types]
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)

    @pytest.mark.parametrize("total, parts", [(0, 1), (3, 1), (0, 4), (5, 3), (4, 6), (7, 2)])
    def test_compositions_match_recursive_enumeration(self, total, parts):
        def recursive(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in recursive(total - first, parts - 1):
                    yield (first,) + rest

        assert list(_compositions(total, parts)) == list(recursive(total, parts))

    @pytest.mark.parametrize("n, kx, ky", [(1, 1, 1), (5, 1, 1), (4, 2, 2), (3, 3, 2), (2, 4, 3)])
    def test_joint_type_count_is_closed_form(self, n, kx, ky):
        assert joint_type_count(n, kx, ky) == len(enumerate_joint_types(n, Alphabet(kx), Alphabet(ky)))

    @pytest.mark.parametrize("n, kx, ky", [(8, 40, 2), (1, 256, 256), (115, 2, 2), (2 ** 16, 2, 3)])
    def test_oversize_enumeration_refused_before_it_starts(self, n, kx, ky):
        assert joint_type_count(n, kx, ky) * kx * ky > MAX_JOINT_TYPE_COUNTS
        with pytest.raises(ValueError, match="MAX_JOINT_TYPE_COUNTS"):
            enumerate_joint_types(n, Alphabet(kx), Alphabet(ky))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_pair_has_an_enumerated_type(self, n):
        index = {jt: i for i, jt in enumerate(enumerate_joint_types(n, BINARY, BINARY))}
        for x, y in all_binary_pairs(n):
            assert joint_type_of(x, y) in index


class TestSizes:
    def test_constant_class(self):
        assert type_class_size(TypeVector((2, 0), 2)) == 1

    def test_two_element_class(self):
        assert type_class_size(TypeVector((1, 1), 2)) == 2

    def test_choose_class(self):
        assert type_class_size(TypeVector((2, 2), 4)) == 6

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partition_property(self, n):
        # type classes partition the whole space of sequences
        total = sum(
            type_class_size(TypeVector((n - k, k), n)) for k in range(n + 1)
        )
        assert total == 2 ** n

    def test_v_shell_deterministic(self):
        assert v_shell_size(JointType(((2, 0), (0, 2)), 4)) == 1

    def test_v_shell_per_row(self):
        assert v_shell_size(JointType(((1, 1), (2, 0)), 4)) == 2

    def test_w_shell_per_column(self):
        assert w_shell_size(JointType(((1, 1), (2, 0)), 4)) == 3 * 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shell_sizes_by_enumeration(self, n):
        # closed form equals a direct count over all pairs
        for jt in enumerate_joint_types(n, BINARY, BINARY):
            x = unrank_in_type_class(jt.x_marginal(), 0)
            shell = [
                y for y in all_binary_sequences(n) if joint_type_of(x, y) == jt
            ]
            assert len(shell) == v_shell_size(jt)

    def test_multinomial_exact_big(self):
        # stays exact far beyond 64 bits
        assert multinomial((30, 30, 30, 30)) == math.factorial(120) // math.factorial(30) ** 4


class TestRankUnrank:
    def test_rank_two_element_class(self):
        assert rank_in_type_class(seq("01")) == 0
        assert rank_in_type_class(seq("10")) == 1

    def test_unrank_three_element_class(self):
        assert unrank_in_type_class(TypeVector((2, 1), 3), 2) == seq("100")

    def test_rank_out_of_range(self):
        with pytest.raises(RankRangeError):
            unrank_in_type_class(TypeVector((1, 1), 2), 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip_all_type_classes(self, n):
        for x in all_binary_sequences(n):
            r = rank_in_type_class(x)
            assert unrank_in_type_class(type_of(x), r) == x

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rank_is_lexicographic(self, n):
        by_type = {}
        for x in all_binary_sequences(n):
            by_type.setdefault(type_of(x), []).append(x)
        for q, members in by_type.items():
            # members arrive in lex order already
            assert [rank_in_type_class(x) for x in members] == list(range(len(members)))

    def test_ternary_alphabet(self):
        a3 = Alphabet(3)
        x = Sequence((2, 0, 1, 0), a3)
        assert unrank_in_type_class(type_of(x), rank_in_type_class(x)) == x

    def test_large_class_ranks_by_arithmetic(self):
        # C(20, 10) = 184756 arrangements: above the memoized-class limit,
        # so the scalar calls search the class.  Cover's rank of 0101...01
        # sums, over each 1 at position p, C(positions after p, ones left).
        first, last, x = seq("0" * 10 + "1" * 10), seq("1" * 10 + "0" * 10), seq("01" * 10)
        q = type_of(x)
        assert rank_in_type_class(first) == 0
        assert rank_in_type_class(last) == type_class_size(q) - 1
        expected = sum(math.comb(18 - 2 * i, 10 - i) for i in range(10))
        assert rank_in_type_class(x) == expected
        assert unrank_in_type_class(q, expected) == x

    def test_rank_maps_stay_within_their_bound(self):
        # 30 letters at n=2 make 465 classes, more than the memo keeps; a
        # class ranked again after its maps were dropped ranks the same.
        alphabet, maps = Alphabet(30), types_core._lex_maps
        blocks = [Sequence((a, b), alphabet) for a in range(30) for b in range(30)]
        maps.cache_clear()
        ranks = [rank_in_type_class(x) for x in blocks]
        info = maps.cache_info()
        assert info.misses > info.maxsize >= info.currsize
        assert ranks == [int(a > b) for a, b in (x.letters for x in blocks)]
        assert [rank_in_type_class(x) for x in blocks] == ranks
        assert all(unrank_in_type_class(type_of(x), r) == x for x, r in zip(blocks, ranks))
        assert maps.cache_info().currsize <= info.maxsize


class TestClassOrder:
    """`_class_letters`, the one definition of the order, against references."""

    @pytest.mark.parametrize(
        "counts", [(1,), (0, 3), (2, 2), (3, 1), (2, 1, 1), (0, 2, 3), (1, 1, 1, 1), (2, 0, 1, 2)]
    )
    def test_small_classes_list_the_sorted_permutations(self, counts):
        base = [letter for letter, c in enumerate(counts) for _ in range(c)]
        expected = sorted(set(itertools.permutations(base)))
        assert [tuple(r) for r in _class_letters(counts).tolist()] == expected

    @pytest.mark.parametrize("counts", [(10, 10), (5, 5, 4)])
    def test_ranks_increase_along_a_sorted_sample(self, counts):
        size = multinomial(counts)
        assert size > _RANK_MAP_LIMIT
        base = np.repeat(np.arange(len(counts)), counts)
        rng = np.random.default_rng(size)
        sample = {tuple(rng.permutation(base).tolist()) for _ in range(300)}
        sample |= {tuple(base.tolist()), tuple(base[::-1].tolist())}
        alphabet = Alphabet(len(counts))
        ranks = [rank_in_type_class(Sequence(s, alphabet)) for s in sorted(sample)]
        assert ranks[0] == 0 and ranks[-1] == size - 1
        assert all(a < b for a, b in zip(ranks, ranks[1:]))

    def test_oversize_class_refused_before_it_is_built(self):
        counts = (40, 40)  # about 1.1e23 members
        assert multinomial(counts) > MAX_CLASS_SIZE
        with pytest.raises(ClassSizeError):
            _class_letters(counts)
        with pytest.raises(ClassSizeError):
            rank_in_type_class(seq("01" * 40))

    def test_too_large_table_refused_by_its_budget_first(self):
        from compdeliv.coding_table import TableBudgetError, build_graph

        with pytest.raises(TableBudgetError):
            build_graph(JointType(((20, 20), (20, 20)), 80))


class TestRowRanks:
    """Array ranks against the per-sequence ones, both rank paths included."""

    @pytest.mark.parametrize(
        "counts", [(1,), (3, 1), (2, 2, 1), (3, 4, 5), (10, 10), (12, 8)]
    )
    def test_round_trip_against_scalar(self, counts):
        k, size = len(counts), multinomial(counts)
        rng = np.random.default_rng(sum(counts))
        base = np.repeat(np.arange(k, dtype=np.uint8), counts)
        rows = np.array([rng.permutation(base) for _ in range(200)])
        ranks = _search_ranks(rows, counts)
        alphabet = Alphabet(k)
        assert ranks.tolist() == [
            rank_in_type_class(Sequence(tuple(r), alphabet)) for r in rows.tolist()
        ]
        assert (_class_letters(counts)[ranks] == rows).all()
        ends = _class_letters(counts)[[0, size - 1]]
        q = TypeVector(counts, sum(counts))
        assert [tuple(r) for r in ends.tolist()] == [
            unrank_in_type_class(q, 0).letters, unrank_in_type_class(q, size - 1).letters
        ]

    def test_cases_cross_the_memoized_class_limit(self):
        assert multinomial((3, 4, 5)) <= _RANK_MAP_LIMIT < multinomial((10, 10))


def _type_rows(types, ky, rng):
    """One (x, y) block pair of each joint type, its pairs in a seeded order, as two arrays."""
    cells = np.array([np.repeat(np.arange(len(jt.flat_counts())), jt.flat_counts()) for jt in types])
    return np.divmod(rng.permuted(cells, axis=1), ky)


class TestCodeTable:
    """The code table of every block within its limit against the class search."""

    @pytest.mark.parametrize(
        "n, k", [(n, 2) for n in range(1, 13)] + [(n, 3) for n in range(1, 8)] + [(n, 4) for n in range(1, 6)] + [(2, 256)]
    )
    def test_every_member_of_every_class_agrees_with_the_search(self, n, k):
        table = code_table(n, k)
        assert table is not None and k ** n <= _CODE_TABLE_LIMIT
        # Each class once, in _compositions order: the sorted blocks, counted.
        runs, start = [], 0
        for first in reversed(list(itertools.combinations_with_replacement(range(k), n))):
            counts = [0] * k
            for letter in first:
                counts[letter] += 1
            size = math.factorial(n) // math.prod(map(math.factorial, counts))
            runs.append((tuple(counts), start, start + size))
            start += size
        assert [counts for counts, _, _ in runs[:50]] == list(itertools.islice(_compositions(n, k), 50))
        every, searched = [], []
        for counts, start, stop in runs:
            every.append(_class_letters(counts))
            searched.append(_search_ranks(every[-1], counts))
        # 32,896 classes of 256 letters at n=2: the multinomial memo keeps at most its bound.
        memo = _multinomial_cached.cache_info()
        assert memo.currsize <= memo.maxsize
        every, searched = np.concatenate(every), np.concatenate(searched)
        codes = every.astype(np.int64) @ table.powers
        assert sorted(codes.tolist()) == list(range(k ** n)) and len(table.rank) == k ** n
        # A class's key is the code of its letters sorted.
        first = np.array([np.repeat(np.arange(k), counts) for counts, _, _ in runs])
        keys = np.repeat(first @ table.powers, [stop - start for _, start, stop in runs])
        assert (table.rank[codes] == searched).all() and (table.key[codes] == keys).all()
        assert (table.unrank(keys, searched) == every).all()
        # A slot book's classes: every block ranked, checked and unranked, in a seeded order.
        classes = _Classes(n, k)
        cls = np.repeat(classes.ids_of([counts for counts, _, _ in runs]), [stop - start for _, start, stop in runs])
        assert (classes.keys[cls] == keys).all()
        order = np.random.default_rng(n * k).permutation(len(every))
        ranks, wrong = classes.rank(every[order], cls[order], np.ones(len(order), bool))
        assert not wrong.any()
        assert (ranks == searched[order]).all()
        assert (classes.unrank(cls[order], ranks) == every[order]).all()

    def test_limit(self):
        # The limit is 2^16 codes: past it there is no table.
        assert code_table(16, 2) is not None and code_table(1, 2 ** 16) is not None
        for n, k in ((17, 2), (11, 3), (3, 300), (3, 41), (2, 257)):
            assert k ** n > _CODE_TABLE_LIMIT and code_table(n, k) is None

    def test_rows_of_another_class_flagged_on_both_paths(self, monkeypatch):
        # Rows 0 and 1 should be of class (1, 2) and are ranked; rows 2 and
        # 3 should be of (2, 1) and are only checked.
        letters = np.array([[0, 1, 1], [0, 0, 1], [1, 1, 0], [1, 0, 0]], np.uint8)
        classes = _Classes(3, 2)
        cls = np.array(classes.ids_of([(1, 2), (1, 2), (2, 1), (2, 1)]))
        ranked = np.array([True, True, False, False])
        with_table = classes.rank(letters, cls, ranked)
        monkeypatch.setattr("compdeliv.types_core._CODE_TABLE_LIMIT", 0)
        code_table.cache_clear()
        try:
            searched = classes.rank(letters, cls, ranked)
        finally:
            monkeypatch.undo()
            code_table.cache_clear()
        for ranks, wrong in (with_table, searched):
            assert wrong.tolist() == [False, True, True, False] and ranks[0] == 0


class TestTypeIndex:
    SHAPES = [(8, 2, 2), (5, 3, 2), (4, 3, 3), (3, 4, 4), (1, 16, 16)]

    @pytest.mark.parametrize("n, kx, ky", SHAPES)
    def test_index_is_the_enumeration_position(self, n, kx, ky):
        types = enumerate_joint_types(n, Alphabet(kx), Alphabet(ky))
        x, y = _type_rows(types, ky, np.random.default_rng(n))
        assert joint_type_index(x, y, kx, ky).tolist() == list(range(len(types)))
        assert [jt.index for jt in types] == list(range(len(types)))  # recorded by the enumeration
        assert [JointType.index.func(jt) for jt in types] == list(range(len(types)))  # computed

    @pytest.mark.parametrize("n, kx, ky", SHAPES + [(1, 1, 1), (4, 1, 1), (2, 1, 3)])
    def test_inverse_round_trips(self, n, kx, ky):
        types = enumerate_joint_types(n, Alphabet(kx), Alphabet(ky))
        back = joint_types_at(np.arange(len(types))[::-1], n, kx, ky)
        assert all(got is jt for got, jt in zip(back, types[::-1]))
        for bad in (-1, len(types)):
            with pytest.raises(ValueError, match="type index outside"):
                joint_types_at([0, bad], n, kx, ky)

    @pytest.mark.parametrize("m, n, kx, ky", [(400, 8, 2, 2), (300, 6, 3, 2), (200, 12, 3, 3), (200, 8, 4, 4)])
    def test_grouping_matches_grouping_by_counts(self, m, n, kx, ky):
        # The reference groups rows by their count vectors, in lexicographic
        # order of the counts, as grouping by packed counts did.
        rng = np.random.default_rng(m + n)
        x = rng.integers(0, kx, (m, n))
        y = np.where(rng.random((m, n)) < 0.8, x % ky, rng.integers(0, ky, (m, n)))
        expected = {}
        for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
            counts = [0] * (kx * ky)
            for c in (u * ky + v for u, v in zip(a, b)):
                counts[c] += 1
            expected.setdefault(tuple(counts), []).append(i)
        groups = joint_type_groups(x, y, kx, ky)
        assert [jt.flat_counts() for jt, _ in groups] == sorted(expected)
        assert all(rows.tolist() == expected[jt.flat_counts()] for jt, rows in groups)

    @pytest.mark.parametrize("entry", [joint_type_groups, joint_type_index])
    def test_row_pairs_of_other_shapes_refused(self, entry):
        # A y of one row used to be broadcast against four rows of x.
        with pytest.raises(ValueError, match="one shape"):
            entry(np.zeros((4, 3), np.uint8), np.zeros((1, 3), np.uint8), 2, 2)
        with pytest.raises(ValueError, match="one shape"):
            entry(np.zeros((4, 3), np.uint8), np.zeros((4, 2), np.uint8), 2, 2)

    def test_letters_outside_either_alphabet_refused(self):
        # y = 2 over 2 letters would still make a pair letter below 2 x 2.
        with pytest.raises(ValueError, match="alphabet of size 2"):
            joint_type_index(np.zeros((1, 3), np.uint8), np.array([[0, 2, 0]]), 2, 2)

    @staticmethod
    def _sorted_index(monkeypatch, x, y, kx, ky):
        """`joint_type_index` through the sort of each block's pair letters,
        the only path past the count code's limit."""
        with monkeypatch.context() as patch:
            patch.setattr(types_core, "_COUNT_CODE_LIMIT", 0)
            return joint_type_index(x, y, kx, ky)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_count_code_gives_every_binary_type_its_index(self, monkeypatch, n):
        types = enumerate_joint_types(n, BINARY, BINARY)
        x, y = _type_rows(types, 2, np.random.default_rng(n))
        index = joint_type_index(x, y, 2, 2)
        assert index.dtype == np.int64 and index.tolist() == list(range(len(types)))
        assert self._sorted_index(monkeypatch, x, y, 2, 2).tolist() == index.tolist()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_count_code_matches_the_row_sort_on_3x2_batches(self, monkeypatch, n):
        rng = np.random.default_rng(60 + n)
        x, y = rng.integers(0, 3, (500, n), dtype=np.uint8), rng.integers(0, 2, (500, n))
        index = joint_type_index(x, y, 3, 2)
        assert index.tolist() == self._sorted_index(monkeypatch, x, y, 3, 2).tolist()
        assert joint_types_at(index, n, 3, 2) == [joint_type_of(Sequence(a, Alphabet(3)), Sequence(b, Alphabet(2)))
                                                  for a, b in zip(x.tolist(), y.tolist())]

    @pytest.mark.parametrize("n, kx, ky, counted", [(15, 2, 2, True), (16, 2, 2, False), (5, 3, 2, True), (6, 3, 2, False)])
    def test_either_side_of_the_count_code_limit(self, monkeypatch, n, kx, ky, counted):
        assert ((n + 1) ** (kx * ky) <= _COUNT_CODE_LIMIT) == counted
        types = enumerate_joint_types(n, Alphabet(kx), Alphabet(ky))
        x, y = _type_rows(types, ky, np.random.default_rng(n))
        types_core._count_code.cache_clear()
        assert joint_type_index(x, y, kx, ky).tolist() == list(range(len(types)))
        assert types_core._count_code.cache_info().currsize == counted
        assert self._sorted_index(monkeypatch, x, y, kx, ky).tolist() == list(range(len(types)))

    @pytest.mark.parametrize("limit", [0, _COUNT_CODE_LIMIT])
    @pytest.mark.parametrize("x, y", [([[0, 2, 0]], [[0, 0, 0]]), ([[0, 0, 0]], [[0, 2, 0]]), ([[0, -1, 0]], [[0, 0, 0]])])
    def test_letters_outside_either_alphabet_refused_on_both_paths(self, monkeypatch, limit, x, y):
        monkeypatch.setattr(types_core, "_COUNT_CODE_LIMIT", limit)
        with pytest.raises(ValueError, match="alphabet of size 2"):
            joint_type_index(np.array(x), np.array(y), 2, 2)

    @pytest.mark.parametrize("n, kx, ky", [(70, 64, 1), (200, 4, 4), (3, 2 ** 22, 1)])
    def test_indices_past_int64_refused(self, n, kx, ky):
        assert joint_type_count(n, kx, ky) >= 2 ** 63
        with pytest.raises(ValueError, match="int64"):
            joint_type_index(np.zeros((1, n), np.uint8), np.zeros((1, n), np.uint8), kx, ky)


class TestValidation:
    def test_joint_type_must_sum_to_n(self):
        with pytest.raises(ValueError):
            JointType(((1, 0), (0, 0)), 2)

    def test_sequence_letters_in_alphabet(self):
        with pytest.raises(ValueError):
            Sequence((0, 2), BINARY)

    def test_alphabet_positive(self):
        with pytest.raises(ValueError):
            Alphabet(0)

    @pytest.mark.parametrize("letters, bad", [((0, 1, 5, 7), 5), ((1, -1, 9), -1), ((2,), 2)])
    def test_sequence_names_the_first_letter_outside(self, letters, bad):
        with pytest.raises(ValueError, match=f"^letter {bad} outside alphabet of size 2$"):
            Sequence(letters, BINARY)

    @pytest.mark.parametrize("n", [0, -1])
    def test_types_need_a_positive_block_length(self, n):
        with pytest.raises(ValueError, match=f"n={n}"):
            JointType(((0, 0), (0, 0)), n)
        with pytest.raises(ValueError, match=f"n={n}"):
            TypeVector((0, 0), n)
