"""Types, joint types, shells, and enumerative rank/unrank."""

import itertools
import math

import pytest

from compdeliv.types_core import (
    Alphabet,
    BINARY,
    JointType,
    LengthMismatchError,
    RankRangeError,
    Sequence,
    TypeVector,
    enumerate_joint_types,
    joint_type_of,
    multinomial,
    multiset_ranker,
    rank_in_type_class,
    rank_in_v_shell,
    seq,
    type_class_size,
    type_of,
    unrank_in_type_class,
    unrank_in_v_shell,
    v_shell_size,
    w_shell_size,
)
from conftest import all_binary_pairs, all_binary_sequences


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
        # C(20, 10) = 184756 arrangements: above the memoized-class limit
        first, last, x = seq("0" * 10 + "1" * 10), seq("1" * 10 + "0" * 10), seq("01" * 10)
        q = type_of(x)
        assert rank_in_type_class(first) == 0
        assert rank_in_type_class(last) == type_class_size(q) - 1
        assert multiset_ranker(q.counts)(x.letters) == rank_in_type_class(x)
        assert unrank_in_type_class(q, rank_in_type_class(x)) == x


class TestShellRankUnrank:
    def test_singleton_shell(self):
        jt = JointType(((2, 0), (0, 2)), 4)
        assert rank_in_v_shell(seq("0011"), seq("0011")) == 0

    def test_two_member_shell(self):
        x = seq("0011")
        jt = JointType(((1, 1), (2, 0)), 4)
        members = [
            y for y in all_binary_sequences(4) if joint_type_of(x, y) == jt
        ]
        ranks = sorted(rank_in_v_shell(y, x) for y in members)
        assert len(members) == 2
        assert ranks == [0, 1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_all_shells(self, n):
        for x, y in all_binary_pairs(n):
            jt = joint_type_of(x, y)
            r = rank_in_v_shell(y, x)
            assert 0 <= r < v_shell_size(jt)
            assert unrank_in_v_shell(x, jt, r) == y

    def test_unrank_rejects_wrong_marginal(self):
        jt = JointType(((1, 1), (2, 0)), 4)
        with pytest.raises(ValueError):
            unrank_in_v_shell(seq("0001"), jt, 0)

    def test_unrank_rejects_bad_rank(self):
        jt = JointType(((1, 1), (2, 0)), 4)
        with pytest.raises(RankRangeError):
            unrank_in_v_shell(seq("0011"), jt, v_shell_size(jt))


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
