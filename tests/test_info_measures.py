"""Entropies, divergences, region membership, and exponent scans."""

import math

import numpy as np
import pytest

from compdeliv.info_measures import (
    RATE_TIE_TOL,
    SourceSpec,
    achievable_rate,
    conditional_entropy,
    converse_correct_exponent,
    correct_exponent_inside,
    dsbs,
    entropy,
    epsilon_n,
    error_exponent_outside,
    error_sum_upper_bound,
    in_decodable_region,
    kl_divergence,
    max_conditional_entropy,
    overflow_upper_bound,
    prob_of_type_class,
    type_columns,
    uniform_independent,
)
from compdeliv.ff_codec import FFCodeConfig, make_code
from compdeliv.types_core import BINARY, Alphabet, JointType, enumerate_joint_types, num_symbols_column
from conftest import all_binary_pairs


def binary_entropy(p):
    return entropy((p, 1 - p))


class TestEntropy:
    def test_deterministic(self):
        assert entropy((1.0, 0.0)) == 0.0

    def test_uniform_binary(self):
        assert entropy((0.5, 0.5)) == 1.0

    def test_skewed_binary(self):
        assert entropy((0.25, 0.75)) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_range(self):
        for jt in enumerate_joint_types(5, BINARY, BINARY):
            h = entropy(jt.x_marginal().empirical())
            assert 0.0 <= h <= 1.0 + 1e-12


class TestConditionalEntropy:
    def test_independent_uniform(self):
        p = uniform_independent()
        assert conditional_entropy(p, "y|x") == pytest.approx(1.0)
        assert conditional_entropy(p, "x|y") == pytest.approx(1.0)

    def test_deterministic_coupling(self):
        jt = JointType(((2, 0), (0, 2)), 4)
        assert conditional_entropy(jt, "y|x") == 0.0
        assert conditional_entropy(jt, "x|y") == 0.0

    def test_dsbs_011(self):
        p = dsbs(0.11)
        expected = binary_entropy(0.11)
        assert conditional_entropy(p, "y|x") == pytest.approx(expected, abs=1e-12)
        assert conditional_entropy(p, "x|y") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.499916, abs=1e-6)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            conditional_entropy(uniform_independent(), "z|x")

    def test_range_over_types(self):
        for jt in enumerate_joint_types(5, BINARY, BINARY):
            for d in ("y|x", "x|y"):
                assert 0.0 <= conditional_entropy(jt, d) <= 1.0 + 1e-12


class TestKlDivergence:
    def test_equal_distributions(self):
        p = dsbs(0.11)
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence((1.0, 0.0), (0.5, 0.5)) == pytest.approx(1.0)

    def test_support_mismatch(self):
        assert kl_divergence((0.5, 0.5), (1.0, 0.0)) == math.inf

    def test_nonnegative_over_types(self):
        p = dsbs(0.2)
        for jt in enumerate_joint_types(6, BINARY, BINARY):
            d = kl_divergence(jt, p)
            assert d >= 0.0
            if d < 1e-12:
                assert jt.empirical() == p.p_xy


class TestRateAndRegion:
    def test_independent_uniform_rate(self):
        assert achievable_rate(uniform_independent()) == pytest.approx(1.0)

    def test_identity_coupling_rate(self):
        p = SourceSpec(((0.5, 0.0), (0.0, 0.5)))
        assert achievable_rate(p) == 0.0

    def test_dsbs_rate(self):
        assert achievable_rate(dsbs(0.11)) == pytest.approx(binary_entropy(0.11))

    def test_high_rate_always_inside(self):
        for jt in enumerate_joint_types(4, BINARY, BINARY):
            assert in_decodable_region(jt, 1.0)

    def test_balanced_type_excluded_below_one(self):
        jt = JointType(((1, 1), (1, 1)), 4)
        assert not in_decodable_region(jt, 0.9)
        assert in_decodable_region(jt, 1.0)  # ties count as inside

    def test_deterministic_type_at_rate_zero(self):
        assert in_decodable_region(JointType(((4, 0), (0, 0)), 4), 0.0)

    def test_region_monotone_in_rate(self):
        for jt in enumerate_joint_types(5, BINARY, BINARY):
            if in_decodable_region(jt, 0.5):
                assert in_decodable_region(jt, 0.8)


class TestEpsilonN:
    def test_n1(self):
        assert epsilon_n(1, BINARY, BINARY) == pytest.approx(5.0)

    def test_n3(self):
        assert epsilon_n(3, BINARY, BINARY) == pytest.approx(3.0)

    def test_vanishes_monotonically(self):
        values = [epsilon_n(n, BINARY, BINARY) for n in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.2


class TestProbOfTypeClass:
    @pytest.mark.parametrize("crossover", [0.05, 0.11, 0.2])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_partition_of_unity(self, n, crossover):
        p = dsbs(crossover)
        total = sum(
            prob_of_type_class(jt, p) for jt in enumerate_joint_types(n, BINARY, BINARY)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_pair_level_sum(self):
        # exhaustive pair-by-pair oracle at n=4
        from compdeliv.types_core import joint_type_of

        p = dsbs(0.2)
        n = 4
        by_type = {}
        for x, y in all_binary_pairs(n):
            prob = 1.0
            for a, b in zip(x.letters, y.letters):
                prob *= p.p_xy[a][b]
            jt = joint_type_of(x, y)
            by_type[jt] = by_type.get(jt, 0.0) + prob
        for jt, direct in by_type.items():
            assert prob_of_type_class(jt, p) == pytest.approx(direct, rel=1e-12)

    def test_zero_off_support(self):
        p = SourceSpec(((0.5, 0.0), (0.0, 0.5)))
        jt = JointType(((0, 2), (0, 0)), 2)
        assert prob_of_type_class(jt, p) == 0.0


class TestExponentScans:
    def test_outside_empty_at_high_rate(self):
        rep = error_exponent_outside(1.0, dsbs(0.11), 4)
        assert rep.value == math.inf
        assert rep.argmin_type is None

    def test_outside_matches_brute_force(self):
        p = uniform_independent()
        rep = error_exponent_outside(0.4, p, 2)
        best = math.inf
        for jt in enumerate_joint_types(2, BINARY, BINARY):
            if max_conditional_entropy(jt) <= 0.4 + 1e-12:
                continue
            best = min(best, kl_divergence(jt, p))
        assert rep.value == best
        assert not in_decodable_region(rep.argmin_type, 0.4)

    def test_outside_nondecreasing_in_rate(self):
        p = dsbs(0.11)
        values = [error_exponent_outside(r, p, 6).value for r in (0.3, 0.5, 0.7, 0.9)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_inside_zero_when_source_type_realizable(self):
        # dsbs(0.5) = uniform over cells; its type is realizable at n=4
        rep = correct_exponent_inside(1.0, dsbs(0.5), 4)
        assert rep.value == 0.0

    def test_inside_argmin_is_inside(self):
        rep = correct_exponent_inside(0.5, dsbs(0.11), 6)
        assert in_decodable_region(rep.argmin_type, 0.5)

    def test_inside_rate_zero_scans_deterministic_couplings(self):
        p = uniform_independent()
        rep = correct_exponent_inside(0.0, p, 2)
        best = min(
            kl_divergence(jt, p)
            for jt in enumerate_joint_types(2, BINARY, BINARY)
            if max_conditional_entropy(jt) <= 1e-12
        )
        assert rep.value == best

    def test_converse_zero_at_source_type(self):
        # at n=4 the uniform-cell source's own type is enumerable and the
        # gap term vanishes at any rate >= 0
        rep = converse_correct_exponent(1.0, dsbs(0.5), 4)
        assert rep.value == 0.0

    def test_converse_matches_brute_force(self):
        p = uniform_independent()
        n, rate = 2, 0.2
        slack = epsilon_n(n, BINARY, BINARY)
        best = math.inf
        for jt in enumerate_joint_types(n, BINARY, BINARY):
            gap = max(max_conditional_entropy(jt) - (rate + slack), 0.0)
            best = min(best, gap + kl_divergence(jt, p))
        assert converse_correct_exponent(rate, p, n).value == best

    def test_converse_nonnegative(self):
        assert converse_correct_exponent(0.7, dsbs(0.11), 6).value >= 0.0


class TestUpperBoundPastFloatRange:
    """2 (n+1)^|XY| is 2^1025 for a 32 x 32 source at n = 1."""

    P32 = SourceSpec(((1 / 1024,) * 32,) * 32)

    def test_nothing_outside_the_region_bounds_at_zero(self):
        assert error_exponent_outside(5.0, self.P32, 1).value == math.inf
        assert error_sum_upper_bound(5.0, self.P32, 1) == 0.0
        assert overflow_upper_bound(5.0, self.P32, 1) == 0.0

    def test_a_nonzero_factor_is_inf(self):
        assert error_sum_upper_bound(5.0, self.P32, 1, exponent=1.0) == math.inf

    def test_in_range_bounds_are_the_product(self):
        p, n = dsbs(0.11), 6
        exponent = error_exponent_outside(0.5, p, n).value
        assert error_sum_upper_bound(0.5, p, n) == 2 * (n + 1) ** 4 * 2.0 ** (-n * exponent)
        assert error_sum_upper_bound(0.5, p, n, exponent=0.0) == 2.0 * 7 ** 4


class TestTypeColumns:
    @pytest.mark.parametrize("n", [1, 4])
    def test_columns_are_the_per_type_quantities(self, n):
        p = SourceSpec(((0.3, 0.1), (0.05, 0.25), (0.2, 0.1)))
        cols, types = type_columns(n, p), enumerate_joint_types(n, p.ax, p.ay)
        assert cols.counts.tolist() == [list(jt.flat_counts()) for jt in types]
        assert cols.max_entropy.tolist() == list(map(max_conditional_entropy, types))
        assert cols.probability.tolist() == [prob_of_type_class(jt, p) for jt in types]
        assert cols.divergence.tolist() == [kl_divergence(jt, p) for jt in types]
        assert cols.counts.dtype == np.int64 and not cols.counts.flags.writeable
        for column in (cols.max_entropy, cols.probability, cols.divergence):
            assert column.dtype == np.float64 and not column.flags.writeable
        assert type_columns(n, p) is cols

    def test_argmin_is_the_first_minimizer(self):
        # Types of equal divergence: the scans keep the first in enumeration order.
        p = uniform_independent()
        for rate in (0.3, 0.6, 1.0):
            for inside, scan in ((False, error_exponent_outside), (True, correct_exponent_inside)):
                report = scan(rate, p, 4)
                candidates = [jt for jt in enumerate_joint_types(4, BINARY, BINARY) if in_decodable_region(jt, rate) == inside]
                if candidates:
                    first = min(candidates, key=lambda jt: kl_divergence(jt, p))  # min keeps the first
                    assert report.argmin_type is first and report.value == kl_divergence(first, p)


def _scan_min_divergence(rate, p, n, inside):
    """The per-type scan the exponent reports were once taken with."""
    cols, limit = type_columns(n, p), rate + RATE_TIE_TOL
    best, arg = math.inf, None
    types = enumerate_joint_types(n, p.ax, p.ay)
    for jt, h, d in zip(types, cols.max_entropy.tolist(), cols.divergence.tolist()):
        if (h <= limit) == inside and d < best:
            best, arg = d, jt
    return best, arg


class TestMinDivergenceArrays:
    @pytest.mark.parametrize("source", [dsbs(0.11), uniform_independent()], ids=["dsbs", "tied"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_scan_on_region_boundaries(self, source, n):
        # Rates at which a type's max entropy ties the region's edge, just
        # inside and just outside the tolerance.
        cols = type_columns(n, source)
        rates = set()
        for h in set(cols.max_entropy.tolist()):
            edge = h - RATE_TIE_TOL
            rates |= {h, edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)}
        for rate in sorted(rates):
            for inside, scan in ((False, error_exponent_outside), (True, correct_exponent_inside)):
                report = scan(rate, source, n)
                best, arg = _scan_min_divergence(rate, source, n, inside)
                assert type(report.value) is float and report.value == best and report.argmin_type is arg

    def test_an_empty_side_is_inf_without_a_minimizer(self):
        p = dsbs(0.11)
        for rate, scan in ((10.0, error_exponent_outside), (-1.0, correct_exponent_inside)):
            report = scan(rate, p, 4)
            assert report.value == math.inf and report.argmin_type is None
        # Every type outside a one-cell source's region is off its support.
        point = SourceSpec(((1.0, 0.0), (0.0, 0.0)))
        report = error_exponent_outside(0.5, point, 4)
        assert report.value == math.inf and report.argmin_type is None
        assert _scan_min_divergence(0.5, point, 4, False) == (math.inf, None)

    def test_columns_stay_within_their_bound(self):
        # More sources than the memo keeps; columns worked out again after
        # eviction hold the same values.
        type_columns.cache_clear()
        sources = [dsbs(c / 200) for c in range(1, 100)]
        first = [type_columns(2, p).probability.tolist() for p in sources]
        info = type_columns.cache_info()
        assert info.misses == len(sources) > info.maxsize >= info.currsize
        assert [type_columns(2, p).probability.tolist() for p in sources] == first


def _random_source(kx: int, ky: int, seed: int) -> SourceSpec:
    """A seeded kx x ky source with about a third of its cells zero (never all)."""
    rng = np.random.default_rng([kx, ky, seed])
    weights = rng.random((kx, ky)) * (rng.random((kx, ky)) > 0.35)
    weights.flat[rng.integers(kx * ky)] += 0.5
    return SourceSpec(tuple(map(tuple, (weights / weights.sum()).tolist())))


# (kx, ky, n): the array columns are checked against the scalar functions here.
COLUMN_POINTS = (
    [(2, 2, n) for n in range(1, 13)] + [(3, 2, n) for n in range(1, 7)]
    + [(3, 3, n) for n in range(1, 6)] + [(4, 5, 1), (8, 8, 1), (16, 16, 1)]
)


class TestArrayColumnsBitForBit:
    """`type_columns`, `max_entropy_column`, `num_symbols_column` and `make_code`'s
    region hold the bits of the scalar per-type functions, on sources with zero cells."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kx, ky, n", COLUMN_POINTS)
    def test_columns_are_the_scalar_functions(self, kx, ky, n, seed):
        p = _random_source(kx, ky, seed)
        cols, types = type_columns(n, p), enumerate_joint_types(n, p.ax, p.ay)
        scalar = {
            "max_entropy": list(map(max_conditional_entropy, types)),
            "probability": [prob_of_type_class(jt, p) for jt in types],
            "divergence": [kl_divergence(jt, p) for jt in types],
        }
        for name, values in scalar.items():
            np.testing.assert_array_equal(getattr(cols, name).view(np.int64), np.array(values).view(np.int64), name)

    @pytest.mark.parametrize("kx, ky, n", COLUMN_POINTS)
    def test_region_is_the_per_type_membership(self, kx, ky, n):
        ax, ay = Alphabet(kx), Alphabet(ky)
        types = enumerate_joint_types(n, ax, ay)
        # make_code's other column, Δ, is each type's symbol count.
        assert num_symbols_column(n, kx, ky).tolist() == [jt.num_symbols for jt in types]
        entropies = sorted(set(map(max_conditional_entropy, types)) - {0.0})
        # Each entropy as a rate, and the rates where it just leaves the tolerance.
        rates = {r for h in entropies[::max(1, len(entropies) // 6)] for r in (h, h - RATE_TIE_TOL, math.nextafter(h - RATE_TIE_TOL, 0))}
        for rate in sorted(rates | {0.7, 1.2}):
            inside = make_code(FFCodeConfig(n, rate, ax, ay)).region_index >= 0
            assert inside.tolist() == [in_decodable_region(jt, rate) for jt in types], rate


class TestSourceSpecValidation:
    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            SourceSpec(((0.5, 0.5), (0.5, 0.0)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SourceSpec(((1.5, -0.5), (0.0, 0.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SourceSpec(((bad, 0.5), (0.25, 0.25)))

    def test_marginals(self):
        p = dsbs(0.11)
        assert p.x_marginal() == pytest.approx((0.5, 0.5))
        assert p.y_marginal() == pytest.approx((0.5, 0.5))
