"""Sampling determinism and sweep report consistency."""

import json
import math
from array import array
from dataclasses import replace

import numpy as np
import pytest

from compdeliv import ff_codec
from compdeliv.info_measures import (
    SourceSpec,
    correct_exponent_inside,
    dsbs,
    error_exponent_outside,
    error_sum_lower_bound,
    error_sum_upper_bound,
)
from compdeliv.ff_codec import FFCodeConfig, exact_error_probability
from compdeliv.simulator import (
    DecoderDesyncError,
    ExperimentReport,
    ReportRow,
    TrialPlan,
    run_plan,
    sample_pair,
)


class TestSamplePair:
    def test_degenerate_source(self):
        p = SourceSpec(((0.0, 1.0), (0.0, 0.0)))
        x, y = sample_pair(p, 8, 123)
        assert x.letters == (0,) * 8
        assert y.letters == (1,) * 8

    def test_same_seed_same_pair(self):
        p = dsbs(0.11)
        assert sample_pair(p, 16, 42) == sample_pair(p, 16, 42)

    def test_different_seed_usually_differs(self):
        p = dsbs(0.11)
        draws = {sample_pair(p, 16, s) for s in range(8)}
        assert len(draws) > 1

    def test_empirical_cells_within_3_sigma(self):
        p = dsbs(0.2)
        n = 100_000
        x, y = sample_pair(p, n, 7)
        counts = [[0, 0], [0, 0]]
        for a, b in zip(x.letters, y.letters):
            counts[a][b] += 1
        for a in range(2):
            for b in range(2):
                cell = p.p_xy[a][b]
                sigma = math.sqrt(cell * (1 - cell) / n)
                assert abs(counts[a][b] / n - cell) <= 3 * sigma


class TestTrialPlanValidation:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            TrialPlan(dsbs(0.11), (4,), (0.8,), 0, 1)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            TrialPlan(dsbs(0.11), (), (0.8,), 10, 1)


@pytest.fixture(scope="module")
def small_report():
    plan = TrialPlan(dsbs(0.11), (4, 6), (0.7, 1.0), trials=2000, master_seed=99)
    return plan, run_plan(plan)


class TestRunPlan:
    def test_rows_sorted_by_n_then_rate(self, small_report):
        _, report = small_report
        keys = [(r.n, r.rate) for r in report.rows]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_full_rate_rows_are_error_free(self, small_report):
        _, report = small_report
        for row in report.rows:
            if row.rate >= 1.0:
                assert row.exact_e_sum == 0.0
                assert row.mc_e_sum == 0.0
                assert row.overflow_exact == 0.0
                assert row.overflow_mc == 0.0

    def test_exact_columns_reproduce_library_values(self, small_report):
        plan, report = small_report
        p = plan.p
        for row in report.rows:
            cfg = FFCodeConfig(row.n, row.rate)
            assert row.exact_e_sum == exact_error_probability(cfg, p).e_sum
            assert row.min_divergence_outside == error_exponent_outside(row.rate, p, row.n).value
            assert row.min_divergence_inside == correct_exponent_inside(row.rate, p, row.n).value
            assert row.bound_upper == error_sum_upper_bound(row.rate, p, row.n)
            assert row.bound_lower == error_sum_lower_bound(row.rate, p, row.n)

    def test_reproducible_byte_for_byte(self, small_report):
        plan, report = small_report
        again = run_plan(plan)
        assert again.to_csv() == report.to_csv()
        assert again.to_json() == report.to_json()

    def test_mc_within_3_sigma(self, small_report):
        _, report = small_report
        for row in report.rows:
            if row.mc_stderr > 0:
                assert abs(row.mc_e_sum - row.exact_e_sum) <= 3 * row.mc_stderr
            else:
                assert row.mc_e_sum == row.exact_e_sum


class TestReportSerialization:
    def test_csv_schema(self):
        row = ReportRow(4, 0.8, 0.1, 0.11, 0.01, 0.5, 0.0, 0.2, 0.05, 0.0, 0.0)
        report = ExperimentReport((row,))
        lines = report.to_csv().splitlines()
        assert lines[0] == (
            "n,rate,exact_e_sum,mc_e_sum,mc_stderr,min_divergence_outside,"
            "min_divergence_inside,bound_upper,bound_lower,overflow_exact,overflow_mc"
        )
        assert lines[1].startswith("4,0.8,")

    def test_json_round_trips(self):
        row = ReportRow(4, 0.8, 0.1, 0.11, 0.01, 0.5, 0.0, 0.2, 0.05, 0.0, 0.0)
        data = json.loads(ExperimentReport((row,)).to_json())
        assert data[0]["n"] == 4
        assert data[0]["mc_e_sum"] == 0.11


def _swap_first_two_symbols(slots: array, vertices: int, delta: int) -> array:
    """A copy of a lookup buffer whose every vertex with two or more cells
    has its first two symbols exchanged."""
    grid = np.frombuffer(slots, np.int32).reshape(vertices, delta).copy()
    for cells in grid:
        used = np.flatnonzero(cells >= 0)[:2]
        cells[used] = cells[used[::-1]]
    return array("i", grid.tobytes())


class TestDesyncCheck:
    """A table that decodes one side wrong must stop the sweep."""

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_corrupted_table_raises(self, monkeypatch, side):
        real = ff_codec.get_coding_table

        def corrupted(jt):
            t = real(jt)
            if side == "x":  # x is read from row_of, y from col_of
                return replace(t, row_of=_swap_first_two_symbols(t.row_of, t.graph.right_size, t.num_symbols))
            return replace(t, col_of=_swap_first_two_symbols(t.col_of, t.graph.left_size, t.num_symbols))

        monkeypatch.setattr(ff_codec, "get_coding_table", corrupted)
        plan = TrialPlan(dsbs(0.11), (4,), (1.0,), trials=200, master_seed=1)
        with pytest.raises(DecoderDesyncError, match=f"failure of {side} "):
            run_plan(plan)
