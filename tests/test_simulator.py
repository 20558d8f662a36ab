"""Sampling determinism and sweep report consistency."""

import json
import math

import numpy as np
import pytest

from compdeliv import coding_table, info_measures, simulator
from compdeliv.coding_table import SlotBook
from compdeliv.fv_codec import make_fv_code
from compdeliv.info_measures import (
    SourceSpec,
    correct_exponent_inside,
    dsbs,
    epsilon_n,
    error_exponent_outside,
    error_sum_lower_bound,
    error_sum_upper_bound,
    in_decodable_region,
    prob_of_type_class,
    uniform_independent,
)
from compdeliv.ff_codec import FFCodeConfig, exact_error_probability, ff_decode_batch, ff_encode_batch, make_code
from compdeliv.simulator import (
    DecoderDesyncError,
    ExperimentReport,
    ReportRow,
    TrialPlan,
    _sample_cells,
    _sample_letters,
    run_plan,
)
from compdeliv.types_core import enumerate_joint_types, joint_types_at, type_class_size
from conftest import joint_type_groups, sample_pair


class TestSamplePair:
    def test_degenerate_source(self):
        p = SourceSpec(((0.0, 1.0), (0.0, 0.0)))
        x, y = sample_pair(p, 8, 123)
        assert x == (0,) * 8
        assert y == (1,) * 8

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
        for a, b in zip(x, y):
            counts[a][b] += 1
        for a in range(2):
            for b in range(2):
                cell = p.p_xy[a][b]
                sigma = math.sqrt(cell * (1 - cell) / n)
                assert abs(counts[a][b] / n - cell) <= 3 * sigma

    def test_letters_inside_the_alphabets(self):
        p = SourceSpec(((0.1, 0.2), (0.3, 0.1), (0.2, 0.1)))
        x, y = sample_pair(p, 2000, 5)
        assert set(x) == {0, 1, 2} and set(y) == {0, 1}


def _weights_source(weights) -> SourceSpec:
    weights = np.asarray(weights, float)
    return SourceSpec(tuple(map(tuple, (weights / weights.sum()).tolist())))


SAMPLED_SOURCES = {
    "dsbs": dsbs(0.11),
    "3x2": SourceSpec(((0.3, 0.05), (0.05, 0.25), (0.15, 0.2))),
    "zero cell": SourceSpec(((0.4, 0.0), (0.35, 0.25))),  # cells 0 and 1 end at one CDF entry
    "17x17": _weights_source(np.random.default_rng(17).random((17, 17))),
}


class TestSampleLetters:
    @pytest.mark.parametrize("name", SAMPLED_SOURCES)
    def test_letters_are_the_reference_cells_split(self, name):
        # The gathers from the cell tables against the reference cells, split
        # by divmod and cast to each side's letter type.
        p = SAMPLED_SOURCES[name]
        for n, trials, entropy in ((1, 9, 3), (7, 400, 4)):
            seed = np.random.SeedSequence(entropy)
            cells = _sample_cells(p, n, trials, np.random.Generator(np.random.PCG64(seed)))
            want = np.divmod(cells, p.num_y)
            got = _sample_letters(p, n, trials, seed)
            for letters, reference in zip(got, want):
                assert letters.dtype == np.uint8 and letters.shape == (trials, n)
                assert np.array_equal(letters, reference)
        if name == "zero cell":
            assert not ((got[0] == 0) & (got[1] == 1)).any()


class TestTrialPlanValidation:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            TrialPlan(dsbs(0.11), (4,), (0.8,), 0, 1)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            TrialPlan(dsbs(0.11), (), (0.8,), 10, 1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_rejects_a_rate_that_is_not_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match=r"rates\[1\]"):
            TrialPlan(dsbs(0.11), (4,), (0.8, rate), 10, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_a_block_length_below_one(self, n):
        with pytest.raises(ValueError, match=r"n_grid\[1\]"):
            TrialPlan(dsbs(0.11), (4, n), (0.8,), 10, 1)


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

    def test_json_is_strict_with_non_finite_values_as_text(self):
        row = ReportRow(4, 3.0, 0.0, 0.0, 0.0, math.inf, -math.inf, 0.0, 0.0, math.nan, 0.0)

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        (data,) = json.loads(ExperimentReport((row,)).to_json(), parse_constant=refuse)
        assert [data[k] for k in ("min_divergence_outside", "min_divergence_inside", "overflow_exact")] == ["inf", "-inf", "nan"]
        assert data["rate"] == 3.0 and data["bound_upper"] == 0.0
        assert ExperimentReport((row,)).to_csv().splitlines()[1] == "4,3.0,0.0,0.0,0.0,inf,-inf,0.0,0.0,nan,0.0"


def reference_run_plan(plan: TrialPlan) -> ExperimentReport:
    """`run_plan` coded one grid row at a time, each row with its own rate's
    config, and its exact escape and overflow sums taken type by type
    without memos."""
    grid = sorted((n, r) for n in plan.n_grid for r in plan.rates)
    seeds = np.random.SeedSequence(plan.master_seed).spawn(len(grid))
    rows = (_reference_row(plan.p, n, rate, plan.trials, seed) for (n, rate), seed in zip(grid, seeds))
    return ExperimentReport(tuple(rows))


def _reference_row(p, n, rate, trials, seed) -> ReportRow:
    cfg, fv = FFCodeConfig(n, rate, p.ax, p.ay), make_fv_code(n, p.ax, p.ay)
    region = set(joint_types_at(make_code(cfg).region_types, n, p.num_x, p.num_y))
    escape_exact = sum(prob_of_type_class(jt, p) for jt in enumerate_joint_types(n, p.ax, p.ay) if jt not in region)
    threshold = n * (rate + epsilon_n(n, p.ax, p.ay))
    overflow_exact = sum(
        prob_of_type_class(jt, p) for jt in enumerate_joint_types(n, p.ax, p.ay) if fv.codeword_length(jt) > threshold
    )

    cells = _sample_cells(p, n, trials, np.random.Generator(np.random.PCG64(seed)))
    x, y = np.divmod(cells, p.num_y)
    groups = joint_type_groups(x, y, p.num_x, p.num_y)
    words = ff_encode_batch(cfg, x, y)
    unflagged = ~words[0]
    for side, truth, side_info in (("x", x, y), ("y", y, x)):
        decoded = ff_decode_batch(cfg, words, side_info, side)
        if not np.array_equal(decoded[unflagged], truth[unflagged]):
            raise DecoderDesyncError(f"round-trip failure of {side} at n={n}, rate={rate}")
    escapes = int(words[0].sum())
    overflows = sum(len(rows) for jt, rows in groups if fv.codeword_length(jt) > threshold)

    mind_out = error_exponent_outside(rate, p, n).value
    return ReportRow(
        n=n,
        rate=rate,
        exact_e_sum=2 * escape_exact,
        mc_e_sum=2.0 * escapes / trials,
        mc_stderr=2.0 * math.sqrt(escape_exact * (1 - escape_exact) / trials),
        min_divergence_outside=mind_out,
        min_divergence_inside=correct_exponent_inside(rate, p, n).value,
        bound_upper=error_sum_upper_bound(rate, p, n, mind_out),
        bound_lower=error_sum_lower_bound(rate, p, n),
        overflow_exact=overflow_exact,
        overflow_mc=overflows / trials,
    )


MC_PLAN = TrialPlan(dsbs(0.11), (4, 6, 8), (0.7, 0.8, 0.9), trials=500, master_seed=20230817)
SOURCE_3X2 = SourceSpec(((0.3, 0.05), (0.05, 0.25), (0.15, 0.2)))
PLANS = {
    "mc": MC_PLAN,
    "3x2": TrialPlan(SOURCE_3X2, (3, 5), (0.5, 1.0, 1.3), trials=300, master_seed=5),
    "duplicates": TrialPlan(dsbs(0.2), (6, 4, 6), (0.8, 0.7, 0.8), trials=200, master_seed=8),
    "one-rate": TrialPlan(dsbs(0.11), (8, 5), (0.8,), trials=300, master_seed=13),
    "overflows": TrialPlan(uniform_independent(), (10,), (0.05, 0.2, 0.35), trials=200, master_seed=31),
}
SLICED_PLANS = {
    "mixed": TrialPlan(dsbs(0.2), (4, 6), (0.7, 0.9), trials=40, master_seed=21),
    "3x2": TrialPlan(SOURCE_3X2, (4,), (0.6, 1.2), trials=25, master_seed=22),
    "overflows": TrialPlan(uniform_independent(), (10,), (0.05, 0.2), trials=30, master_seed=31),
}


class TestBatchedSweep:
    """One batch per block length reports what coding row by row reports."""

    @pytest.mark.parametrize("name", PLANS)
    def test_equals_the_row_by_row_reference(self, name):
        plan = PLANS[name]
        assert run_plan(plan).to_csv() == reference_run_plan(plan).to_csv()

    @pytest.mark.parametrize("batch_rows", [1, 7, 1000])
    @pytest.mark.parametrize("name", SLICED_PLANS)
    def test_slices_spanning_rates_change_nothing(self, monkeypatch, name, batch_rows):
        plan = SLICED_PLANS[name]
        monkeypatch.setattr(simulator, "_BATCH_ROWS", batch_rows)
        assert run_plan(plan).to_csv() == reference_run_plan(plan).to_csv()

    def test_mc_plan_in_slices_of_1000(self, monkeypatch):
        monkeypatch.setattr(simulator, "_BATCH_ROWS", 1000)
        assert run_plan(MC_PLAN).to_csv() == reference_run_plan(MC_PLAN).to_csv()

    @pytest.mark.parametrize("batch_rows", [1000, 1 << 16])
    def test_one_encode_and_two_decodes_per_slice(self, monkeypatch, batch_rows):
        calls = []
        for name in ("ff_encode_batch", "ff_decode_batch"):
            real = getattr(simulator, name)
            monkeypatch.setattr(simulator, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        monkeypatch.setattr(simulator, "_BATCH_ROWS", batch_rows)
        run_plan(MC_PLAN)
        rows_per_n = len(MC_PLAN.rates) * MC_PLAN.trials
        slices = len(MC_PLAN.n_grid) * -(-rows_per_n // batch_rows)
        assert calls.count("ff_encode_batch") == slices
        assert calls.count("ff_decode_batch") == 2 * slices

    def test_exact_columns_worked_out_once_per_block_length(self, monkeypatch):
        # Every rate of a block length reads one record of per-type columns,
        # worked out as arrays: no sweep calls a per-type scalar function.
        calls = []
        for name in ("prob_of_type_class", "kl_divergence", "max_conditional_entropy"):
            real = getattr(info_measures, name)
            monkeypatch.setattr(info_measures, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        info_measures.type_columns.cache_clear()
        for _ in range(2):
            run_plan(MC_PLAN)
            assert calls == [] and info_measures.type_columns.cache_info().misses == len(set(MC_PLAN.n_grid))

    def test_builds_the_tables_the_row_by_row_sweep_builds(self, monkeypatch):
        """On a cold cache: a type inside the largest rate's region whose
        trials are all of smaller rates gets no table."""
        real, colored = coding_table.edge_color, []
        monkeypatch.setattr(coding_table, "edge_color", lambda g, *slots: colored.append(g.jt) or real(g, *slots))
        built = []
        for run in (reference_run_plan, run_plan):
            coding_table.slot_book.cache_clear()
            colored.clear()
            run(MC_PLAN)
            built.append((len(colored), set(colored)))
        assert built[0][0] > 0
        assert built[1] == built[0]


def _swap_first_two_symbols(grid: np.ndarray) -> None:
    """Exchange the first two symbols of every vertex with two or more cells
    in `grid`, a (vertices, symbols) view of lookup slots."""
    for cells in grid:
        used = np.flatnonzero(cells >= 0)[:2]
        cells[used] = cells[used[::-1]]


def corrupt_decoders(monkeypatch, corrupted) -> None:
    """Decoders of side s read a corrupted table of the joint type jt when
    `corrupted(jt, s)`.  The batch decoders read the slot book's buffers,
    and the encoder reads the same buffer, so each decode reads a corrupted
    copy of the book's buffer, in which the entries' sides it reads (x is
    read from the row_of side, y from the col_of side) are corrupted, while
    the encoder, and every other caller, reads the clean one."""
    real_decode = SlotBook.decode

    def corrupted_decode(book, types, type_index, symbols, side_info, decoded, rows, range_error):
        held = 1 if decoded == "x" else 0
        book._ids(type_index[rows] if types is None else types[type_index[rows]])  # enter every type first
        clean = book._slots
        book._slots = clean[:]  # a copy
        slots = np.frombuffer(book._slots, clean.typecode)
        for i, jt in enumerate(joint_types_at(list(book._met), book.n, 2, 2)):
            delta, vertices = int(book._delta[i]), type_class_size(jt.y_marginal() if held else jt.x_marginal())
            if delta > 1 and corrupted(jt, decoded):
                # Δ dense slots per vertex, or the ends of its d cells by edge, in symbol order
                start, width = int(book._base[held][i]), int(book._width[held][i])
                _swap_first_two_symbols(slots[start:start + vertices * width].reshape(vertices, width))
        try:
            return real_decode(book, types, type_index, symbols, side_info, decoded, rows, range_error)
        finally:
            book._slots = clean

    monkeypatch.setattr(SlotBook, "decode", corrupted_decode)


def desync_message(run, plan) -> str:
    with pytest.raises(DecoderDesyncError) as caught:
        run(plan)
    return str(caught.value)


class TestDesyncCheck:
    """A table that decodes one side wrong must stop the sweep."""

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_corrupted_table_raises(self, monkeypatch, side):
        corrupt_decoders(monkeypatch, lambda jt, decoded: decoded == side)
        plan = TrialPlan(dsbs(0.11), (4,), (1.0,), trials=200, master_seed=1)
        with pytest.raises(DecoderDesyncError, match=f"failure of {side} at n=4, rate=1.0$"):
            run_plan(plan)

    @pytest.mark.parametrize("batch_rows", [1, 7, 1 << 16])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_names_the_first_failing_grid_row(self, monkeypatch, side, batch_rows):
        """Only tables of types outside the rate-0.7 region decode wrong, so
        n=4 at rate 0.7 codes its trials of those types as flagged, and the
        first failing row is n=4 at rate 0.9, coded in the same batch."""
        corrupt_decoders(monkeypatch, lambda jt, decoded: decoded == side and not in_decodable_region(jt, 0.7))
        monkeypatch.setattr(simulator, "_BATCH_ROWS", batch_rows)
        plan = TrialPlan(dsbs(0.11), (6, 4), (0.9, 0.7), trials=60, master_seed=3)
        message = f"round-trip failure of {side} at n=4, rate=0.9"
        assert desync_message(reference_run_plan, plan) == message
        assert desync_message(run_plan, plan) == message

    @pytest.mark.parametrize("batch_rows", [1, 7, 1 << 16])
    def test_names_x_when_the_row_fails_on_x_after_a_y_failure(self, monkeypatch, batch_rows):
        """Every table decodes y wrong, and x wrong only for types that
        first appear in the second half of the first row: coding the row
        alone names x, and so does the sweep, whichever slice the first
        x failure is in."""
        plan = TrialPlan(dsbs(0.11), (6,), (0.9, 1.0), trials=60, master_seed=3)
        seed = np.random.SeedSequence(plan.master_seed).spawn(2)[0]
        x, y = np.divmod(_sample_cells(plan.p, 6, plan.trials, np.random.Generator(np.random.PCG64(seed))), 2)
        half = plan.trials // 2
        late = {jt for jt, _ in joint_type_groups(x[half:], y[half:], 2, 2)}
        late -= {jt for jt, _ in joint_type_groups(x[:half], y[:half], 2, 2)}
        corrupt_decoders(monkeypatch, lambda jt, decoded: decoded == "y" or jt in late)
        monkeypatch.setattr(simulator, "_BATCH_ROWS", batch_rows)
        message = "round-trip failure of x at n=6, rate=0.9"
        assert desync_message(reference_run_plan, plan) == message
        assert desync_message(run_plan, plan) == message
