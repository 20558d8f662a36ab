"""Source sampling and Monte-Carlo verification sweeps.

Exact type sums (masked `type_columns` arrays) are the primary truth; the
Monte-Carlo columns exercise the encode/decode pipeline end to end: every
trial is encoded and decoded on both sides, and an unflagged mismatch, a
table defect, raises before the next block length is coded.  The trials
of every rate at one block length are coded together, in slices of at
most `_BATCH_ROWS` rows: one `ff_encode_batch` and one `ff_decode_batch`
per side and slice, with the code of the largest rate.  Each trial is
flagged by its own rate's region, as coding each grid row alone flags it.

PRNG contract: NumPy PCG64 (period 2^128), seeded through SeedSequence.
Per-row generators are spawned from the master seed in row order, so the
report depends only on the master seed, never on scheduling.  A row's
uniforms pick cells of p's CDF, read as letters from two per-source tables.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict
from functools import lru_cache
from itertools import groupby
from operator import attrgetter, itemgetter

import numpy as np

from .types_core import _as_keys, _letter_dtype, _read_only, joint_type_index
from .info_measures import (
    SourceSpec,
    correct_exponent_inside,
    epsilon_n,
    error_exponent_outside,
    error_sum_lower_bound,
    error_sum_upper_bound,
)
from .ff_codec import FFCodeConfig, check_rate, exact_error_probability, ff_decode_batch, ff_encode_batch, make_code
from .fv_codec import make_fv_code, overflow_probability


# Most trials coded as one batch.  A block length's trials, of every rate,
# go through the codec in slices of at most this many rows, which bounds
# the batch's temporaries (about 200 B per row at n = 10).
_BATCH_ROWS = 1 << 16


class DecoderDesyncError(RuntimeError):
    """An unflagged codeword failed to round-trip: internal table defect."""


@dataclass(frozen=True)
class TrialPlan:
    p: SourceSpec
    n_grid: tuple[int, ...]
    rates: tuple[float, ...]
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed is {self.master_seed}; it must be >= 0")
        if not self.n_grid or not self.rates:
            raise ValueError("grid must be nonempty")
        for i, n in enumerate(self.n_grid):
            if n < 1:
                raise ValueError(f"n_grid[{i}] is {n}; every block length must be >= 1")
        for i, rate in enumerate(self.rates):
            check_rate(rate, f"rates[{i}]")


@dataclass(frozen=True)
class ReportRow:
    n: int
    rate: float
    exact_e_sum: float
    mc_e_sum: float
    mc_stderr: float
    min_divergence_outside: float
    min_divergence_inside: float
    bound_upper: float
    bound_lower: float
    overflow_exact: float
    overflow_mc: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]

    def to_csv(self) -> str:
        buf, fields = io.StringIO(), list(ReportRow.__dataclass_fields__)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(map(attrgetter(*fields), self.rows))
        return buf.getvalue()

    def to_json(self) -> str:
        """The rows as strict JSON: a non-finite value is the string "inf", "-inf" or "nan", as `to_csv` prints it."""
        rows = [{k: v if math.isfinite(v) else str(v) for k, v in asdict(row).items()} for row in self.rows]
        return json.dumps(rows, indent=2, allow_nan=False) + "\n"


@lru_cache(maxsize=16)
def _cell_tables(p: SourceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CDF of p's cells, row after row, and each cell's x and y letter."""
    cdf = np.cumsum(p.flat())
    cdf[-1] = 1.0
    x, y = np.divmod(np.arange(len(cdf)), p.num_y)
    return tuple(map(_read_only, (cdf, x.astype(_letter_dtype(p.num_x)), y.astype(_letter_dtype(p.num_y)))))


def _sample_cells(p: SourceSpec, n: int, trials: int, rng) -> np.ndarray:
    return np.searchsorted(_cell_tables(p)[0], rng.random((trials, n)), side="right")


def _sample_letters(p: SourceSpec, n: int, trials: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """A grid row's (trials, n) x and y letters, drawn from the row's own seed."""
    cells = _sample_cells(p, n, trials, np.random.Generator(np.random.PCG64(seed)))
    return tuple(letters.take(cells) for letters in _cell_tables(p)[1:])


def run_plan(plan: TrialPlan) -> ExperimentReport:
    """Exact and Monte-Carlo columns for every (n, rate) grid point."""
    grid = sorted((n, r) for n in plan.n_grid for r in plan.rates)
    seeds = iter(np.random.SeedSequence(plan.master_seed).spawn(len(grid)))
    rows = []
    for n, points in groupby(grid, key=itemgetter(0)):
        rates = [rate for _, rate in points]
        samples = [_sample_letters(plan.p, n, plan.trials, next(seeds)) for _ in rates]
        x, y = (np.concatenate(side) for side in zip(*samples))
        escapes, overflows = _count_trials(plan.p, n, rates, plan.trials, x, y)
        for rate, escaped, overflowed in zip(rates, escapes.tolist(), overflows.tolist()):
            rows.append(_report_row(plan.p, n, rate, plan.trials, escaped, overflowed))
    return ExperimentReport(tuple(rows))


def _count_trials(p: SourceSpec, n: int, rates: list[float], trials: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """FF escapes and FV overflows of each rate's trials at block length n.

    Rates ascend, and the trials of rate i are rows i * trials onwards of
    x and y.  The rows are coded in slices of at most `_BATCH_ROWS` with
    the code of the largest rate: a cell's symbol does not depend on the
    rate, and every smaller rate's region lies inside that code's.  A row
    whose type is outside its own rate's region gets type index -1 in
    `ff_encode_batch`, so it is flagged and no table is built for it.
    """
    cfg = FFCodeConfig(n, rates[-1], p.ax, p.ay)
    lengths = make_fv_code(n, p.ax, p.ay).codeword_lengths
    # inside[i, t]: joint type t lies in the region of rate i.
    inside = np.array([make_code(FFCodeConfig(n, rate, p.ax, p.ay)).region_index >= 0 for rate in rates])
    eps = epsilon_n(n, p.ax, p.ay)
    overflow_threshold = np.array([n * (rate + eps) for rate in rates])
    # Per rate: escapes, overflows, and unflagged trials decoded wrong on x and on y.
    counts = np.zeros((4, len(rates)), np.int64)
    for start in range(0, len(x), _BATCH_ROWS):
        xs, ys = x[start:start + _BATCH_ROWS], y[start:start + _BATCH_ROWS]
        at = np.arange(start, start + len(xs)) // trials  # the grid row of every trial
        index = joint_type_index(xs, ys, p.num_x, p.num_y)
        words = ff_encode_batch(cfg, xs, ys, np.where(inside[at, index], index, -1))
        wrong = [
            (_as_keys(ff_decode_batch(cfg, words, side_info, side)) != _as_keys(truth)) & ~words[0]
            for side, truth, side_info in (("x", xs, ys), ("y", ys, xs))
        ]
        masks = (words[0], lengths[index] > overflow_threshold[at], *wrong)
        counts += [np.bincount(at[m], minlength=len(rates)) for m in masks]
    escapes, overflows, x_wrong, y_wrong = counts
    # Name what coding row by row would: the first failing grid row, and x
    # when that row fails on x.
    failed = np.flatnonzero(x_wrong + y_wrong)
    if len(failed):
        row = failed[0]
        side = "x" if x_wrong[row] else "y"
        raise DecoderDesyncError(f"round-trip failure of {side} at n={n}, rate={rates[row]}")
    return escapes, overflows


def _report_row(p: SourceSpec, n: int, rate: float, trials: int, escapes: int, overflows: int) -> ReportRow:
    exact = exact_error_probability(FFCodeConfig(n, rate, p.ax, p.ay), p)
    mind_out = error_exponent_outside(rate, p, n).value
    stderr = 2.0 * math.sqrt(exact.e_x * (1 - exact.e_x) / trials)
    return ReportRow(
        n=n,
        rate=rate,
        exact_e_sum=exact.e_sum,
        mc_e_sum=2.0 * escapes / trials,
        mc_stderr=stderr,
        min_divergence_outside=mind_out,
        min_divergence_inside=correct_exponent_inside(rate, p, n).value,
        bound_upper=error_sum_upper_bound(rate, p, n, mind_out),
        bound_lower=error_sum_lower_bound(rate, p, n),
        overflow_exact=overflow_probability(n, rate, p),
        overflow_mc=overflows / trials,
    )
