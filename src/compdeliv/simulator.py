"""Source sampling and Monte-Carlo verification sweeps.

Exact type-sum computation is the primary truth; the Monte-Carlo columns
exist to exercise the full encode/decode pipeline end to end, so every
trial is actually encoded and both-side decoded (an unflagged mismatch is
a table-logic defect and raises immediately).  A row's trials go through
the array codec (`ff_encode_batch`, `ff_decode_batch`) as one batch.

PRNG contract: NumPy PCG64 (period 2^128), seeded through SeedSequence.
Per-row generators are spawned from the master seed in row order, so the
report depends only on the master seed, never on scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .types_core import Sequence, joint_type_groups
from .info_measures import (
    SourceSpec,
    correct_exponent_inside,
    epsilon_n,
    error_exponent_outside,
    error_sum_lower_bound,
    error_sum_upper_bound,
)
from .ff_codec import FFCodeConfig, exact_error_probability, ff_decode_batch, ff_encode_batch
from .fv_codec import make_fv_code, overflow_probability


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
        if not self.n_grid or not self.rates:
            raise ValueError("grid must be nonempty")


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
        buf = io.StringIO()
        fields = list(ReportRow.__dataclass_fields__)
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(asdict(row))
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps([asdict(row) for row in self.rows], indent=2) + "\n"


def sample_pair(p: SourceSpec, n: int, seed) -> tuple[Sequence, Sequence]:
    """One i.i.d. pair via inverse-CDF over the flattened joint distribution.

    `seed` may be an int, a SeedSequence, or a Generator; a given int
    always yields the same pair.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.PCG64(seed))
    cells = _sample_cells(p, n, 1, rng)[0]
    ky = p.num_y
    x = Sequence(tuple(int(c) // ky for c in cells), p.ax)
    y = Sequence(tuple(int(c) % ky for c in cells), p.ay)
    return x, y


def _sample_cells(p: SourceSpec, n: int, trials: int, rng) -> np.ndarray:
    cdf = np.cumsum(np.asarray(p.flat()))
    cdf[-1] = 1.0
    u = rng.random((trials, n))
    return np.searchsorted(cdf, u, side="right")


def run_plan(plan: TrialPlan) -> ExperimentReport:
    """Exact and Monte-Carlo columns for every (n, rate) grid point."""
    grid = sorted((n, r) for n in plan.n_grid for r in plan.rates)
    seeds = np.random.SeedSequence(plan.master_seed).spawn(len(grid))
    rows = []
    for (n, rate), seed in zip(grid, seeds):
        rows.append(_run_row(plan.p, n, rate, plan.trials, seed))
    return ExperimentReport(tuple(rows))


def _run_row(p: SourceSpec, n: int, rate: float, trials: int, seed) -> ReportRow:
    cfg = FFCodeConfig(n, rate, p.ax, p.ay)
    exact = exact_error_probability(cfg, p)
    mind_out = error_exponent_outside(rate, p, n).value
    eps = epsilon_n(n, p.ax, p.ay)
    mind_in = correct_exponent_inside(rate, p, n).value
    overflow_exact = overflow_probability(n, rate, p)

    fv = make_fv_code(n, p.ax, p.ay)
    overflow_threshold = n * (rate + eps)
    rng = np.random.Generator(np.random.PCG64(seed))
    cells = _sample_cells(p, n, trials, rng)
    x, y = np.divmod(cells, p.num_y)

    words = ff_encode_batch(cfg, x, y)
    unflagged = ~words[0]
    for side, truth, side_info in (("x", x, y), ("y", y, x)):
        decoded = ff_decode_batch(cfg, words, side_info, side)
        if not np.array_equal(decoded[unflagged], truth[unflagged]):
            raise DecoderDesyncError(f"round-trip failure of {side} at n={n}, rate={rate}")
    escapes = int(words[0].sum())
    overflows = sum(
        len(rows)
        for jt, rows in joint_type_groups(x, y, p.num_x, p.num_y)
        if fv.codeword_length(jt) > overflow_threshold
    )

    escape_exact = exact.e_x
    stderr = 2.0 * math.sqrt(escape_exact * (1 - escape_exact) / trials)
    return ReportRow(
        n=n,
        rate=rate,
        exact_e_sum=exact.e_sum,
        mc_e_sum=2.0 * escapes / trials,
        mc_stderr=stderr,
        min_divergence_outside=mind_out,
        min_divergence_inside=mind_in,
        bound_upper=error_sum_upper_bound(rate, p, n),
        bound_lower=error_sum_lower_bound(rate, p, n),
        overflow_exact=overflow_exact,
        overflow_mc=overflows / trials,
    )

