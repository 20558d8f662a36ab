"""Benchmark of the compdeliv package: one command, three workloads.

    python3 benchmarks/run.py --workload {table_build,cli_roundtrip,mc_sweep}
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from its
`src/`.  Each measured repetition follows its own set-up; they repeat
until the next pair would end after `--seconds` (at least two).
Times are seconds on a reference clock that cancels the shared host's
speed swings (see `refclock`).  `setup_s` is the median set-up time,
throughputs and other ratios are totals over all repetitions, other
values are medians (see `workloads.combine`).
Every output is checked; a failed check, a non-zero exit or a raised
error counts as a failed operation.

With --trace 1 the run makes one untraced and one traced repetition and
prints the per-layer metrics of the traced one, plus the tracing
overhead (traced over untraced wall time, minus one).  End-to-end numbers
come only from --trace 0 runs.

The next-to-last stdout line is a JSON context record (seed, source
digest, machine, versions, bases and per-repetition samples); the last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "table_cells_per_s": "cells/s",
    "ff_encode_letters_per_s": "letters/s",
    "ff_decode_letters_per_s": "letters/s",
    "fv_encode_letters_per_s": "letters/s",
    "fv_decode_letters_per_s": "letters/s",
    "ff_bits_per_letter": "bits/letter",
    "fv_bits_per_letter": "bits/letter",
    "ff_flagged_share": "share",
    "sweep_trials_per_s": "trials/s",
}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "compdeliv").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(workload: str, seed: int, seconds: int, trace: bool, bases: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bases": bases,
    }


def repeat(w, seconds: float, trace: bool):
    """Set-up (`w.setups_per_rep` times) plus repetition, over and over: at
    least two, then until the next would end after `seconds`.  A traced
    run makes exactly two, the second one traced.  Set-ups are spread
    over the run like the repetitions."""
    setups, reps, spans = [], [], []
    t0 = perf_counter()
    while True:
        t = perf_counter()
        setups.extend(w.setup() for _ in range(w.setups_per_rep))
        reps.append(w.rep(trace and len(reps) == 1))
        spans.append(perf_counter() - t)
        if len(reps) >= 2 and (trace or perf_counter() - t0 + median(spans) > seconds):
            return setups, reps


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: dict,
                 tamper=None) -> tuple[dict, dict]:
    """Returns (result, context) for one run of one workload."""
    import workloads
    from layers import OVERHEAD_METRIC, metric_units

    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS[workload](size, seed, work, tamper or workloads.identity)
        setups, reps = repeat(w, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if trace:
        base, traced = reps
        values = dict(traced.layers or {})
        values[OVERHEAD_METRIC] = traced.wall / base.wall - 1
        units = metric_units()
    else:
        values = workloads.combine([s for r in reps for s in r.samples] + setups)
        values["ok_share"] = 1 - failed / attempted
        units = END_TO_END_UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"no measurement of {', '.join(missing)}")
    ctx = context(workload, seed, seconds, trace, w.bases())
    ctx["setup_samples"] = setups
    ctx["rep_samples"] = [{"wall_s": r.wall, "samples": r.samples} for r in reps]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, ctx


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "compdeliv" / "__init__.py").is_file():
        print(f"error: no compdeliv sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, ctx = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               workloads.FULL[args.workload])
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
