"""The benchmark's workloads, their generated inputs and their output checks.

Three workloads, each chosen so that different layers do the work:

- table_build: the binary n=10 codebook (286 joint types, 1,048,576
  cells) built cold in a fresh process, in `enumerate_joint_types`
  order, then used once at n=10 through the library API.  The build
  (`coding_table.build_graph` plus `edge_color`) takes almost all of it.
- cli_roundtrip: the command-line front end as users run it, one fresh
  process per command: FF and FV encode plus both-side decode of a
  seeded DSBS(0.11) letter file at n=8, a small sweep and a table dump.
  Per-block codec, rank/unrank, lookups, `bitio` and `cli` do the work.
- mc_sweep: `run_plan` on DSBS(0.11) over n in (4, 6, 8) and rates
  (0.7, 0.8, 0.9) in-process, with every table built in set-up, plus an
  n=8 library codec pass.  No `bitio`, no `cli` and no table build runs
  in its timed phase, so an optimisation of those predicts no change here.

Every workload reports the same end-to-end metrics: each one is measured
on the work that workload does (see README.md for the layer -> metric ->
workload map).  Operations are counted for `attempted`/`failed`: a table,
a block round trip, a sweep row, a CSV hash or a CLI command.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from layers import Tracer, add_layers, paused, zero_layers
from refclock import RefClock

BENCH_DIR = Path(__file__).resolve().parent
CROSSOVER = 0.11
RATES = (0.7, 0.8, 0.9)
# The sweep's master seed is fixed (criterion 6's seed), not drawn from
# --seed: the 3-sigma rule is a statistical check that a correct program
# fails on about 0.27% of rows per fresh seed, and a fixed seed lets every
# run also pin the CSV byte for byte.  --seed varies every other input.
SWEEP_SEED = 20230817
CHILD_TIMEOUT_S = 170

# SHA-256 of `run_plan(...).to_csv()` as produced by the commit that added
# the benchmark, keyed by plan.  A refactor of the codec core (arrays,
# batching) must keep these: the MC columns depend only on the samples,
# the region and closed-form shell sizes, not on table contents.
GOLDEN_SWEEP_SHA256 = {
    "n=4,6,8 rates=0.7,0.8,0.9 trials=500 seed=20230817":
        "91bec6b81a2d6126d3fc216ba50b568cd84ac628c914ae4f02e6f0c591d4a0b9",
    "n=10 rates=0.7,0.8,0.9 trials=1000 seed=20230817":
        "acbb42f4195450a153ca340114795fb456077ec4eb3fb0fa825ef7716fb495ab",
    "n=4 rates=0.7,0.8,0.9 trials=100 seed=20230817":
        "9485da2e06bbb540abd0d30a33fe4bb67f52c7422834b0a47199d3ada8230dfd",
}

FULL = {
    "table_build": {
        "n": 10, "rate": 0.8, "rounds": 3, "blocks": 4000, "sweeps": 2, "sweep_trials": 1000,
    },
    "cli_roundtrip": {
        "n": 8, "rate": 0.8, "letters": 100_000, "sweep_n": (4, 6, 8), "sweep_trials": 500,
        "dump_n": 10, "dump_counts": "2,3;3,2",
    },
    "mc_sweep": {
        "n_grid": (4, 6, 8), "sweeps": 4, "trials": 500, "codec_n": 8, "rate": 0.8, "blocks": 2500,
        "pool_blocks": 40_000,
    },
}

# Toy sizes for the self-test: n=4 tables, a few hundred letters and trials.
TOY = {
    "table_build": {
        "n": 4, "rate": 0.8, "rounds": 2, "blocks": 100, "sweeps": 1, "sweep_trials": 100,
    },
    "cli_roundtrip": {
        "n": 4, "rate": 0.8, "letters": 400, "sweep_n": (4,), "sweep_trials": 100,
        "dump_n": 4, "dump_counts": "1,1;1,1",
    },
    "mc_sweep": {
        "n_grid": (4,), "sweeps": 2, "trials": 100, "codec_n": 4, "rate": 0.8, "blocks": 100,
        "pool_blocks": 200,
    },
}


def _mod(name: str):
    # Resolve program names at call time, so the traced run's rebinding
    # also covers the benchmark's own calls into each layer.
    return importlib.import_module(f"compdeliv.{name}")


def identity(label, value):
    return value


# --- generated inputs ---------------------------------------------------------


def dsbs_letters(seed: int, stream: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` DSBS(0.11) letter pairs: x uniform, y = x xor Bernoulli(0.11)."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    rng = np.random.default_rng([seed, tag])
    x = rng.integers(0, 2, size=count, dtype=np.uint8)
    y = x ^ (rng.random(count) < CROSSOVER).astype(np.uint8)
    return x, y


def region_mask(x: np.ndarray, y: np.ndarray, n: int, rate: float) -> np.ndarray:
    """Per n-block: does its joint type lie in the FF decodable region?"""
    cells = (2 * x.reshape(-1, n) + y.reshape(-1, n)).astype(np.int64)
    counts = np.stack([(cells == c).sum(axis=1) for c in range(4)], axis=1)
    keys, inverse = np.unique(counts, axis=0, return_inverse=True)
    jt_cls = _mod("types_core").JointType
    inside = np.array([
        _mod("info_measures").in_decodable_region(
            jt_cls(((int(k[0]), int(k[1])), (int(k[2]), int(k[3]))), n), rate
        )
        for k in keys
    ])
    return inside[inverse.reshape(-1)]


# --- output checks ------------------------------------------------------------


def table_ok(table) -> bool:
    """Proper coloring with exactly max-degree symbols; lookups agree.

    Forward and inverse agreement on every cell implies properness: a
    repeated symbol in a row (column) would make `col_for` (`row_for`)
    return the other cell.
    """
    g = table.graph
    k = table.num_symbols
    if k != max(g.left_degree, g.right_degree):
        return False
    if len(g.edges) != g.left_size * g.left_degree or len(g.edges) != g.right_size * g.right_degree:
        return False
    symbol_at, row_for, col_for = table.symbol_at, table.row_for, table.col_for
    for i, j in g.edges:
        s = symbol_at(i, j)
        if not 0 <= s < k or row_for(j, s) != i or col_for(i, s) != j:
            return False
    return True


def plan_key(n_grid, trials: int) -> str:
    return (
        f"n={','.join(map(str, n_grid))} rates={','.join(map(str, RATES))} "
        f"trials={trials} seed={SWEEP_SEED}"
    )


def check_sweep_csv(text: str, n_grid, trials: int) -> tuple[int, int]:
    """(attempted, failed): one op per row (3-sigma rule) plus the CSV hash."""
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = len(n_grid) * len(RATES)
    failed = abs(len(rows) - expected)
    for row in rows[:expected]:
        try:
            exact, mc, stderr = (float(row[k]) for k in ("exact_e_sum", "mc_e_sum", "mc_stderr"))
        except (KeyError, TypeError, ValueError):
            failed += 1
            continue
        ok = abs(mc - exact) <= 3 * stderr if stderr > 0 else mc == exact
        failed += not ok
    digest = hashlib.sha256(text.encode()).hexdigest()
    failed += GOLDEN_SWEEP_SHA256.get(plan_key(n_grid, trials)) != digest
    return expected + 1, failed


def check_table_dump(text: str, n: int, counts: str) -> tuple[bool, int]:
    """(ok, cells) for a `dump-table` CSV: row and column degrees match the
    shell sizes, and no symbol repeats within a row or a column."""
    tc = _mod("types_core")
    jt = tc.JointType(tuple(tuple(int(v) for v in row.split(",")) for row in counts.split(";")), n)
    row_degree, col_degree = tc.v_shell_size(jt), tc.w_shell_size(jt)
    symbols = max(row_degree, col_degree)
    grid = [line.split(",") for line in text.splitlines()]
    if not grid or len({len(r) for r in grid}) != 1:
        return False, 0

    def proper(lines, degree: int) -> bool:
        for line in lines:
            syms = [int(v) for v in line if v != ""]
            if len(syms) != degree or len(set(syms)) != degree or not 0 <= min(syms) <= max(syms) < symbols:
                return False
        return True

    try:
        ok = proper(grid, row_degree) and proper(zip(*grid), col_degree)
    except ValueError:
        return False, 0
    return ok, sum(v != "" for r in grid for v in r)


# --- library-level passes shared by table_build and mc_sweep --------------------


def _chunked(clock: RefClock, call, args, chunk: int = 1000):
    """Apply `call` to each argument tuple; returns (results, reference
    seconds per chunk of `chunk` calls)."""
    args = list(args)
    results, parts = [], []
    for k in range(0, len(args), chunk):
        done, seconds = clock.time(lambda: [call(*a) for a in args[k:k + chunk]])
        results.extend(done)
        parts.append(seconds)
    return results, parts


def codec_pass(n: int, rate: float, x: np.ndarray, y: np.ndarray, tracer=None):
    """FF and FV encode plus both-side decode of n-blocks through the library.

    Returns (samples, attempted, failed); one op per block per code.
    """
    clock = RefClock()
    tc, ff, fv = _mod("types_core"), _mod("ff_codec"), _mod("fv_codec")
    ax = tc.Alphabet(2)
    xs = [tc.Sequence(tuple(r), ax) for r in x.reshape(-1, n).tolist()]
    ys = [tc.Sequence(tuple(r), ax) for r in y.reshape(-1, n).tolist()]
    blocks = len(xs)
    letters = blocks * n
    cfg = ff.FFCodeConfig(n, rate)
    try:
        ff_words, ff_enc = _chunked(clock, lambda a, b: ff.ff_encode(cfg, a, b), zip(xs, ys))
        ff_x, ff_dec_x = _chunked(clock, lambda w, b: ff.ff_decode_x(cfg, w, b), zip(ff_words, ys))
        ff_y, ff_dec_y = _chunked(clock, lambda w, a: ff.ff_decode_y(cfg, w, a), zip(ff_words, xs))
        fv_words, fv_enc = _chunked(clock, lambda a, b: fv.fv_encode(n, a, b), zip(xs, ys))
        fv_x, fv_dec_x = _chunked(clock, fv.fv_decode_x, zip(fv_words, ys))
        fv_y, fv_dec_y = _chunked(clock, fv.fv_decode_y, zip(fv_words, xs))
    except Exception as exc:  # a raised program error fails every block of the pass
        print(f"codec pass n={n}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return {}, 2 * blocks, 2 * blocks
    with paused(tracer):
        inside = region_mask(x, y, n, rate)
        flagged = sum(w.error_flag for w in ff_words)
        failed = 0
        for k in range(blocks):
            if ff_words[k].error_flag == bool(inside[k]):
                failed += 1
            elif inside[k] and (ff_x[k] != xs[k] or ff_y[k] != ys[k]):
                failed += 1
            failed += fv_x[k] != xs[k] or fv_y[k] != ys[k]
        width = ff.make_code(cfg).codeword_width
        fv_bits = sum(len(w) for w in fv_words)
    metrics = {
        "ff_encode_letters_per_s": (letters, ff_enc),
        "ff_decode_letters_per_s": (2 * letters, ff_dec_x + ff_dec_y),
        "fv_encode_letters_per_s": (letters, fv_enc),
        "fv_decode_letters_per_s": (2 * letters, fv_dec_x + fv_dec_y),
        "ff_bits_per_letter": width / n,
        "fv_bits_per_letter": (fv_bits, letters),
        "ff_flagged_share": (flagged, blocks),
    }
    return metrics, 2 * blocks, failed


def sweep_pass(n_grid, trials: int, tracer=None, tamper=identity):
    """`run_plan` on DSBS(0.11) at the fixed master seed; returns
    ((trials, reference seconds), attempted, failed)."""
    im, sim = _mod("info_measures"), _mod("simulator")
    plan = sim.TrialPlan(
        p=im.dsbs(CROSSOVER), n_grid=tuple(n_grid), rates=RATES, trials=trials,
        master_seed=SWEEP_SEED,
    )
    clock = RefClock()
    clock.start()
    try:
        text = sim.run_plan(plan).to_csv()
    except Exception as exc:  # e.g. DecoderDesyncError: the rows are lost
        print(f"sweep {plan_key(n_grid, trials)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        text = ""
    elapsed = clock.stop()
    with paused(tracer):
        attempted, failed = check_sweep_csv(tamper("sweep_csv", text), n_grid, trials)
    return (len(n_grid) * len(RATES) * trials, [elapsed]), attempted, failed


# --- fresh processes ------------------------------------------------------------


class Children:
    """Runs `child.py` in fresh interpreters and collects their reports."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def run(self, mode: str, args, trace: bool = False):
        """Returns (seconds, exit code, report or None, stderr).

        For `probe` and `cli` the seconds are the child's wall time,
        start-up included, on the reference clock: the child samples its
        speed from start to end and reports it with its probe time.
        Otherwise (or without a report) they are raw wall seconds."""
        self.count += 1
        report = self.work / f"report-{self.count}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(report), str(int(trace)), *args]
        t0 = perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        wall = perf_counter() - t0
        data = json.loads(report.read_text()) if report.exists() else None
        if data is not None and "speed" in data:
            wall = (wall - data["probe_s"]) * data["speed"]
        if proc.returncode != 0 and mode != "cli":
            print(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return wall, proc.returncode, data, proc.stderr


@dataclass
class Rep:
    """One measured repetition: metric samples (one dict per round), op
    counts, wall time and, when traced, per-layer metrics.

    A ratio sample is an (amount, base) pair, such as (letters, seconds)
    or (flagged blocks, blocks); any other sample is a plain value.
    """

    wall: float
    samples: list
    attempted: int
    failed: int
    layers: dict | None = None


# --- workloads ------------------------------------------------------------------


class TableBuild:
    # A set-up is one short fresh process; several per repetition steady
    # the median.
    setups_per_rep = 5

    def __init__(self, size: dict, seed: int, work: Path, tamper=identity):
        self.size, self.seed = size, seed
        self.children = Children(work)
        self.reps = 0

    def bases(self) -> dict:
        n = self.size["n"]
        return {
            "n": n, "tables": math.comb(n + 3, 3), "cells_per_rep": 4 ** n,
            "rounds_per_rep": self.size["rounds"], "codec_blocks_per_round": self.size["blocks"],
            "codec_letters_per_round": self.size["blocks"] * n,
            "sweep_trials_per_round": self.size["sweeps"] * len(RATES) * self.size["sweep_trials"],
        }

    def setup(self) -> dict:
        """A fresh interpreter imports compdeliv and enumerates the joint types."""
        wall, code, _, _ = self.children.run("probe", [str(self.size["n"])])
        if code != 0:
            raise RuntimeError("set-up probe failed")
        return {"setup_s": wall}

    def rep(self, trace: bool) -> Rep:
        cfg = dict(self.size, seed=self.seed, rep=self.reps)
        self.reps += 1
        wall, code, data, _ = self.children.run("table", [json.dumps(cfg)], trace)
        tables = math.comb(self.size["n"] + 3, 3)
        if code != 0 or data is None:
            return Rep(wall, [], tables, tables)
        samples = data["samples"]
        samples[0]["peak_rss_mb"] = data["maxrss_kb"] / 1024
        return Rep(wall, samples, data["attempted"], data["failed"], data.get("layers"))


class CliRoundtrip:
    setups_per_rep = 3
    FLAGGED_ENCODE = re.compile(r"(\d+) block\(s\) flagged as encoding errors")
    FLAGGED_DECODE = re.compile(r"(\d+) flagged block\(s\)")

    def __init__(self, size: dict, seed: int, work: Path, tamper=identity):
        self.size, self.seed, self.work, self.tamper = size, seed, work, tamper
        self.children = Children(work)
        self.x = self.y = self.inside = None

    def bases(self) -> dict:
        s = self.size
        return {
            "n": s["n"], "letters_per_command": s["letters"],
            "blocks_per_command": -(-s["letters"] // s["n"]),
            "sweep_trials_per_rep": len(s["sweep_n"]) * len(RATES) * s["sweep_trials"],
            "dump_table": f"n={s['dump_n']} counts={s['dump_counts']}",
        }

    def _write_inputs(self) -> None:
        self.x, self.y = dsbs_letters(self.seed, "cli_roundtrip", self.size["letters"])
        (self.work / "x.bin").write_bytes(self.x.tobytes())
        (self.work / "y.bin").write_bytes(self.y.tobytes())

    def setup(self) -> dict:
        """Generate and write the letter files; a fresh interpreter imports the CLI."""
        _, write_s = RefClock().time(self._write_inputs)
        probe_s, code, _, _ = self.children.run("probe", [str(self.size["n"])])
        if code != 0:
            raise RuntimeError("set-up probe failed")
        return {"setup_s": write_s + probe_s}

    def _path(self, name: str) -> str:
        return str(self.work / name)

    def _read(self, name: str) -> bytes:
        path = self.work / name
        return self.tamper(f"file:{name}", path.read_bytes() if path.exists() else b"")

    def rep(self, trace: bool) -> Rep:
        s, p = self.size, self._path
        n, letters = s["n"], s["letters"]
        commands = {}
        for mode in ("ff", "fv"):
            rate = ["--rate", str(s["rate"])] if mode == "ff" else []
            commands[f"{mode}_enc"] = [
                "encode", "--mode", mode, "--n", str(n), *rate, "--input-x", p("x.bin"),
                "--input-y", p("y.bin"), "--out", p(f"{mode}.cdlv"),
            ]
            for side, info in (("x", "y.bin"), ("y", "x.bin")):
                commands[f"{mode}_dec_{side}"] = [
                    "decode", "--side", side, "--codeword", p(f"{mode}.cdlv"),
                    "--side-info", p(info), "--out", p(f"{mode}_{side}.bin"),
                ]
        commands["sweep"] = [
            "sweep", "--source", f"dsbs:{CROSSOVER}", "--n", ",".join(map(str, s["sweep_n"])),
            "--rate", ",".join(map(str, RATES)), "--trials", str(s["sweep_trials"]),
            "--seed", str(SWEEP_SEED), "--out", p("sweep.csv"),
        ]
        commands["dump"] = [
            "dump-table", "--n", str(s["dump_n"]), "--counts", s["dump_counts"], "--out", p("table.csv"),
        ]
        for name in ("ff.cdlv", "fv.cdlv", "ff_x.bin", "ff_y.bin", "fv_x.bin", "fv_y.bin",
                     "sweep.csv", "table.csv"):
            (self.work / name).unlink(missing_ok=True)

        t0 = perf_counter()
        runs = {key: self.children.run("cli", argv, trace) for key, argv in commands.items()}
        wall = perf_counter() - t0  # raw, for the tracing overhead
        ok = {key: code == 0 for key, (_, code, _, _) in runs.items()}

        if self.inside is None:
            self.inside = region_mask(self.x, self.y, n, s["rate"])
        expected_flagged = int((~self.inside).sum())
        pad = -letters % n
        x_pad = np.concatenate([self.x, np.zeros(pad, np.uint8)]).reshape(-1, n)
        y_pad = np.concatenate([self.y, np.zeros(pad, np.uint8)]).reshape(-1, n)
        printed = {}
        for key, pattern in (("ff_enc", self.FLAGGED_ENCODE), ("ff_dec_x", self.FLAGGED_DECODE),
                             ("ff_dec_y", self.FLAGGED_DECODE)):
            m = pattern.search(runs[key][3])
            printed[key] = int(m.group(1)) if m else 0
            ok[key] &= printed[key] == expected_flagged
        for side, truth in (("x", x_pad), ("y", y_pad)):
            out = np.frombuffer(self._read(f"ff_{side}.bin"), np.uint8)
            if out.size != letters:
                ok[f"ff_dec_{side}"] = False
            else:
                got = np.concatenate([out, np.zeros(pad, np.uint8)]).reshape(-1, n)
                ok[f"ff_dec_{side}"] &= bool((got[self.inside] == truth[self.inside]).all())
        ok["fv_dec_x"] &= self._read("fv_x.bin") == self.x.tobytes()
        ok["fv_dec_y"] &= self._read("fv_y.bin") == self.y.tobytes()
        sweep_ops, sweep_failed = check_sweep_csv(
            self._read("sweep.csv").decode(errors="replace"), s["sweep_n"], s["sweep_trials"]
        )
        ok["sweep"] &= sweep_failed == 0
        dump_ok, cells = check_table_dump(
            self._read("table.csv").decode(errors="replace"), s["dump_n"], s["dump_counts"]
        )
        ok["dump"] &= dump_ok

        t = {key: r[0] for key, r in runs.items()}
        metrics = {
            "ff_encode_letters_per_s": (letters, [t["ff_enc"]]),
            "ff_decode_letters_per_s": (2 * letters, [t["ff_dec_x"], t["ff_dec_y"]]),
            "fv_encode_letters_per_s": (letters, [t["fv_enc"]]),
            "fv_decode_letters_per_s": (2 * letters, [t["fv_dec_x"], t["fv_dec_y"]]),
            "ff_bits_per_letter": (8 * len(self._read("ff.cdlv")), letters),
            "fv_bits_per_letter": (8 * len(self._read("fv.cdlv")), letters),
            "ff_flagged_share": (printed["ff_enc"], x_pad.shape[0]),
            "sweep_trials_per_s": (len(s["sweep_n"]) * len(RATES) * s["sweep_trials"], [t["sweep"]]),
            "table_cells_per_s": (cells, [t["dump"]]),
        }
        reports = [r[2] for r in runs.values() if r[2] is not None]
        if reports:
            metrics["peak_rss_mb"] = max(r["maxrss_kb"] for r in reports) / 1024
        layers = None
        if trace:
            layers = zero_layers()
            for r in reports:
                add_layers(layers, r.get("layers") or {})
        failed = sum(not v for v in ok.values())
        return Rep(wall, [metrics], len(ok), failed, layers)


class McSweep:
    setups_per_rep = 1

    def __init__(self, size: dict, seed: int, work: Path, tamper=identity):
        self.size, self.seed, self.tamper = size, seed, tamper
        self.x = self.y = None
        self.reps = 0

    def bases(self) -> dict:
        s = self.size
        return {
            "n_grid": list(s["n_grid"]), "rates": list(RATES), "sweeps_per_rep": s["sweeps"],
            "trials_per_row": s["trials"],
            "sweep_trials_per_rep": len(s["n_grid"]) * len(RATES) * s["trials"] * s["sweeps"],
            "setup_cells": sum(4 ** n for n in s["n_grid"]),
            "codec_n": s["codec_n"], "codec_blocks_per_rep": s["blocks"],
            "codec_letters_per_rep": s["blocks"] * s["codec_n"], "block_pool": s["pool_blocks"],
        }

    def setup(self) -> dict:
        """Cold caches, then every table of every grid n, the codes and the inputs."""
        s = self.size
        mods = [importlib.import_module("compdeliv")] + [
            _mod(m) for m in ("types_core", "info_measures", "coding_table", "ff_codec",
                              "fv_codec", "simulator")
        ]
        for mod in mods:
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
        tc, ct, ff, fv = _mod("types_core"), _mod("coding_table"), _mod("ff_codec"), _mod("fv_codec")
        clock = RefClock()

        def build(n: int) -> int:
            jts = tc.enumerate_joint_types(n, tc.Alphabet(2), tc.Alphabet(2))
            return sum(len(ct.get_coding_table(jt).graph.edges) for jt in jts)

        def codes_and_inputs() -> None:
            for n in s["n_grid"]:
                fv.make_fv_code(n)
                for rate in RATES:
                    ff.make_code(ff.FFCodeConfig(n, rate))
            fv.make_fv_code(s["codec_n"])
            self.x, self.y = dsbs_letters(self.seed, "mc_sweep", s["pool_blocks"] * s["codec_n"])

        cells, build_s = 0, []
        for n in s["n_grid"]:
            count, seconds = clock.time(build, n)
            cells += count
            build_s.append(seconds)
        _, rest_s = clock.time(codes_and_inputs)
        return {"setup_s": sum(build_s) + rest_s, "table_cells_per_s": (cells, build_s)}

    def rep(self, trace: bool) -> Rep:
        s = self.size
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
            tracer.begin()
        try:
            t0 = perf_counter()
            # Several short sweeps, each its own part on the reference clock.
            trials, sweep_s, attempted, failed = 0, [], 0, 0
            for _ in range(s["sweeps"]):
                (amount, parts), ops, bad = sweep_pass(s["n_grid"], s["trials"], tracer, self.tamper)
                trials, sweep_s = trials + amount, sweep_s + parts
                attempted, failed = attempted + ops, failed + bad
            # Each repetition codes the next slice of the seeded block pool.
            span = s["blocks"] * s["codec_n"]
            start = self.reps * span % len(self.x)
            self.reps += 1
            x, y = self.x[start:start + span], self.y[start:start + span]
            metrics, codec_ops, codec_failed = codec_pass(s["codec_n"], s["rate"], x, y, tracer)
            wall = perf_counter() - t0
            layers = tracer.finish() if tracer else None
        finally:
            if tracer:
                tracer.uninstall()
        metrics["sweep_trials_per_s"] = (trials, sweep_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return Rep(wall, [metrics], attempted + codec_ops, failed + codec_failed, layers)


WORKLOADS = {"table_build": TableBuild, "cli_roundtrip": CliRoundtrip, "mc_sweep": McSweep}


def combine(samples: list[dict]) -> dict:
    """One run-level value per metric from its per-repetition samples.

    A throughput (`*_per_s`) sample is (amount, reference seconds of each
    part: a group of tables, a chunk of blocks, a command, a sweep); the
    run divides the total amount by the total reference seconds (see
    `refclock`).  Other (amount, base) ratios are totals over totals;
    plain values take the median.
    """
    out = {}
    for name in {name for sample in samples for name in sample}:
        values = [s[name] for s in samples if name in s]
        if name.endswith("_per_s"):
            out[name] = sum(a for a, _ in values) / sum(sum(parts) for _, parts in values)
        elif isinstance(values[0], (tuple, list)):
            out[name] = sum(a for a, _ in values) / sum(t for _, t in values)
        else:
            out[name] = median(values)
    return out
