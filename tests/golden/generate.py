"""Write the golden fixtures that pin today's tables and codewords.

    PYTHONPATH=src python3 tests/golden/generate.py [tables|codec|codec_3x2|codec_n17|sweep|analytics ...]

writes the fixtures named on the command line, and all of them when none
is named.  `tests/test_golden.py` checks every build against these files, so a
refactor must reproduce them bit for bit.  Regenerate them only together
with a deliberate change of the tables or of the file format (and a bump
of the file-format VERSION).

- tables.json: SHA-256 of the `dump_csv` grid of every joint type's
  colored table, binary for n <= 8 and a 3x2 alphabet for n <= 5; and,
  past that range where the recoloring chains run longer, one SHA-256
  per set of `BUFFER_SETS` over its tables' `col_of` and `row_of`
  buffers (keys starting "buffers ").
- sweep.json: SHA-256 of the CSV report of criterion 6's Monte-Carlo
  plan (DSBS(0.11), n in 4..10, three rates, 100k trials per row; a few
  seconds), of the benchmark's mc_sweep plan (n in 4..8, 500 trials), and
  of two plans of sources with zero cells at n in 2..4, 2,000 trials per
  row: a 3x2 source whose last cell is 0 (its letters counted by
  comparison) and a 3x3 source (its letters found by `searchsorted`).
- codec.json: a seeded DSBS(0.11) letter pair of 403 letters (the last
  n=8 block is short), its FF(rate 0.8) and FV codeword files as the CLI
  writes them, the decoded output of both sides, and the bits of the
  `WrappedFVCode` codeword of each zero-padded block.
- codec_3x2.json: a seeded pair of 599 letters, x over 3 letters and y
  over 2 (the last block is short at both n), its FF (n=5, rate 1.0)
  and FV (n=6) codeword files as the CLI writes them, and the decoded
  output of both sides.
- codec_n17.json: a seeded binary pair of 200 sparse n=17 blocks, its FF
  (rate 1.0) and FV codeword files as the CLI writes them, the decoded
  output of both sides, and the scalar ranks of seeded members and
  members at seeded ranks of the class (10, 9).  Every other fixture
  stays inside the rank maps, the code table and the count code; this
  one is past all three.
- analytics.json: `float.hex` of the exponent scans (value and argmin
  type), the seven error, correct-decoding, overflow and underflow
  bounds, the exact FF error probability and the exact FV overflow and
  underflow probabilities at every rate of `ANALYTICS_RATES`, and the
  expected FV length, for DSBS(0.11) at binary n <= 8 and n = 32, a 2x3
  source with a zero cell and a 3x3 source with zero cells at n <= 5;
  the exponent scans alone of DSBS(0.11) at n = 48; and a SHA-256 of
  `make_code(...).region_index` at rates where types tie the rate
  exactly (`REGION_TIES`), so that `RATE_TIE_TOL` alone decides them.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from compdeliv.cli import main
from compdeliv.coding_table import get_coding_table
from compdeliv import info_measures
from compdeliv.ff_codec import FFCodeConfig, exact_error_probability, make_code
from compdeliv.fv_codec import expected_length, overflow_probability, underflow_probability, wrap_ff_as_fv
from compdeliv.info_measures import SourceSpec, achievable_rate, dsbs
from compdeliv.simulator import TrialPlan, run_plan
from compdeliv.types_core import (
    Alphabet,
    Sequence,
    TypeVector,
    enumerate_joint_types,
    rank_in_type_class,
    type_class_size,
    unrank_in_type_class,
    v_shell_size,
)

GOLDEN_DIR = Path(__file__).resolve().parent
TABLE_ALPHABETS = ((2, 2, 8), (3, 2, 5))  # (kx, ky, largest n)
CODEC_N, CODEC_RATE, CODEC_LETTERS, CODEC_SEED = 8, 0.8, 403, 2007


def table_key(kx: int, ky: int, jt) -> str:
    counts = ";".join(",".join(map(str, row)) for row in jt.counts)
    return f"{kx}x{ky} n={jt.n} {counts}"


def table_digest(jt) -> str:
    buf = io.StringIO()
    get_coding_table(jt).dump_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def table_hashes() -> dict[str, str]:
    out = {}
    for kx, ky, n_max in TABLE_ALPHABETS:
        for n in range(1, n_max + 1):
            for jt in enumerate_joint_types(n, Alphabet(kx), Alphabet(ky)):
                out[table_key(kx, ky, jt)] = table_digest(jt)
    return out


def _cells(jt) -> int:
    return type_class_size(jt.x_marginal()) * v_shell_size(jt)


def _largest(n: int, kx: int, ky: int, count: int):
    """The `count` joint types with the most cells, ties in enumeration order."""
    return sorted(enumerate_joint_types(n, Alphabet(kx), Alphabet(ky)), key=_cells, reverse=True)[:count]


# Table sets pinned by their slot buffers: name -> the joint types, in order.
BUFFER_SETS = {
    "buffers 2x2 n=9": lambda: enumerate_joint_types(9, Alphabet(2), Alphabet(2)),
    "buffers 3x3 n<=3": lambda: [jt for n in (1, 2, 3) for jt in enumerate_joint_types(n, Alphabet(3), Alphabet(3))],
    "buffers 2x2 n=10 largest 3": lambda: _largest(10, 2, 2, 3),
}


def buffer_digest(types) -> str:
    """SHA-256 over the `col_of` then `row_of` bytes of each table in turn."""
    h = hashlib.sha256()
    for jt in types:
        t = get_coding_table(jt)
        h.update(t.col_of.tobytes())
        h.update(t.row_of.tobytes())
    return h.hexdigest()


def buffer_hashes() -> dict[str, str]:
    return {name: buffer_digest(types()) for name, types in BUFFER_SETS.items()}


def letter_pair() -> tuple[bytes, bytes]:
    rng = np.random.default_rng(CODEC_SEED)
    x = rng.integers(0, 2, size=CODEC_LETTERS, dtype=np.uint8)
    y = x ^ (rng.random(CODEC_LETTERS) < 0.11).astype(np.uint8)
    return x.tobytes(), y.tobytes()


def padded_blocks(data: bytes, n: int):
    for i in range(0, len(data), n):
        block = tuple(data[i:i + n])
        yield Sequence(block + (0,) * (n - len(block)), Alphabet(2))


def run_cli(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise SystemExit(f"compdeliv {' '.join(argv)} exited {code}")


def cli_files(x: bytes, y: bytes, codes: dict, kx: int = 2, ky: int = 2) -> dict:
    """For each mode of `codes` (mode -> (n, rate or None)), the codeword file
    of the letter files x and y as the CLI writes it (key: mode) and its
    decoded output of each side (key: mode_decoded_side), as hex."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "x.bin").write_bytes(x)
        (d / "y.bin").write_bytes(y)
        for mode, (n, rate) in codes.items():
            rate = ["--rate", str(rate)] if rate is not None else []
            run_cli(["encode", "--mode", mode, "--n", str(n), *rate, "--kx", str(kx), "--ky", str(ky),
                     "--input-x", str(d / "x.bin"), "--input-y", str(d / "y.bin"),
                     "--out", str(d / f"{mode}.cdlv")])
            out[mode] = (d / f"{mode}.cdlv").read_bytes().hex()
            for side, side_info in (("x", "y.bin"), ("y", "x.bin")):
                run_cli(["decode", "--side", side, "--codeword", str(d / f"{mode}.cdlv"),
                         "--side-info", str(d / side_info), "--out", str(d / "out.bin")])
                out[f"{mode}_decoded_{side}"] = (d / "out.bin").read_bytes().hex()
    return out


def codec_fixture() -> dict:
    x, y = letter_pair()
    out = {
        "n": CODEC_N, "rate": CODEC_RATE, "seed": CODEC_SEED,
        "x": x.hex(), "y": y.hex(),
        **cli_files(x, y, {"ff": (CODEC_N, CODEC_RATE), "fv": (CODEC_N, None)}),
    }
    wrapped = wrap_ff_as_fv(FFCodeConfig(CODEC_N, CODEC_RATE))
    words = [wrapped.encode(bx, by) for bx, by in zip(padded_blocks(x, CODEC_N), padded_blocks(y, CODEC_N))]
    out["wrapped"] = [format(cw.value, f"0{cw.length}b") for cw in words]
    return out


# The 3x2 files: mode -> (n, rate or None).  y is x's low bit, flipped
# with probability 0.1.
CODES_3X2, LETTERS_3X2, SEED_3X2 = {"ff": (5, 1.0), "fv": (6, None)}, 599, 2008


def codec_3x2_fixture() -> dict:
    rng = np.random.default_rng(SEED_3X2)
    x = rng.integers(0, 3, size=LETTERS_3X2, dtype=np.uint8)
    y = (x & 1) ^ (rng.random(LETTERS_3X2) < 0.1).astype(np.uint8)
    x, y = x.tobytes(), y.tobytes()
    codes = {mode: [n, rate] for mode, (n, rate) in CODES_3X2.items()}
    return {"codes": codes, "seed": SEED_3X2, "x": x.hex(), "y": y.hex(), **cli_files(x, y, CODES_3X2, 3, 2)}


# The n=17 files: binary blocks past the code table (2^17 codes) and the
# count code (18^4 count codes).  Each x block holds 0 to 3 ones, and y
# is x with each letter flipped with probability 0.08.  The class (10, 9)
# has 92,378 members, past the scalar rank maps.  The seed is the first
# from 2009 whose pair's largest table has under 2^23 slots (5.7 M; 0.8 M
# cells in all), so the check peaks near 130 MB: most seeds draw a block
# of 5 or more flips, whose table has 20 M to 156 M slots, dense.  Seed
# 2009's pair (tests/test_cli.py) stores that side by edge.
CODES_N17, BLOCKS_N17, SEED_N17, CLASS_N17, SAMPLES_N17 = {"ff": (17, 1.0), "fv": (17, None)}, 200, 2052, (10, 9), 50


def n17_pair(rng: np.random.Generator) -> tuple[bytes, bytes]:
    """The letter files of the n=17 fixture, drawn from `rng`."""
    x = np.zeros((BLOCKS_N17, 17), np.uint8)
    for block, ones in zip(x, rng.integers(0, 4, size=BLOCKS_N17)):
        block[rng.choice(17, size=ones, replace=False)] = 1
    x = x.ravel()
    y = x ^ (rng.random(x.size) < 0.08).astype(np.uint8)
    return x.tobytes(), y.tobytes()


def codec_n17_fixture() -> dict:
    rng = np.random.default_rng(SEED_N17)
    x, y = n17_pair(rng)
    q, alphabet = TypeVector(CLASS_N17, sum(CLASS_N17)), Alphabet(len(CLASS_N17))
    base = np.repeat(np.arange(len(CLASS_N17)), CLASS_N17)
    members = ["".join(map(str, rng.permutation(base).tolist())) for _ in range(SAMPLES_N17)]
    ranks = rng.integers(0, type_class_size(q), size=SAMPLES_N17).tolist()
    return {
        "codes": {mode: [n, rate] for mode, (n, rate) in CODES_N17.items()}, "seed": SEED_N17,
        "x": x.hex(), "y": y.hex(), **cli_files(x, y, CODES_N17),
        "class": list(CLASS_N17),
        "members": members,
        "member_ranks": [rank_in_type_class(Sequence(tuple(map(int, m)), alphabet)) for m in members],
        "ranks": ranks,
        "unranked": ["".join(map(str, unrank_in_type_class(q, r).letters)) for r in ranks],
    }


# The plan of tests/test_acceptance.py::test_criterion_6_monte_carlo_consistency,
# the benchmark's mc_sweep plan (a fast guard: about 20 ms), and two sources
# with zero cells at small n: 3x2 (6 cells) whose last cell is 0, and 3x3
# (9 cells), on either side of `simulator._COMPARED_CELLS`.
SWEEP_PLANS = {
    "criterion_6": (
        "dsbs(0.11) n=4,6,8,10 rates=0.7,0.8,0.9 trials=100000 seed=20230817",
        TrialPlan(p=dsbs(0.11), n_grid=(4, 6, 8, 10), rates=(0.7, 0.8, 0.9), trials=100_000, master_seed=20230817),
    ),
    "mc_sweep": (
        "dsbs(0.11) n=4,6,8 rates=0.7,0.8,0.9 trials=500 seed=20230817",
        TrialPlan(p=dsbs(0.11), n_grid=(4, 6, 8), rates=(0.7, 0.8, 0.9), trials=500, master_seed=20230817),
    ),
    "3x2 zero cell": (
        "((0.3,0.05),(0.25,0.2),(0.2,0.0)) n=2,3,4 rates=0.5,1.0 trials=2000 seed=31",
        TrialPlan(p=SourceSpec(((0.3, 0.05), (0.25, 0.2), (0.2, 0.0))), n_grid=(2, 3, 4), rates=(0.5, 1.0),
                  trials=2000, master_seed=31),
    ),
    "3x3 zero cells": (
        "((0.3,0.0,0.05),(0.1,0.2,0.0),(0.0,0.15,0.2)) n=2,3,4 rates=0.5,0.8 trials=2000 seed=9",
        TrialPlan(p=SourceSpec(((0.3, 0.0, 0.05), (0.1, 0.2, 0.0), (0.0, 0.15, 0.2))), n_grid=(2, 3, 4),
                  rates=(0.5, 0.8), trials=2000, master_seed=9),
    ),
}


def sweep_digest(plan: TrialPlan) -> str:
    return hashlib.sha256(run_plan(plan).to_csv().encode()).hexdigest()


def sweep_fixture() -> dict:
    return {name: {"plan": text, "csv_sha256": sweep_digest(plan)} for name, (text, plan) in SWEEP_PLANS.items()}


# Sources of analytics.json: name -> (source, block lengths).  At binary
# n <= 8, epsilon_n exceeds 1 bit, so the bounds taken at rate + epsilon_n
# are 0; at n = 32 they are not for rate 0.25.  The rates past 1.6 put
# rate - epsilon_n inside [0, 1.6] at the small n.
ANALYTICS_SOURCES = {
    "dsbs(0.11)": (dsbs(0.11), (*range(1, 9), 32)),
    "2x3 zero cell": (SourceSpec(((0.3, 0.0, 0.2), (0.1, 0.25, 0.15))), tuple(range(1, 6))),
    "3x3 zero cells": (SourceSpec(((0.3, 0.0, 0.05), (0.1, 0.2, 0.0), (0.0, 0.15, 0.2))), tuple(range(1, 6))),
}
# Longer blocks of a source of `ANALYTICS_SOURCES` at which only the exponent scans are pinned.
ANALYTICS_SCANS = {"dsbs(0.11)": (48,)}
# Exact ties: name -> (alphabet sizes, block lengths, rate).  At rate 0.7, 16
# binary types of n <= 40 have max{H(X|Y), H(Y|X)} equal to 0.7; at rate 1.2,
# 108 3x3 types of n <= 5 equal 1.2.  The float rate lies just below each
# decimal, so only RATE_TIE_TOL keeps those types inside the region.
REGION_TIES = {"2x2": ((2, 2), range(1, 41), 0.7), "3x3": ((3, 3), range(1, 6), 1.2)}
ANALYTICS_RATES = (0.25, 0.5, 0.7, 0.8, 0.9, 1.0, 1.3, 1.6, 2.0, 3.0, 4.0)
EXPONENT_SCANS = ("error_exponent_outside", "correct_exponent_inside", "converse_correct_exponent")
BOUNDS = (
    "error_sum_upper_bound", "error_sum_lower_bound",
    "correct_decoding_lower_bound", "correct_decoding_upper_bound",
    "overflow_upper_bound", "overflow_lower_bound", "underflow_upper_bound",
)


def hex_float(x) -> str:
    """`float.hex` of x; an empty sum (the int 0) reads as 0.0."""
    return float.hex(float(x))


def exponent_scans(p: SourceSpec, n: int, rate: float) -> dict:
    """The exponent scans of (p, n, rate): each value as `hex_float` text and
    the counts of its argmin type (None for an empty scan)."""
    out = {}
    for name in EXPONENT_SCANS:
        report = getattr(info_measures, name)(rate, p, n)
        argmin = report.argmin_type and [list(row) for row in report.argmin_type.counts]
        out[name] = [hex_float(report.value), argmin]
    return out


def analytics_point(p: SourceSpec, n: int, rate: float) -> dict:
    """Every analytic quantity of (p, n, rate), as `hex_float` text: the
    `exponent_scans`, the bounds and the exact probabilities."""
    out = exponent_scans(p, n, rate)
    for name in BOUNDS:
        out[name] = hex_float(getattr(info_measures, name)(rate, p, n))
    err = exact_error_probability(FFCodeConfig(n, rate, p.ax, p.ay), p)
    out["exact_error_probability"] = [hex_float(err.e_x), hex_float(err.e_y)]
    out["overflow_probability"] = hex_float(overflow_probability(n, rate, p))
    out["underflow_probability"] = hex_float(underflow_probability(n, rate, p))
    return out


def analytics_entries(name: str) -> dict:
    """The analytics.json entries of one source of `ANALYTICS_SOURCES`."""
    p, lengths = ANALYTICS_SOURCES[name]
    out = {name: {"achievable_rate": hex_float(achievable_rate(p))}}
    for n in lengths:
        out[f"{name} n={n}"] = {"expected_length": hex_float(expected_length(n, p))}
        for rate in ANALYTICS_RATES:
            out[f"{name} n={n} rate={rate}"] = analytics_point(p, n, rate)
    for n in ANALYTICS_SCANS.get(name, ()):
        for rate in ANALYTICS_RATES:
            out[f"{name} n={n} rate={rate} scans"] = exponent_scans(p, n, rate)
    return out


def region_digests(name: str) -> dict:
    """SHA-256 of the little-endian int64 `region_index` of each code of `REGION_TIES[name]`."""
    (kx, ky), lengths, rate = REGION_TIES[name]
    out = {}
    for n in lengths:
        region_index = make_code(FFCodeConfig(n, rate, Alphabet(kx), Alphabet(ky))).region_index
        out[f"region {name} n={n} rate={rate}"] = hashlib.sha256(region_index.astype("<i8").tobytes()).hexdigest()
    return out


def analytics_fixture() -> dict:
    entries = [analytics_entries(name) for name in ANALYTICS_SOURCES] + [region_digests(name) for name in REGION_TIES]
    return {key: value for part in entries for key, value in part.items()}


def write_json(name: str, obj) -> None:
    (GOLDEN_DIR / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


# Fixture name -> its contents; each is written to <name>.json.
FIXTURES = {
    "tables": lambda: {**table_hashes(), **buffer_hashes()},
    "codec": codec_fixture,
    "codec_3x2": codec_3x2_fixture,
    "codec_n17": codec_n17_fixture,
    "sweep": sweep_fixture,
    "analytics": analytics_fixture,
}


if __name__ == "__main__":
    names = sys.argv[1:] or list(FIXTURES)
    unknown = [name for name in names if name not in FIXTURES]
    if unknown:
        raise SystemExit(f"unknown fixture {', '.join(unknown)}; choose from {', '.join(FIXTURES)}")
    for name in names:
        write_json(f"{name}.json", FIXTURES[name]())
