"""Self-test of the benchmark at toy sizes (n=4 tables, a few hundred
letters and trials); takes well under a minute.

    python3 benchmarks/selftest.py

Checks that every workload, untraced and traced, emits exactly the
metrics BENCHMARK.json names, each with its unit and a finite value, and
that the output checks catch damage: a corrupted decoded file and a
tampered sweep CSV must each count as a failed operation.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(f"[{'PASS' if cond else 'FAIL'}] {message}")
    if not cond:
        failures.append(message)


def toy_run(workload: str, trace: bool, tamper=None) -> dict:
    result, _ = run.run_workload(workload, 1, 1, trace, workloads.TOY[workload], tamper)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in workloads.WORKLOADS:
            result = toy_run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            values = [m["value"] for m in result["metrics"].values()]
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{workload} trace={int(trace)}: correct, attempted {result['attempted']}, "
                f"failed {result['failed']}",
            )
            expect(got == wanted, f"{workload} trace={int(trace)}: every {kind} metric with its unit")
            expect(
                all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                f"{workload} trace={int(trace)}: finite values",
            )

    def corrupt_decoded(label, value):
        if label == "file:fv_x.bin" and value:
            return bytes([value[0] ^ 1]) + value[1:]
        return value

    result = toy_run("cli_roundtrip", False, corrupt_decoded)
    expect(result["failed"] >= 1 and not result["correct"],
           f"corrupted decoded file counted as failure (failed {result['failed']})")

    def tamper_csv(label, value):
        if label == "sweep_csv":
            return value.replace("0.", "1.", 1)
        return value

    result = toy_run("mc_sweep", False, tamper_csv)
    expect(result["failed"] >= 1 and not result["correct"],
           f"tampered sweep CSV counted as failure (failed {result['failed']})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
