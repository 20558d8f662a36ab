"""Fresh-process side of the benchmark.

    python3 child.py probe <report> <trace> <n>
        import compdeliv and enumerate the binary joint types of length n
    python3 child.py table <report> <trace> <config json>
        build every binary table of length n in enumerate_joint_types
        order, check them, then run rounds of an n-block codec pass and
        a sweep
    python3 child.py cli <report> <trace> <compdeliv arguments...>
        run one `compdeliv` command as a user would, exit with its code

With trace 1 the layers are wrapped after import and before the timed
work; the per-layer sums go into the JSON report with the peak RSS.
`probe` and `cli` also report the mean speed their reference clock
sampled from start to end and the time its probes took (refclock.py).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from refclock import RefClock  # noqa: E402

# Tables are timed in groups of about this many raw seconds, each its
# own part on the reference clock.
GROUP_S = 0.1


def _rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def probe(n: int) -> dict:
    import compdeliv.cli  # noqa: F401  (imports every layer)
    from compdeliv.types_core import BINARY, enumerate_joint_types

    enumerate_joint_types(n, BINARY, BINARY)
    return {}


def table(cfg: dict, tracer) -> dict:
    import workloads
    from compdeliv import coding_table
    from compdeliv.types_core import BINARY, enumerate_joint_types
    from layers import paused

    n = cfg["n"]
    jts = enumerate_joint_types(n, BINARY, BINARY)
    # Each round codes fresh blocks of the same seed.
    inputs = [
        workloads.dsbs_letters(cfg["seed"], f"table_build/{cfg['rep']}/{r}", cfg["blocks"] * n)
        for r in range(cfg["rounds"])
    ]
    if tracer:
        tracer.begin()
    tables, table_s = [], []
    clock = RefClock()
    clock.start()
    for jt in jts:
        tables.append(coding_table.get_coding_table(jt))
        if clock.running() > GROUP_S:
            table_s.append(clock.stop())
            clock.start()
    table_s.append(clock.stop())
    with paused(tracer):
        failed = sum(not workloads.table_ok(t) for t in tables)
    attempted = len(tables)
    samples = [{"table_cells_per_s": (sum(len(t.graph.edges) for t in tables), table_s)}]
    # Several short rounds of use, so that each metric samples more than
    # one spell of machine speed.
    for x, y in inputs:
        codec, ops, bad = workloads.codec_pass(n, cfg["rate"], x, y, tracer)
        samples.append(codec)
        attempted += ops
        failed += bad
        for _ in range(cfg["sweeps"]):
            sweep, sweep_ops, sweep_bad = workloads.sweep_pass((n,), cfg["sweep_trials"], tracer)
            samples.append({"sweep_trials_per_s": sweep})
            attempted += sweep_ops
            failed += sweep_bad
    return {"samples": samples, "attempted": attempted, "failed": failed}


def main(argv: list[str]) -> int:
    mode, report_path, trace, rest = argv[0], Path(argv[1]), argv[2] == "1", argv[3:]
    if mode not in ("probe", "table", "cli"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    # A start-up probe or a command is timed as one part, start to end.
    clock = RefClock() if mode != "table" else None
    if clock:
        clock.start()
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    code = 0
    if mode == "probe":
        report = probe(int(rest[0]))
    elif mode == "table":
        report = table(json.loads(rest[0]), tracer)
    else:
        from compdeliv import cli

        if tracer:
            tracer.begin()
        code = cli.main(rest)
        report = {"code": code}
    if tracer:
        report["layers"] = tracer.finish()
    report["maxrss_kb"] = _rss_kb()
    if clock:
        clock.stop()
        report["speed"] = sum(clock.speeds) / len(clock.speeds)
        report["probe_s"] = clock.probe_total
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
