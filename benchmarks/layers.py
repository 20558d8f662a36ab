"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of each compdeliv module by rebinding
the names their callers resolve (for example `compdeliv.ff_codec.
rank_in_type_class` and `compdeliv.simulator.ff_encode`) and the
`CodingTable`, `BitWriter` and `BitReader` methods.  Each wrapped call
records one span (name, start, end, parent) in flat in-memory arrays;
the arrays are reduced to calls, seconds and self seconds per layer
metric only when the traced phase ends.  Self time is a span's duration
minus the time its child spans cover.

No file of the package is changed: everything here is rebinding from the
outside, undone by `uninstall`.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = (
    "types_core",
    "info_measures",
    "coding_table",
    "ff_codec",
    "fv_codec",
    "simulator",
    "bitio",
    "cli",
)

# (layer metric, module that holds the names, names, rebind in every module?)
# "Class.method" names wrap a method on the class.  A spec that is not
# rebound everywhere is traced only as called from its own module: the
# exact columns count as `info_measures.exact` only when the simulator
# calls them, not when one bound calls another inside info_measures.
SPANS = (
    ("types_core.rank_in_type_class", "types_core", ("rank_in_type_class",), True),
    ("types_core.unrank_in_type_class", "types_core", ("unrank_in_type_class",), True),
    ("types_core.type_of", "types_core", ("type_of",), True),
    ("types_core.joint_type_of", "types_core", ("joint_type_of",), True),
    ("types_core.enumerate_joint_types", "types_core", ("enumerate_joint_types",), True),
    ("coding_table.build_graph", "coding_table", ("build_graph",), True),
    ("coding_table.edge_color", "coding_table", ("edge_color",), True),
    (
        "coding_table.lookup",
        "coding_table",
        ("CodingTable.symbol_at", "CodingTable.row_for", "CodingTable.col_for"),
        True,
    ),
    ("ff_codec.ff_encode", "ff_codec", ("ff_encode",), True),
    ("ff_codec.ff_decode", "ff_codec", ("ff_decode_x", "ff_decode_y"), True),
    ("ff_codec.make_code", "ff_codec", ("make_code",), True),
    ("fv_codec.fv_encode", "fv_codec", ("fv_encode",), True),
    ("fv_codec.fv_decode_stream", "fv_codec", ("fv_decode_x_stream", "fv_decode_y_stream"), True),
    ("fv_codec.make_fv_code", "fv_codec", ("make_fv_code",), True),
    ("bitio.write", "bitio", ("BitWriter.write",), True),
    ("bitio.read", "bitio", ("BitReader.read",), True),
    ("bitio.getvalue", "bitio", ("BitWriter.getvalue",), True),
    # The '0'/'1' string paths: FV words appended as strings, the bit
    # string sliced per field, and the payload expanded to a string.
    (
        "bitio.bits",
        "bitio",
        ("BitWriter.write_bits", "BitReader.read_bits", "BitReader.__init__"),
        True,
    ),
    ("cli.main", "cli", ("main",), True),
    ("simulator.run_plan", "simulator", ("run_plan",), True),
    (
        "info_measures.exact",
        "simulator",
        (
            "exact_error_probability",
            "error_exponent_outside",
            "correct_exponent_inside",
            "overflow_probability",
            "error_sum_upper_bound",
            "error_sum_lower_bound",
        ),
        False,
    ),
)

# Layers whose call count is not informative (cached lookups): time only.
TIME_ONLY = {
    "types_core.enumerate_joint_types",
    "ff_codec.make_code",
    "fv_codec.make_fv_code",
}

# Work counted at the same boundary as the span: metric -> f(args, result).
COUNTERS = {
    "coding_table.build_graph.cells": lambda args, result: len(result.edges),
    "simulator.run_plan.trials": lambda args, result: args[0].trials * len(result.rows),
}

CACHE_METRICS = ("coding_table.get_coding_table.hits", "coding_table.get_coding_table.misses")
OVERHEAD_METRIC = "trace.overhead_share"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name, _, _, _ in SPANS:
        if name in TIME_ONLY:
            units[f"{name}.s"] = "s"
        else:
            units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "count" for name in CACHE_METRICS})
    units[OVERHEAD_METRIC] = "share"
    return units


def zero_layers() -> dict[str, float]:
    return {name: 0.0 for name in metric_units() if name != OVERHEAD_METRIC}


def add_layers(total: dict[str, float], part: dict[str, float]) -> None:
    """Sum per-layer values of another traced process into `total`."""
    for name, value in part.items():
        total[name] = total.get(name, 0.0) + value


class Tracer:
    """In-memory span recorder over the compdeliv layers."""

    def __init__(self):
        self.names: list[str] = [spec[0] for spec in SPANS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {name: 0 for name in COUNTERS}
        self.active = False
        self._undo: list = []
        self._cache_before = None

    def _wrap(self, nid: int, fn, counters):
        tracer = self
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            for metric, count in counters:
                tracer.counts[metric] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced name; `uninstall` restores them."""
        package = importlib.import_module("compdeliv")
        modules = [package] + [importlib.import_module(f"compdeliv.{m}") for m in MODULES]
        for nid, (metric, home, names, everywhere) in enumerate(SPANS):
            home_mod = importlib.import_module(f"compdeliv.{home}")
            counters = [
                (name, fn) for name, fn in COUNTERS.items() if name.startswith(metric + ".")
            ]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home_mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(nid, orig, counters))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(home_mod, name)
                wrapped = self._wrap(nid, orig, counters)
                for mod in modules if everywhere else [home_mod]:
                    if getattr(mod, name, None) is orig:
                        setattr(mod, name, wrapped)
                        self._undo.append((mod, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def begin(self) -> None:
        from compdeliv import coding_table

        self._cache_before = coding_table.get_coding_table.cache_info()
        self.active = True

    def finish(self) -> dict[str, float]:
        """Stop recording and reduce the spans to per-layer metrics."""
        from compdeliv import coding_table

        self.active = False
        cache = coding_table.get_coding_table.cache_info()
        out = zero_layers()
        out[CACHE_METRICS[0]] = float(cache.hits - self._cache_before.hits)
        out[CACHE_METRICS[1]] = float(cache.misses - self._cache_before.misses)
        for metric, count in self.counts.items():
            out[metric] = float(count)
        if not len(self.start):
            return out
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        for nid, name in enumerate(self.names):
            out[f"{name}.s"] = float(total[nid])
            if name not in TIME_ONLY:
                out[f"{name}.calls"] = float(calls[nid])
                out[f"{name}.self_s"] = float(own[nid])
        return out


@contextmanager
def paused(tracer: Tracer | None):
    """Run output checks without recording their calls as spans."""
    if tracer is None:
        yield
        return
    was, tracer.active = tracer.active, False
    try:
        yield
    finally:
        tracer.active = was
