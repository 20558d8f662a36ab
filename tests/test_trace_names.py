"""Every name the benchmark's per-layer tracer rebinds still exists.

`benchmarks/layers.py` wraps package functions and methods by name; a
renamed or deleted one breaks the traced benchmark run, so the names are
resolved here the way `Tracer.install` resolves them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_layers().SPANS


@pytest.mark.parametrize("metric, home, names", [span[:3] for span in SPANS], ids=[s[0] for s in SPANS])
def test_traced_names_resolve(metric, home, names):
    module = importlib.import_module(f"compdeliv.{home}")
    for name in names:
        if "." in name:  # Class.method: wrapped on the class that defines it
            cls_name, method = name.split(".")
            assert method in vars(getattr(module, cls_name)), f"{metric}: {name}"
        else:
            assert callable(getattr(module, name, None)), f"{metric}: {name}"


# What the benchmark reads of the table store: `Tracer` reads the hits and
# misses of `get_coding_table.cache_info()`, `table_build` and `mc_sweep`
# count `len(get_coding_table(jt).graph.edges)`, and `workloads.table_ok`
# walks each table's graph and lookups.
GRAPH_FIELDS = ("left_size", "right_size", "left_degree", "right_degree")


def test_the_table_cache_reports_hits_and_misses():
    from compdeliv import coding_table

    info = coding_table.get_coding_table.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)


@pytest.mark.parametrize("counts", [((1, 1), (1, 1)), ((2, 0), (0, 2)), ((2, 1), (0, 3))])
def test_tables_offer_what_the_benchmark_reads(counts, monkeypatch):
    from compdeliv.coding_table import build_graph, get_coding_table, slot_book
    from compdeliv.types_core import JointType

    monkeypatch.syspath_prepend(str(LAYERS.parent))
    table_ok = importlib.import_module("workloads").table_ok
    jt = JointType(counts, sum(map(sum, counts)))
    assert len(build_graph(jt).edges) == len(list(build_graph(jt).edges))
    for fresh in (True, False):  # a window whose call built the table, and one on a book entry
        if fresh:
            slot_book.cache_clear()
        get_coding_table.cache_clear()
        g = get_coding_table(jt).graph
        assert all(isinstance(getattr(g, name), int) for name in GRAPH_FIELDS)
        assert len(g.edges) == len(list(g.edges)) == g.left_size * g.left_degree
        assert table_ok(get_coding_table(jt))


# The spans the library feeds: a refactor of the table path must not
# leave one of these per-layer metrics reading 0.
FED = (
    "coding_table.lookup",
    "coding_table.build_graph",
    "coding_table.edge_color",
    "ff_codec.ff_encode",
    "ff_codec.ff_decode",
    "fv_codec.fv_encode",
    "simulator.run_plan",
    "info_measures.exact",
    "cli.main",
)


def test_the_library_feeds_the_benchmark_spans(tmp_path):
    from compdeliv import cli, coding_table, ff_codec, fv_codec, simulator
    from compdeliv.info_measures import dsbs
    from compdeliv.types_core import BINARY, Sequence

    x, y = Sequence((0, 0, 1, 1), BINARY), Sequence((0, 1, 1, 1), BINARY)
    (tmp_path / "x.bin").write_bytes(bytes([0, 1, 1, 0] * 25))
    (tmp_path / "y.bin").write_bytes(bytes([0, 1, 0, 0] * 25))
    tracer = _load_layers().Tracer()
    coding_table.slot_book.cache_clear()  # every table is built while traced
    tracer.install()
    try:
        tracer.begin()
        cfg = ff_codec.FFCodeConfig(4, 0.9)
        cw = ff_codec.ff_encode(cfg, x, y)
        assert not cw.error_flag and ff_codec.ff_decode_x(cfg, cw, y) == x and ff_codec.ff_decode_y(cfg, cw, x) == y
        assert fv_codec.fv_decode_x(fv_codec.fv_encode(4, x, y), y) == x
        plan = simulator.TrialPlan(p=dsbs(0.11), n_grid=(4,), rates=(0.8,), trials=10, master_seed=1)
        simulator.run_plan(plan)
        assert cli.main([
            "encode", "--mode", "ff", "--n", "4", "--rate", "0.8", "--input-x", str(tmp_path / "x.bin"),
            "--input-y", str(tmp_path / "y.bin"), "--out", str(tmp_path / "ff.cdlv"),
        ]) == 0
        layers = tracer.finish()
    finally:
        tracer.uninstall()
    assert {name: layers[f"{name}.calls"] for name in FED if not layers[f"{name}.calls"]} == {}
