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
