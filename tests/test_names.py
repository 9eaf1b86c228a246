"""Names other code imports: every module's __all__, and every function the
benchmark's span tracer wraps by name (perfbench/spans.py LAYERS), which it
looks up with no default."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from asclt_lab import cli, sequences


@pytest.mark.parametrize("name", ["asclt", "covariance", "gaussian_sim", "hermite",
                                  "kernels", "malliavin", "memo"])
def test_all_names_exist(name):
    module = importlib.import_module(f"asclt_lab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{fn}" for layer, names in spans.LAYERS.items() for fn in names
               if not callable(getattr(importlib.import_module(f"asclt_lab.{layer}"), fn, None))]
    assert missing == []
    assert cli.sigma_n_squared is sequences.sigma_n_squared
