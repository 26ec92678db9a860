"""Every package name the benchmark traces or calls still exists.

The tracer in ``bench/tracer.py`` skips a listed function that is missing
and only reports it, so a deletion in ``src/`` could silently drop a traced
layer; this test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
TRACED = {(layer, name)
          for table in (_tracer.TIMED, _tracer.COUNTED)
          for layer, names in table.items()
          for name in names}

#: names the benchmark's workloads, children and reference recorder call
CALLED = [
    ("cli", "main"),
    ("croots", "LeviDatum"),
    ("enumeration", "enumerate_cases"),
    ("enumeration", "verify_tables"),
    ("rootsystem", "build"),
    ("subgroup", "sm_decomposition"),
    ("tables", "instantiate_row"),
]


@pytest.mark.parametrize("layer,name", sorted(TRACED | set(CALLED)))
def test_benchmark_name_exists(layer, name):
    module = importlib.import_module(f"sphroots.{layer}")
    assert callable(getattr(module, name, None)), f"sphroots.{layer}.{name}"


def test_checks_run_counter_exists():
    degeneration = importlib.import_module("sphroots.degeneration")
    assert isinstance(degeneration.checks_run, int)
