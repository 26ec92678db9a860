"""Every package name the benchmark traces or calls still exists.

The tracer in ``bench/tracer.py`` skips a listed function that is missing
and only reports it, so a deletion in ``src/`` could silently drop a traced
layer; this test fails instead.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


def test_regen_pass_matches_by_one_index_per_system(tmp_path):
    # one traced pass of the benchmark's regen slice in a fresh process:
    # the row index is built once per system and table set, so relabelings
    # and row instantiations no longer grow with the number of matches;
    # verification solves the 53 kept one-block cases and matches none of
    # them, so the only tables.match_datum calls are the leaf solves'
    trace = tmp_path / "regen.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), "regen",
                    "--units", "A5,B5,C5,D6,E6,F4", "--trace", str(trace)],
                   check=True, capture_output=True, env=env)
    summary = json.loads(trace.read_text())
    calls = summary["calls"]
    assert calls["tables.match_datum"] == 86
    assert calls["solver.base_solve"] == 53
    assert calls["rootsystem.diagram_isomorphisms"] <= 70
    assert calls["tables.iter_instances"] <= 22
    assert summary["checks_run"] == calls["degeneration.degenerate"] == 768
    # one delta-string partition read per degeneration
    assert calls["degeneration.delta_strings"] == 768
    # every sphericity verdict is still asked for, and every reduction
    # the Borel dimension bound does not settle is run
    assert calls["sphericity.is_spherical_and_rank"] == 2132
    assert calls["sphericity.knop_reduce"] == 503
