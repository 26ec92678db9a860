"""Smoke check of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload shrunk (``--size tiny``), measured and traced, and
checks that the last line names exactly the metrics BENCHMARK.json
declares, each with its unit, and that every output was correct.  It also
checks that two traced runs give identical counts and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    out = result(bench("--workload", workload, "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_counts_repeat_exactly():
    first, second = (result(bench("--workload", "regen", "--trace", "1"))
                     for _ in range(2))
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "ratio")
              and not m["name"].startswith("trace.overhead")]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "regen", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
