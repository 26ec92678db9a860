"""The opt-in memory report ``memory_report.py`` keeps working."""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_memory_report_runs_on_a_tiny_slice():
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    out = subprocess.run(
        [sys.executable, str(TESTS / "memory_report.py"), "--units", "B3",
         "--systems", "B3", "--top", "3", "--json"],
        check=True, capture_output=True, text=True, env=env).stdout
    regen, enumeration = json.loads(out)
    assert regen["point"] == "after regenerating B3"
    assert enumeration["point"].startswith("after enumerating and solving B3")
    for point in (regen, enumeration):
        assert point["peak_rss_mb"] > 0
        assert {"croots.py", "subgroup.py"} <= set(point["by_module_kb"])
        assert abs(point["retained_kb"]
                   - sum(point["by_module_kb"].values())) < 1
        assert len(point["top_lines_kb"]) == 3
    # without tracing, only the peak resident set is reported
    out = subprocess.run(
        [sys.executable, str(TESTS / "memory_report.py"), "--units", "B3",
         "--systems", "", "--untraced"],
        check=True, capture_output=True, text=True, env=env).stdout
    assert out.startswith("after regenerating B3: peak RSS ")
    assert "retained" not in out
