"""Run each test module in its own pytest process and list the ones that fail.

A test that passes in the full suite but fails alone reads state another
module left behind (an interned datum, a memo); this script finds such
tests.  Pytest does not collect it (its name does not start with
``test_``); run it by hand from anywhere::

    python tests/run_modules_alone.py                  # every tests/test_*.py
    python tests/run_modules_alone.py tests/test_memos.py

The modules run one after another, never in parallel.  It prints one line
per module, the module's pytest summary, and exits 1 when some module
fails alone, 0 otherwise.  All modules together take about as long as
Tier-1 plus one interpreter start-up per module.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_alone(module: Path) -> tuple[bool, str]:
    """Whether ``module`` passes in a pytest process of its own, and the
    last line pytest printed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(module)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", type=Path,
                        help="test modules to run (default: every "
                             "tests/test_*.py)")
    args = parser.parse_args(argv)
    modules = [m.resolve() for m in args.modules] or sorted(
        (ROOT / "tests").glob("test_*.py"))
    failed = []
    for module in modules:
        passed, summary = run_alone(module)
        label = module.relative_to(ROOT)
        print(f"{'ok  ' if passed else 'FAIL'} {label}: {summary}", flush=True)
        if not passed:
            failed.append(label)
    print(f"{len(failed)} of {len(modules)} module(s) fail alone"
          + "".join(f"\n  {label}" for label in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
