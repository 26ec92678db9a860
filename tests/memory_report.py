"""Bytes the package keeps alive, by module and by source line.

Runs two stages in this process and reports after each:

1. one regeneration pass, ``verify_tables`` on each unit (by default the
   benchmark's ``regen`` slice A5, B5, C5, D6, E6, F4);
2. the solved two-root enumeration on two complement nodes of each system
   (by default E8, D10, B9, C9, A10), ``enumerate_cases(rs, 2, 2)``.

After each stage a full garbage collection runs; then the report gives
the bytes still held by allocations made on the package's source lines
(``tracemalloc``, started before the package is imported), summed by
module and for the top lines, and the process's peak resident set so far
(``ru_maxrss``).  Tracing costs memory of its own, so ``--untraced``
leaves ``tracemalloc`` off and reports the plain process's peak resident
set only.  The figures are cumulative: the second stage's include what
the first left behind.  An empty ``--units`` or ``--systems`` skips that
stage.  Pytest does not collect this file (its name does not start with
``test_``); run it by hand::

    PYTHONPATH=src python tests/memory_report.py [--json]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tracemalloc
from pathlib import Path
from typing import Optional

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sphroots"
REGEN_UNITS = "A5,B5,C5,D6,E6,F4"
SYSTEMS = "E8,D10,B9,C9,A10"


def _split(label: str) -> tuple[str, Optional[int]]:
    """``"D10"`` -> ``("D", 10)``, ``"E6"`` -> ``("E6", None)``."""
    if label[0] in "ABCD":
        return label[0], int(label[1:])
    return label, None


def _regen(units: list[str]) -> None:
    from sphroots.enumeration import verify_tables

    for label in units:
        family, n = _split(label)
        report = verify_tables(family, ranks=None if n is None else [n])
        if not report.checked or not report.empty:
            raise SystemExit(f"regeneration of {label} disagrees with the "
                             f"tables")


def _enumerate(systems: list[str]) -> int:
    from sphroots.enumeration import enumerate_cases
    from sphroots.rootsystem import build

    return sum(len(enumerate_cases(build(*_split(label)), 2, 2))
               for label in systems)


def _peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(label: str, top: int) -> dict:
    """The retained bytes and peak resident set after a full collection."""
    gc.collect()
    point = {"point": label, "peak_rss_mb": round(_peak_rss_mb(), 3)}
    if tracemalloc.is_tracing():
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, str(PACKAGE / "*"))])
        by_module = snapshot.statistics("filename")
        point["retained_kb"] = round(sum(s.size for s in by_module) / 1024, 1)
        point["by_module_kb"] = {
            Path(s.traceback[0].filename).name: round(s.size / 1024, 1)
            for s in sorted(by_module,
                            key=lambda s: s.traceback[0].filename)}
        point["top_lines_kb"] = {
            f"{Path(s.traceback[0].filename).name}:{s.traceback[0].lineno}":
            round(s.size / 1024, 1)
            for s in snapshot.statistics("lineno")[:top]}
    return point


def _print(point: dict) -> None:
    print(f"{point['point']}: peak RSS {point['peak_rss_mb']:.3f} MB", end="")
    if "retained_kb" not in point:
        print()
        return
    print(f", {point['retained_kb']:,.1f} KB retained by the package")
    for name, kb in point["by_module_kb"].items():
        print(f"  {name:<18} {kb:>10,.1f} KB")
    print("  top lines:")
    for line, kb in point["top_lines_kb"].items():
        print(f"  {line:<22} {kb:>10,.1f} KB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--units", default=REGEN_UNITS,
                        help="regeneration units, comma-separated "
                             f"(default {REGEN_UNITS})")
    parser.add_argument("--systems", default=SYSTEMS,
                        help="systems to enumerate, comma-separated "
                             f"(default {SYSTEMS})")
    parser.add_argument("--top", type=int, default=10,
                        help="source lines to list (default 10)")
    parser.add_argument("--untraced", action="store_true",
                        help="leave tracemalloc off: peak resident set only")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of text")
    args = parser.parse_args(argv)
    units = [u for u in args.units.split(",") if u]
    systems = [s for s in args.systems.split(",") if s]
    if not args.untraced:
        tracemalloc.start()
    points = []
    try:
        if units:
            _regen(units)
            points.append(measure(f"after regenerating {' '.join(units)}",
                                  args.top))
        if systems:
            cases = _enumerate(systems)
            points.append(measure(
                f"after enumerating and solving {' '.join(systems)} "
                f"({cases} cases)", args.top))
    finally:
        tracemalloc.stop()
    if args.json:
        print(json.dumps(points))
    else:
        for point in points:
            _print(point)
    return 0


if __name__ == "__main__":
    sys.exit(main())
