"""Delete each theorem check in turn and see whether a test notices.

For every ``raise InvariantViolation`` statement in the given modules, this
script replaces the statement with ``pass`` in a temporary copy of the
repository, runs the Tier-1 suite there with ``-x``, and reports the
deletions under which the suite still passes.  Pytest does not collect it
(its name does not start with ``test_``); run it by hand::

    python tests/mutate_checks.py src/sphroots/degeneration.py

It exits 0 when every deletion fails some test, 1 otherwise.  Each
deletion costs up to one full Tier-1 run.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: what the suite reads: the package, the tests and the benchmark files
#: the tests load
COPIED = ("src", "tests", "bench", "pyproject.toml")


def check_raises(source: str) -> list[ast.Raise]:
    """The ``raise InvariantViolation(...)`` statements of a module, in
    source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "InvariantViolation":
                found.append(node)
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def without(source: str, node: ast.Raise) -> str:
    """The module with one raise statement replaced by ``pass``; the lines
    it spanned are kept, blank, so line numbers do not move."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][:node.col_offset]
    tail = lines[last][node.end_col_offset:]
    lines[first:last + 1] = ([head + "pass" + tail]
                             + ["\n"] * (last - first))
    return "".join(lines)


def suite_passes(copy: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help="module files under src/, e.g. "
                             "src/sphroots/degeneration.py")
    args = parser.parse_args(argv)
    uncaught = []
    with tempfile.TemporaryDirectory(prefix="mutate-checks-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            path = ROOT / name
            if path.is_dir():
                shutil.copytree(path, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(path, copy / name)
        for module in args.modules:
            relative = module.resolve().relative_to(ROOT)
            target = copy / relative
            source = target.read_text()
            raises = check_raises(source)
            for node in raises:
                target.write_text(without(source, node))
                label = f"{relative}:{node.lineno}"
                if suite_passes(copy):
                    uncaught.append(label)
                    print(f"UNCAUGHT {label}", flush=True)
                else:
                    print(f"caught   {label}", flush=True)
            target.write_text(source)
            print(f"{relative}: {len(raises)} raises", flush=True)
    print(f"{len(uncaught)} uncaught deletion(s)")
    return 1 if uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
