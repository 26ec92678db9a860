"""Delete each theorem check in turn and see whether a test notices.

For every ``raise InvariantViolation`` statement in the given modules, this
script replaces the statement with ``pass`` in a temporary copy of the
repository, runs the Tier-1 suite there with ``-x``, and reports the
deletions under which the suite still passes.  Pytest does not collect it
(its name does not start with ``test_``); run it by hand::

    python tests/mutate_checks.py src/sphroots/degeneration.py

A test module may list the checks no input can reach in an
``UNREACHABLE_CHECKS`` dict (a message fragment mapped to the reason);
the script reads every such dict under ``tests/`` with ``ast``, and a
surviving deletion whose message contains a listed fragment is reported
as expected.  It exits 0 when every other deletion fails some test, 1
otherwise.  Each deletion costs up to one full Tier-1 run.
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


def message(node: ast.Raise) -> str:
    """The message a raise statement passes, each field of an f-string
    shown as ``{}``."""
    exc = node.exc
    if not isinstance(exc, ast.Call) or not exc.args:
        return ""
    arg = exc.args[0]
    if isinstance(arg, ast.JoinedStr):
        return "".join(str(part.value) if isinstance(part, ast.Constant)
                       else "{}" for part in arg.values)
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    return ast.unparse(arg)


def unreachable_checks(tests: Path = ROOT / "tests") -> dict[str, str]:
    """Every ``UNREACHABLE_CHECKS`` dict assigned at the top of a module
    under ``tests``, merged, read without importing the module."""
    listed: dict[str, str] = {}
    for path in sorted(tests.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(target, ast.Name)
                            and target.id == "UNREACHABLE_CHECKS"
                            for target in node.targets)):
                listed.update(ast.literal_eval(node.value))
    return listed


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
    listed = unreachable_checks()
    uncaught, expected = [], []
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
                text = message(node)
                if not suite_passes(copy):
                    print(f"caught   {label}", flush=True)
                elif any(key in text for key in listed):
                    expected.append(label)
                    print(f"listed   {label} ({text})", flush=True)
                else:
                    uncaught.append(label)
                    print(f"UNCAUGHT {label} ({text})", flush=True)
            target.write_text(source)
            print(f"{relative}: {len(raises)} raises", flush=True)
    print(f"{len(uncaught)} uncaught deletion(s), {len(expected)} listed "
          f"as unreachable")
    return 1 if uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
