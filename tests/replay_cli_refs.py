"""Replay the benchmark's recorded CLI queries in one process and compare.

``bench/refs/cli_queries.json`` holds, for every case, the SHA-256 of the
stdout of each command of ``workloads.CLI_COMMANDS``, and
``bench/refs/large_rank.json`` the SHA-256 of every table-1 leaf query.
This script runs each of those queries through ``sphroots.cli.main`` in
one process and compares each stdout's digest with the recorded one, so a
change can be checked for byte-identical output in seconds rather than in
one fresh process per query.  Pytest does not collect it (its name does
not start with ``test_``); run it by hand from anywhere::

    python tests/replay_cli_refs.py

It prints one line per mismatch and a summary, and exits 1 when any
stdout differs or any query exits nonzero, 0 otherwise.  It reads the
files under ``bench/`` and writes nothing there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _queries():
    """Each query as (label, argv, recorded stdout digest)."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(BENCH))
    import workloads

    cases = json.loads((workloads.REFS / "cli_queries.json").read_text())
    for case in cases["cases"]:
        args = workloads.datum_args(case)
        for name, command in workloads.CLI_COMMANDS.items():
            yield (f"{name} {' '.join(args)}", command + args,
                   case["stdout_sha256"][name])
    leaves = json.loads((workloads.REFS / "large_rank.json").read_text())
    digests = leaves["stdout_sha256"]
    for size in workloads.LEAF_RANK_SHIFT:
        for query in workloads.all_leaf_queries(size):
            yield query["key"], query["argv"], digests[query["key"]]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from sphroots.cli import main as cli_main

    total, mismatches = 0, []
    for label, argv, digest in _queries():
        total += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or got != digest:
            mismatches.append(label)
            print(f"MISMATCH (exit {code}) {label}", flush=True)
    print(f"{total} commands, {len(mismatches)} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
