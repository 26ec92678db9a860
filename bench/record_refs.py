"""Record the reference outputs the benchmark checks CLI queries against.

Run once, from the root of a checkout of the commit whose outputs are the
reference::

    python3 bench/record_refs.py

It writes ``bench/refs/cli_queries.json`` (every spherical enumerated case
of rank at most 8, with the SHA-256 of each command's stdout) and
``bench/refs/large_rank.json`` (the SHA-256 of every leaf query the
large-rank workload can issue).  Each query runs as its own CLI process.
A case is kept only if every command exits 0, so that no benchmark
operation fails on the reference commit.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import harness
import workloads

sys.path.insert(0, str(harness.SRC))

from sphroots import rootsystem as rsmod  # noqa: E402
from sphroots.enumeration import enumerate_cases  # noqa: E402
from sphroots.subgroup import sm_decomposition  # noqa: E402
from sphroots.tables import instantiate_row  # noqa: E402

CLI_TYPES = ([("A", n) for n in range(3, 9)] + [("B", n) for n in range(3, 9)]
             + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)]
             + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
SHAPES = ((1, 1), (1, 2), (2, 2))  # (complement size, active-set size)
TIMEOUT = 120.0


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(args: list) -> subprocess.CompletedProcess:
    """One ``sphroots`` CLI process, as the benchmark runs it."""
    return subprocess.run(harness.cli_argv(args), cwd=harness.ROOT,
                          env=harness.CHILD_ENV, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=TIMEOUT)


def spherical_cases() -> list[dict]:
    cases = []
    for family, n in CLI_TYPES:
        rs = rsmod.build(family, n)
        for complement_size, psi_size in SHAPES:
            for record in enumerate_cases(rs, complement_size, psi_size,
                                          solve=False):
                if not record.spherical:
                    continue
                wire = record.datum.to_wire()
                cases.append({
                    "type": wire["type"], "rank": wire["rank"],
                    "complement": wire["levi_complement"], "psi": wire["psi"],
                    "blocks": len(sm_decomposition(record.datum).components),
                })
    return cases


def record_case(case: dict) -> dict | None:
    digests = {}
    for name, command in workloads.CLI_COMMANDS.items():
        child = run_cli(command + workloads.datum_args(case))
        if child.returncode != 0:
            print(f"dropped {case}: {name} exited {child.returncode}",
                  file=sys.stderr)
            return None
        digests[name] = sha(child.stdout)
    return dict(case, stdout_sha256=digests)


def record_leaf(query: dict) -> tuple[str, str]:
    child = run_cli(query["argv"])
    inst = instantiate_row(1, query["row"], query["n"], query["params"])
    if child.returncode != 0:
        raise SystemExit(f"{query['key']} exited {child.returncode}")
    if inst.complement != (int(query["argv"][6]),):
        raise SystemExit(f"{query['key']}: complement differs from the row")
    roots = {tuple(v) for v in json.loads(child.stdout)["spherical_roots"]}
    if roots != set(inst.sigma):
        raise SystemExit(f"{query['key']}: roots differ from the table row")
    return query["key"], sha(child.stdout)


def main() -> None:
    commit = harness.checkout_commit()
    source = harness.source_digest()
    with ThreadPoolExecutor(max_workers=2) as pool:
        cases = spherical_cases()
        kept = [c for c in pool.map(record_case, cases) if c is not None]
        leaves = {}
        for size in workloads.LEAF_RANK_SHIFT:
            leaves.update(pool.map(record_leaf,
                                   workloads.all_leaf_queries(size)))
    workloads.REFS.mkdir(exist_ok=True)
    meta = {"recorded_from": commit, "source_sha256": source}
    with open(workloads.REFS / "cli_queries.json", "w", encoding="utf-8") as fh:
        json.dump(dict(meta, cases=kept), fh, indent=0, sort_keys=True)
        fh.write("\n")
    with open(workloads.REFS / "large_rank.json", "w", encoding="utf-8") as fh:
        json.dump(dict(meta, stdout_sha256=dict(sorted(leaves.items()))), fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(kept)} of {len(cases)} cases, {len(leaves)} leaf queries")


if __name__ == "__main__":
    main()
