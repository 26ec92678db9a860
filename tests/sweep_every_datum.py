"""Solve every spherical datum of types of rank 6 to 8 on all three routes.

The opt-in extension of ``tests/test_every_datum.py`` to larger ranks.  For
each type given it grows every spherical datum with a nonempty active set,
over every Levi (``helpers.solve_every_datum``), and solves each with
``base_solve`` and with ``optimized_solve`` on the compute and the table
route.  Pytest does not collect it (its name does not start with
``test_``); run it by hand from anywhere::

    python tests/sweep_every_datum.py            # A6 B6 C6 D6 E6
    python tests/sweep_every_datum.py E7 E8      # about 15 s and 65 s

It prints one line per type and one per problem, then one SHA-256 digest
of every datum and the root set ``base_solve`` computed for it, in the
order solved, so two checkouts can be compared for identical roots.  It
exits 1 when the table route fails on a datum, the routes disagree, the
counts differ from ``COUNTS``, or a table row of the swept type is reached
by no datum; 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: spherical data with a nonempty active set, and those with three or more
#: active roots, over every Levi of the type
COUNTS = {"A6": (3283, 2596), "B6": (3854, 3186), "C6": (4168, 3494),
          "D6": (3504, 2826), "E6": (3498, 2820), "E7": (14861, 13159),
          "E8": (63201, 59024)}

DEFAULT_TYPES = ("A6", "B6", "C6", "D6", "E6")


def sweep_type(label: str, digest) -> tuple[tuple[int, int], list[str]]:
    """The counts of one type's data and the problems found solving them;
    each datum and its computed roots are fed to ``digest``."""
    import sphroots.rootsystem as rsmod
    from sphroots.errors import SphrootsError
    from sphroots.tables import iter_instances

    from helpers import _matches, solve_every_datum

    family, n = rsmod.normalize_type(label)
    data = many = 0
    problems, reached = [], set()
    for H, roots, table, agree in solve_every_datum(rsmod.build(family, n)):
        data += 1
        many += len(H.psi) >= 3
        digest.update(f"{label} {H!r} {sorted(roots)}\n".encode())
        if isinstance(table, SphrootsError):
            problems.append(f"table route fails on {H!r}: {table}")
            continue
        reached.update(_matches(table.certificate))
        if not agree:
            problems.append(f"routes disagree on {H!r}")
    rows = {(inst.table_id, inst.row_id, inst.family, n, tuple(inst.params))
            for inst in iter_instances(family, n)}
    problems += [f"row {row} is reached by no datum"
                 for row in sorted(rows - reached)]
    if (data, many) != COUNTS[label]:
        problems.append(f"counts {data}/{many}, expected "
                        f"{COUNTS[label][0]}/{COUNTS[label][1]}")
    return (data, many), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("types", nargs="*", metavar="TYPE",
                        help=f"types to sweep, of {', '.join(COUNTS)} "
                             f"(default: {' '.join(DEFAULT_TYPES)})")
    args = parser.parse_args(argv)
    unknown = [label for label in args.types if label not in COUNTS]
    if unknown:
        parser.error(f"no pinned counts for {', '.join(unknown)}")
    sys.path.insert(0, str(ROOT / "src"))
    digest = hashlib.sha256()
    failed = 0
    for label in args.types or DEFAULT_TYPES:
        start = time.perf_counter()
        (data, many), problems = sweep_type(label, digest)
        print(f"{label}: {data} data, {many} with three or more active "
              f"roots, {len(problems)} problem(s), "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        for problem in problems:
            print(f"  {problem}")
        failed += bool(problems)
    print(f"digest {digest.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
