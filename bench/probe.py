"""A fixed pure-Python computation that gauges the speed the host gives.

    python3 bench/probe.py

It uses nothing from ``sphroots``, so a change to the package never moves
it, and it does the same kind of work the package does: integer tuples,
sets and dicts, root strings and fractions.  It builds the positive roots
of E8 and A11 from their Cartan matrices by the root-string rule, then
sums the lengths of the root strings through pairs of the first 80 roots
of each.  It takes about 0.13 s, start-up included.  It checks its
own results and exits non-zero when they are wrong.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def cartan_a(n):
    return tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0
                       for j in range(n)) for i in range(n))


def cartan_e8():
    edges = {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
    return tuple(tuple(2 if i == j else -1 if (i, j) in edges
                       or (j, i) in edges else 0 for j in range(8))
                 for i in range(8))


def pairing(cartan, root, i):
    return sum(c * row[i] for c, row in zip(root, cartan))


def positive_roots(cartan):
    """Closure of the simple roots under adding simple roots along strings."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, layer = set(simple), simple
    while layer:
        nxt = []
        for root in layer:
            for i in range(n):
                down, probe = 0, root
                while True:
                    probe = tuple(c - (k == i) for k, c in enumerate(probe))
                    if probe not in roots:
                        break
                    down += 1
                if down - pairing(cartan, root, i) > 0:
                    up = tuple(c + (k == i) for k, c in enumerate(root))
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return roots


def string_lengths(roots, limit):
    """Sum over pairs of roots of the length of the string through both."""
    ordered = sorted(roots)[:limit]
    total = Fraction(0)
    for a in ordered:
        for b in ordered:
            step, length = tuple(x + y for x, y in zip(a, b)), 0
            while step in roots:
                length += 1
                step = tuple(x + y for x, y in zip(step, b))
            total += Fraction(length, 1 + sum(b))
    return total


#: the sum ``main`` must print.
EXPECTED = Fraction(3762463, 9009)


def main() -> int:
    e8 = positive_roots(cartan_e8())
    a11 = positive_roots(cartan_a(11))
    if len(e8) != 120 or len(a11) != 66:
        print(f"wrong root counts {len(e8)}, {len(a11)}", file=sys.stderr)
        return 1
    total = Fraction(0)
    for roots in (e8, a11):
        total += string_lengths(roots, 80)
    if total != EXPECTED:
        print(f"wrong string sum {total}", file=sys.stderr)
        return 1
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
