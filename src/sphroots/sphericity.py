"""Sphericity test for Levi modules via iterated highest-weight reduction.

Given the weight multiset of a module over a standard Levi, repeatedly pick
a weight that cannot be raised by any simple Levi root (a highest weight of
some simple summand), cut the Levi down to its stabilizer, and strike the
picked weight together with its images under the discarded positive Levi
roots.  The module is spherical iff the sequence of picked weights is
linearly independent, in which case its length is the rank.

Every turn strikes the picked weight and at most one image per positive
Levi root it discards, and a discarded root never returns; so a module of
dimension d yields at least d - |Phi_L^+| picks.  More than ``rank``
weights of a rank-``rank`` lattice are never independent, so a module
larger than |Phi_L^+| + rank (the dimension of the Levi's Borel, which a
spherical module cannot exceed) is not spherical whatever the reduction
picks.  :func:`is_spherical_and_rank` settles such a datum by that count
on its default path; a call with ``choose``, and :func:`knop_reduce`
itself, always reduce.

Whether a weight can be raised is read off integer codes: the code of a
root weight comes from the table of its root system (``RootSystem.codes``,
filled by the root closure), and raising by a simple root adds a power of
two.  All linear algebra is fraction-free integer elimination; there is no
floating point anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterable, Optional

from . import rootsystem as rsmod
from .errors import InvariantViolation
from .rootsystem import RootSystem, Vector
from .subgroup import SubgroupDatum


ReductionStep = namedtuple("ReductionStep", "omega pi_m removed")
ReductionStep.__doc__ = """One loop turn: ``omega``, the weight picked (a
tuple); ``pi_m``, the surviving Levi nodes (a tuple of ints); ``removed``,
the weights struck from the pool (a tuple of weights)."""

ThetaWitness = namedtuple("ThetaWitness", "theta spherical rank trace",
                          defaults=((),))
ThetaWitness.__doc__ = """Outcome of the reduction: ``theta``, the picked
weights (a tuple of weights); ``spherical``, the verdict (a bool);
``rank``, their number when spherical, else None; ``trace``, one
:class:`ReductionStep` per pick (a tuple, empty by default)."""


def linearly_independent(vectors: Iterable[Vector]) -> bool:
    """Independence over the rationals by incremental fraction-free echelon:
    each vector is reduced against the pivot rows kept so far, and the first
    one that reduces to zero (a zero or repeated one too) makes it False."""
    pivots = []  # (pivot column, row)
    for row in vectors:
        for col, pivot in pivots:
            x = row[col]
            if x:
                lead = pivot[col]
                row = [lead * a - x * b for a, b in zip(row, pivot)]
        for col, x in enumerate(row):
            if x:
                break
        else:
            return False
        pivots.append((col, row))
    return True


def knop_reduce(rs: RootSystem, pi_l: Iterable[int],
                delta_l_plus: Iterable[Vector], omega: Iterable[Vector],
                choose: Optional[Callable] = None) -> ThetaWitness:
    """Run the highest-weight reduction on a weight multiset.

    ``choose`` picks among the maximal weights at each step (ascending lex
    order); the default takes the lexicographically largest.  The verdict
    and the number of picked weights are independent of this choice.

    Each step reads the picked weight's memoized pairing form
    (:func:`rootsystem.pairing_form`); the coroot pairing of a Levi root
    is then a sum over its nonzero terms, divided by the root's squared
    length from the closure (``delta_l_plus`` holds positive roots of
    ``rs``).  One pass over the remaining Levi roots pairs each of them,
    refuses a non-integral pairing at once and a negative one after the
    pass, and splits the roots into those whose images are struck and
    those left to the stabilizer.

    The pool, its edges and its removals are keyed on the weights'
    integer codes (:func:`rootsystem.weight_code`: a root's is read from
    the table of the root system, another weight's is computed and
    refused outside the coding range), so the image ``w - gamma`` of a
    struck root is the code ``code(w) - (codes[gamma] - zero_code)`` and
    no tuple is built for it; the trace names weights through the pool's
    own code-to-weight map.  The simple-root edges ``w -> w + alpha_a``
    are listed once per call, by Levi node; ``blocked[w]`` counts the live
    edges up from ``w``, so the maximal weights are those it counts zero.
    A weight whose last copy leaves the pool, or a node that leaves the
    Levi, releases its edges.
    """
    pi = tuple(sorted(set(pi_l)))
    norms, codes, zero = rs._norms, rs.codes, rs.zero_code
    dl = [(gamma, norms[gamma]) for gamma in map(tuple, delta_l_plus)]
    # the pool counts copies per weight code in a plain dict: deleting from
    # a Counter runs in Python
    pool: dict[int, int] = {}
    weights: dict[int, Vector] = {}
    for v in map(tuple, omega):
        code = codes.get(v)
        if code is None:
            code = rsmod.weight_code(rs, v)
        pool[code] = pool.get(code, 0) + 1
        weights[code] = v
    # edge lists exist only for the nodes and weights that have edges; a
    # node's edges are dropped when it leaves the Levi
    edges: dict[int, list[tuple[int, int]]] = {}
    below: dict[int, list[tuple[int, int]]] = {}
    blocked = dict.fromkeys(pool, 0)
    steps = [(a, 1 << (rsmod.CODE_DIGIT * (a - 1))) for a in pi]
    for code in pool:
        for a, step in steps:
            up = code + step
            if up in pool:
                edges.setdefault(a, []).append((code, up))
                below.setdefault(up, []).append((a, code))
                blocked[code] += 1
    # the maximal weights, each mapped to its code
    free = {weights[c]: c for c, count in blocked.items() if not count}

    theta: list[Vector] = []
    trace: list[ReductionStep] = []
    while pool:
        if not free:
            raise InvariantViolation(
                f"no maximal weight in {sorted(map(weights.get, pool))}")
        w = choose(sorted(free)) if choose is not None else max(free)
        code = free[w]
        form = rsmod.pairing_form(rs, w)
        removals = [code]
        survivors = []
        negative = False
        for pair in dl:
            gamma, gamma_norm = pair
            total = 0
            for i, x in form:
                total += gamma[i] * x
            value, remainder = divmod(total, gamma_norm)
            if remainder:
                raise InvariantViolation(
                    f"non-integral coroot pairing for {gamma}")
            if value > 0:
                removals.append(code - codes[gamma] + zero)
            elif value:
                negative = True
            else:
                survivors.append(pair)
        if negative:
            raise InvariantViolation(f"picked weight {w} is not dominant")
        removed = []
        for v in removals:
            count = pool.get(v)
            if count:
                removed.append(weights[v])
                if count > 1:
                    pool[v] = count - 1
                    continue
                del pool[v], blocked[v]
                free.pop(weights[v], None)
                for a, u in below.get(v, ()):
                    if a in edges and u in pool:
                        blocked[u] -= 1
                        if not blocked[u]:
                            free[weights[u]] = u
        # edges are keyed by Levi nodes, so none are left once the Levi is
        if pi:
            moved = {i + 1 for i, _ in form}
            pi = tuple(a for a in pi if a not in moved)
            for a in moved.intersection(edges):
                for u, up in edges.pop(a):
                    if u in pool and up in pool:
                        blocked[u] -= 1
                        if not blocked[u]:
                            free[weights[u]] = u
        theta.append(w)
        trace.append(ReductionStep(w, pi, tuple(removed)))
        dl = survivors
    spherical = linearly_independent(theta)
    return ThetaWitness(tuple(theta), spherical,
                        len(theta) if spherical else None, tuple(trace))


def is_spherical_and_rank(H: SubgroupDatum,
                          choose: Optional[Callable] = None
                          ) -> tuple[bool, Optional[int]]:
    """Sphericity of the datum and, when spherical, the number of its
    spherical roots (the reduction length).

    The default-choice verdict is memoized on ``H``.  On that path a
    module with more weights than ``dim B_L = |Phi_L^+| + rank`` is
    refused before any reduction runs: the reduction could not pick more
    than ``rank`` independent weights from it (see the module docstring),
    so the verdict is the one it would reach.  A call with ``choose``
    always runs the reduction.
    """
    if choose is None:
        if H._verdict is not None:
            return H._verdict
        if H.u_mask.bit_count() > len(H.L.delta_l_plus) + H.rs.rank:
            H._verdict = (False, None)
            return H._verdict
    witness = knop_reduce(H.rs, H.L.levi, H.L.delta_l_plus, H.u_roots,
                          choose=choose)
    result = (witness.spherical, witness.rank)
    if choose is None:
        H._verdict = result
    return result

