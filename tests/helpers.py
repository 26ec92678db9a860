"""Small constructors shared by the test modules."""

from __future__ import annotations

import sphroots.rootsystem as rsmod
from sphroots.croots import complement_levi
from sphroots.subgroup import make_subgroup


def datum(family, rank, complement, psi):
    """SubgroupDatum from (family, rank, complement nodes, active set)."""
    L = complement_levi(rsmod.build(family, rank), complement)
    return make_subgroup(L, [tuple(v) for v in psi])


def levi(family, rank, complement):
    return complement_levi(rsmod.build(family, rank), complement)


def system(family, rank):
    """A built system, or for ``"E6+A1"`` the derived E6 + A1 inside E8,
    which has no type label."""
    if family == "E6+A1":
        return rsmod.subsystem(rsmod.build("E8"), (1, 2, 3, 4, 5, 6, 8)).system
    return rsmod.build(family, rank)


def grown_data(L, keep=None, active=frozenset(), start=0):
    """Every datum of ``L`` with a nonempty active set that passes the
    closure check, and ``keep`` when given, grown by roots in ascending lex
    order.  A root one of whose decompositions has neither part active is
    skipped: both parts precede it, so no later root can repair that.  A
    datum ``keep`` refuses is not yielded and not grown further."""
    roots = L.phi_plus
    for i in range(start, len(roots)):
        lam = roots[i]
        if any(a not in active and b not in active
               for a, b in L.decompositions(lam)):
            continue
        H = make_subgroup(L, active | {lam})
        if keep is not None and not keep(H):
            continue
        yield H
        yield from grown_data(L, keep, active | {lam}, i + 1)
