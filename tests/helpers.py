"""Small constructors shared by the test modules."""

from __future__ import annotations

import sphroots.rootsystem as rsmod
from sphroots.croots import levi_datum
from sphroots.subgroup import make_subgroup


def datum(family, rank, complement, psi):
    """SubgroupDatum from (family, rank, complement nodes, active set)."""
    rs = rsmod.build(family, rank)
    comp = set(complement)
    levi = [a for a in range(1, rs.rank + 1) if a not in comp]
    return make_subgroup(levi_datum(rs, levi), [tuple(v) for v in psi])


def levi(family, rank, complement):
    rs = rsmod.build(family, rank)
    comp = set(complement)
    return levi_datum(rs, [a for a in range(1, rs.rank + 1) if a not in comp])


def system(family, rank):
    """A built system, or for ``"E6+A1"`` the derived E6 + A1 inside E8,
    which has no type label."""
    if family == "E6+A1":
        return rsmod.subsystem(rsmod.build("E8"), (1, 2, 3, 4, 5, 6, 8)).system
    return rsmod.build(family, rank)
