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
