"""Small constructors shared by the test modules."""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

import sphroots.rootsystem as rsmod
from sphroots.croots import complement_levi
from sphroots.errors import SphrootsError
from sphroots.solver import base_solve, optimized_solve
from sphroots.sphericity import is_spherical_and_rank
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


#: the types whose every datum ``every_datum_sweep`` solves
EVERY_DATUM_TYPES = ([("A", n) for n in range(1, 6)]
                     + [("B", n) for n in range(2, 6)]
                     + [("C", n) for n in range(2, 6)]
                     + [("D", n) for n in range(3, 6)]
                     + [("F4", 4), ("G2", 2)])

Sweep = namedtuple("Sweep",
                   "counts disagreements failures reached roots data")
Sweep.__doc__ = """What solving every datum of ``EVERY_DATUM_TYPES`` found.

``counts`` maps each type to (spherical data, those with three or more
active roots); ``disagreements`` lists the data whose three solve routes
differ and ``failures`` each (datum, error) the table route raised;
``reached`` holds the table rows the certificates name, as (table, row,
family, n, params); ``roots`` maps each type to the set of roots
``base_solve`` computed on it and ``data`` to the tuple of its spherical
data, in the order they were solved.
"""


def _spherical_data(rs):
    """Every spherical datum with a nonempty active set, over every Levi."""
    nodes = range(1, rs.rank + 1)
    for size in range(1, rs.rank + 1):
        for complement in itertools.combinations(nodes, size):
            yield from grown_data(complement_levi(rs, complement),
                                  keep=lambda H: is_spherical_and_rank(H)[0])


def _matches(certificate):
    """The table rows a certificate names, as (table, row, family, n,
    params)."""
    if isinstance(certificate, dict):
        match = certificate.get("match")
        if match:
            yield (match["table"], match["row"], match["family"], match["n"],
                   tuple(match["params"]))
        for value in certificate.values():
            yield from _matches(value)
    elif isinstance(certificate, list):
        for value in certificate:
            yield from _matches(value)


@functools.cache
def every_datum_sweep() -> Sweep:
    """Solve every spherical datum of every type of ``EVERY_DATUM_TYPES``
    on all three routes; computed once per process."""
    sweep = Sweep({}, [], [], set(), {}, {})
    for family, n in EVERY_DATUM_TYPES:
        data = []
        roots = sweep.roots[family, n] = set()
        for H in _spherical_data(rsmod.build(family, n)):
            data.append(H)
            computed = base_solve(H).root_set
            roots |= computed
            blockwise = optimized_solve(H, "compute").root_set
            try:
                table = optimized_solve(H, "table")
            except SphrootsError as exc:
                sweep.failures.append((H, exc))
                continue
            sweep.reached.update(_matches(table.certificate))
            if not computed == blockwise == table.root_set:
                sweep.disagreements.append(H)
        sweep.data[family, n] = tuple(data)
        sweep.counts[family, n] = (len(data),
                                   sum(len(H.psi) >= 3 for H in data))
    return sweep
