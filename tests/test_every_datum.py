"""The paper's claim on every datum of small rank: the tables and the
block-isolation algorithm resolve every spherical datum, whatever the
number of active roots, and agree with the recursive solver.

The data are grown here, independently of ``enumeration``, by
``helpers.grown_data`` over every Levi of every type below.  Besides that
search's closure cut, a branch stops at a datum that is not spherical,
which is exact too: a sum of fibers is an L-submodule and a submodule of a
spherical module is spherical, so no larger active set of the branch is.
"""

import itertools

import pytest

import sphroots.rootsystem as rsmod
from sphroots.croots import complement_levi
from sphroots.errors import SphrootsError
from sphroots.solver import base_solve, optimized_solve
from sphroots.sphericity import is_spherical_and_rank
from sphroots.tables import iter_instances

from helpers import grown_data

TYPES = ([("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 6)]
         + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 6)]
         + [("F4", 4), ("G2", 2)])

#: spherical data with a nonempty active set, and those with three or
#: more active roots, over every Levi of the type
COUNTS = {("A", 5): (763, 505), ("B", 4): (202, 110), ("B", 5): (892, 638),
          ("C", 5): (964, 709), ("D", 5): (817, 559), ("F4", 4): (204, 115),
          ("G2", 2): (9, 0)}

#: rows of rank <= 5 no datum reaches: triality-conjugate encodings, in D4,
#: of rows that are reached
UNREACHED = {(1, 13, "D", 4, ()), (4, 4, "D", 4, ()), (4, 11, "D", 4, ()),
             (4, 13, "D", 4, ())}


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


@pytest.fixture(scope="module")
def sweep():
    counts, disagreements, failures, reached = {}, [], [], set()
    for family, n in TYPES:
        data = several = 0
        for H in _spherical_data(rsmod.build(family, n)):
            data += 1
            several += len(H.psi) >= 3
            computed = base_solve(H).root_set
            blockwise = optimized_solve(H, "compute").root_set
            try:
                table = optimized_solve(H, "table")
            except SphrootsError as exc:
                failures.append((H, exc))
                continue
            reached.update(_matches(table.certificate))
            if not computed == blockwise == table.root_set:
                disagreements.append(H)
        counts[family, n] = (data, several)
    return counts, disagreements, failures, reached


def test_every_datum_resolves_on_the_table_route(sweep):
    _, _, failures, _ = sweep
    assert failures == []


def test_the_three_routes_agree_on_every_datum(sweep):
    _, disagreements, _, _ = sweep
    assert disagreements == []


def test_every_datum_counts(sweep):
    counts, _, _, _ = sweep
    assert {key: counts[key] for key in COUNTS} == COUNTS


def test_every_row_of_small_rank_is_reached(sweep):
    *_, reached = sweep
    rows = {(inst.table_id, inst.row_id, inst.family, n, tuple(inst.params))
            for family, n in TYPES for inst in iter_instances(family, n)}
    assert reached <= rows
    assert rows - reached == UNREACHED
