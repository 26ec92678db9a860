"""The paper's claim on every datum of small rank: the tables and the
block-isolation algorithm resolve every spherical datum, whatever the
number of active roots, and agree with the recursive solver.

The data are grown by ``helpers.every_datum_sweep``, independently of
``enumeration``, with ``helpers.grown_data`` over every Levi of every type
of ``helpers.EVERY_DATUM_TYPES``.  Besides that
search's closure cut, a branch stops at a datum that is not spherical,
which is exact too: a sum of fibers is an L-submodule and a submodule of a
spherical module is spherical, so no larger active set of the branch is.
"""

import itertools

import pytest

import sphroots.rootsystem as rsmod
from sphroots.croots import levi_datum
from sphroots.subgroup import sm_decomposition
from sphroots.tables import iter_instances

from helpers import EVERY_DATUM_TYPES as TYPES, every_datum_sweep, is_connected

#: spherical data with a nonempty active set, and those with three or
#: more active roots, over every Levi of the type
COUNTS = {("A", 5): (763, 505), ("B", 4): (202, 110), ("B", 5): (892, 638),
          ("C", 5): (964, 709), ("D", 5): (817, 559), ("F4", 4): (204, 115),
          ("G2", 2): (9, 0)}

#: rows of rank <= 5 no datum reaches: triality-conjugate encodings, in D4,
#: of rows that are reached
UNREACHED = {(1, 13, "D", 4, ()), (4, 4, "D", 4, ()), (4, 11, "D", 4, ()),
             (4, 13, "D", 4, ())}


#: the types on whose every Levi the support lemma of
#: ``subgroup.ambient_reduction`` is checked
LEMMA_TYPES = ([(family, n) for family in "ABC" for n in range(2, 9)]
               + [("D", n) for n in range(3, 9)]
               + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


@pytest.fixture(scope="module")
def sweep():
    return every_datum_sweep()


def test_every_datum_resolves_on_the_table_route(sweep):
    assert sweep.failures == []


def test_the_three_routes_agree_on_every_datum(sweep):
    assert sweep.disagreements == []


def test_every_datum_counts(sweep):
    assert {key: sweep.counts[key] for key in COUNTS} == COUNTS


def test_every_row_of_small_rank_is_reached(sweep):
    reached = sweep.reached
    rows = {(inst.table_id, inst.row_id, inst.family, n, tuple(inst.params))
            for family, n in TYPES for inst in iter_instances(family, n)}
    assert reached <= rows
    assert rows - reached == UNREACHED


def test_the_supports_of_a_block_are_connected(sweep):
    # the support of a fiber contains every Levi component its highest
    # weight pairs with, on every Levi of every type of LEMMA_TYPES
    pairs = 0
    for family, n in LEMMA_TYPES:
        rs = rsmod.build(family, n)
        for k in range(n):
            for levi in itertools.combinations(range(1, n + 1), k):
                L = levi_datum(rs, levi)
                for lam in L.phi_plus:
                    moved = {i + 1 for i, _ in
                             rsmod.pairing_form(rs, L.hat(lam))}
                    supp = L.croot_support(lam)
                    for comp in L.components:
                        if not moved.isdisjoint(comp):
                            assert supp.issuperset(comp), (rs, levi, lam)
                            pairs += 1
    assert pairs == 31329
    # so the supports of one block, linked through such components, are
    # connected: every block of every datum of the sweep
    blocks = 0
    for data in sweep.data.values():
        for H in data:
            for block in sm_decomposition(H).components:
                supp = set().union(*map(H.L.croot_support, block))
                assert is_connected(H.rs.cartan, supp), (H, block)
                blocks += 1
    assert blocks == 12886
