"""Restriction map, fibers, extreme weights."""

import itertools

import pytest

import sphroots.rootsystem as rsmod
from sphroots import croots
from sphroots.errors import EmptyFiber, InvariantViolation
from sphroots.subgroup import make_subgroup

from helpers import levi
from oracles import decompositions, euclidean_positive_roots, fiber_extreme


def _lines(rs, mask):
    """The weights of the lines in a mask."""
    return [rs.lines[b] for b in rsmod.mask_bits(mask)]


def _has(rs, mask, w):
    return bool(mask >> rs.lines.index(w) & 1)


def test_restrict_examples():
    L = levi("B", 3, complement=(3,))
    assert L.restrict((1, 2, 2)) == (2,)
    L = levi("A", 3, complement=(1, 3))
    assert L.restrict((1, 1, 1)) == (1, 1)
    L = levi("B", 3, complement=(2, 3))
    assert L.restrict((0, 1, 2)) == (1, 2)


def test_phi_plus_examples():
    assert levi("A", 3, (1, 3)).phi_plus == ((0, 1), (1, 0), (1, 1))
    assert levi("B", 3, (3,)).phi_plus == ((1,), (2,))
    # trivial Levi: restriction is the identity on coefficients
    L = croots.levi_datum(rsmod.build("A", 2), ())
    assert L.phi_plus == ((0, 1), (1, 0), (1, 1))


def test_fiber_examples():
    L = levi("B", 3, (3,))
    assert L.fiber((1,)) == ((0, 0, 1), (0, 1, 1), (1, 1, 1))
    assert L.fiber((2,)) == ((0, 1, 2), (1, 1, 2), (1, 2, 2))
    assert len(L.fiber((2,))) == 3  # dim of the wedge-square piece
    La = levi("A", 3, (1, 3))
    assert La.fiber((1, 1)) == ((1, 1, 1),)
    # only positive restricted roots have fibers
    for lam in ((5,), (-1,)):
        with pytest.raises(EmptyFiber):
            L.fiber(lam)


@pytest.mark.parametrize("family,n", [("B", 4), ("D", 5), ("F4", 4)])
def test_negative_roots_are_one_tuple_per_root(family, n):
    # the negative lines and the opposite nilradical of every Levi hold
    # the system's own negative tuples, not copies
    rs = rsmod.build(family, n)
    count = len(rs.positive_roots)
    negatives = rs.lines[count:2 * count]
    assert negatives == tuple(tuple(-x for x in r) for r in rs.positive_roots)
    shared = {id(r) for r in negatives}
    for k in range(n):
        for nodes in itertools.combinations(range(1, n + 1), k):
            L = croots.levi_datum(rs, nodes)
            pu = _lines(rs, L.pu_mask)
            assert {id(r) for r in pu} <= shared
            assert set(pu) == {tuple(-x for x in r) for lam in L.phi_plus
                               for r in L.fiber(lam)}


def test_extreme_weights_examples():
    L = levi("B", 3, (3,))
    assert (L.hat((1,)), L.fiber((1,))[0]) == ((1, 1, 1), (0, 0, 1))
    La = levi("A", 3, (1, 3))
    assert (La.hat((1, 0)), La.fiber((1, 0))[0]) == ((1, 1, 0), (1, 0, 0))
    # empty Levi: every fiber is a single root
    L0 = croots.levi_datum(rsmod.build("A", 2), ())
    for lam in L0.phi_plus:
        assert L0.fiber(lam) == (L0.hat(lam),)


def test_croot_support_examples():
    L = levi("B", 3, (2, 3))
    assert L.croot_support((0, 1)) == frozenset({3})
    assert L.croot_support((1, 1)) == frozenset({1, 2, 3})
    assert levi("B", 3, (3,)).croot_support((1,)) == frozenset({1, 2, 3})


@pytest.mark.parametrize("family,n", [("A", 4), ("B", 4), ("C", 3),
                                      ("D", 4), ("F4", 4), ("G2", 2)])
def test_fiber_partition(family, n):
    # fibers partition the positive roots outside the Levi
    rs = rsmod.build(family, n)
    for size in (1, 2):
        for complement in itertools.combinations(range(1, n + 1), size):
            L = levi(family, n, complement)
            total = sum(len(L.fiber(lam)) for lam in L.phi_plus)
            assert total == len(rs.positive_roots) - len(L.delta_l_plus)
            for lam in L.phi_plus:
                assert any(lam) and all(x >= 0 for x in lam)
                assert _lines(rs, L.fiber_mask(lam)) == list(L.fiber(lam))
            with pytest.raises(EmptyFiber):
                L.fiber_mask(tuple(-x for x in L.phi_plus[0]))


@pytest.mark.parametrize("family,n", [("B", 4), ("C", 4), ("F4", 4), ("A", 5)])
def test_bracket_relation(family, n):
    # whenever mu + nu is a restricted root, every root in its fiber splits
    # as a sum of one root from each summand fiber
    for complement in itertools.combinations(range(1, n + 1), 2):
        L = levi(family, n, complement)
        phi = set(L.phi_plus)
        for mu, nu in itertools.combinations_with_replacement(L.phi_plus, 2):
            total = tuple(a + b for a, b in zip(mu, nu))
            if total not in phi:
                continue
            fa = L.fiber(mu)
            fb = L.fiber(nu)
            sums = {tuple(a + b for a, b in zip(x, y))
                    for x in fa for y in fb}
            for gamma in L.fiber(total):
                assert gamma in sums


@pytest.mark.parametrize("family,n", [("B", 4), ("D", 5), ("E6", 6)])
def test_hat_dominates_fiber(family, n):
    for complement in itertools.combinations(range(1, n + 1), 2):
        L = levi(family, n, complement)
        for lam in L.phi_plus:
            hat, lowest = L.hat(lam), L.fiber(lam)[0]
            union = frozenset()
            for delta in L.fiber(lam):
                diff = tuple(h - x for h, x in zip(hat, delta))
                assert all(d >= 0 for d in diff)
                assert all(diff[a - 1] == 0 for a in L.complement)
                union |= {i + 1 for i, x in enumerate(delta) if x}
            assert L.croot_support(lam) == union
            down = tuple(x - t for x, t in zip(hat, lowest))
            assert all(d >= 0 for d in down)


def test_fiber_extremes_match_reference_scan():
    # every Levi of each system, built fresh: hat and the first fiber member
    # are the members that no Levi simple root raises or lowers within the
    # fiber
    fibers = 0
    for family, n in (("A", 6), ("B", 5), ("C", 5), ("D", 6), ("E6", 6),
                      ("E7", 7), ("F4", 4), ("G2", 2)):
        rs = rsmod.build(family, n)
        for k in range(n + 1):
            for nodes in itertools.combinations(range(1, n + 1), k):
                L = croots.LeviDatum(rs, nodes)
                for lam in L.phi_plus:
                    assert L.hat(lam) == fiber_extreme(L, lam, +1), (L, lam)
                    assert L.fiber(lam)[0] == fiber_extreme(L, lam, -1), \
                        (L, lam)
                    fibers += 1
    assert fibers == 4837


@pytest.mark.parametrize("dropped", [(1, 1, 1), (0, 1, 0)])
def test_fiber_with_a_shared_extreme_height_is_refused(dropped):
    # A3 without one root: over the Levi {1, 3} the fiber of (1,) keeps two
    # members at its top height 2 (without (1,1,1)) or at its bottom
    # height 2 (without (0,1,0)), so it is no simple Levi module
    a3 = rsmod.build("A", 3)
    doctored = rsmod.RootSystem("A", 3, a3.cartan, a3.symmetrizer,
                                tuple(r for r in a3.positive_roots
                                      if r != dropped),
                                {r: x for r, x in a3._norms.items()
                                 if r != dropped},
                                {r: x for r, x in a3.codes.items()
                                 if r != dropped})
    with pytest.raises(InvariantViolation, match="two extremes"):
        croots.LeviDatum(doctored, (1, 3))


@pytest.mark.parametrize("family,n", [("B", 4), ("C", 4), ("D", 5),
                                      ("F4", 4), ("E6", 6), ("G2", 2)])
def test_levi_roots_match_euclidean_oracle(family, n):
    # every node subset as the Levi, against roots from coordinates
    rs = rsmod.build(family, n)
    oracle = euclidean_positive_roots(family, n)
    for k in range(n + 1):
        for nodes in itertools.combinations(range(1, n + 1), k):
            L = croots.levi_datum(rs, nodes)
            inside = {r for r in oracle
                      if all(x == 0 or i + 1 in nodes for i, x in enumerate(r))}
            assert L.delta_l_plus == tuple(sorted(inside, key=lambda r: (sum(r), r)))
            for r in oracle:
                neg = tuple(-x for x in r)
                assert _has(rs, L.levi_mask, r) is _has(rs, L.levi_mask, neg) \
                    is (r in inside)
            assert set(_lines(rs, L.pu_mask)) == \
                {tuple(-x for x in r) for r in oracle - inside}


@pytest.mark.parametrize("family,n", [("B", 4), ("C", 4), ("D", 5),
                                      ("F4", 4), ("G2", 2), ("E6", 6)])
def test_decompositions_match_eager_reference(family, n):
    # every Levi, built fresh so that no earlier call has filled the memo
    rs = rsmod.build(family, n)
    for k in range(n + 1):
        for nodes in itertools.combinations(range(1, n + 1), k):
            L = croots.LeviDatum(rs, nodes)
            expected = decompositions(L)
            for lam in L.phi_plus:
                assert L.decompositions(lam) == expected[lam]
                assert L.decompositions(lam) is L.decompositions(lam)


def test_croot_support_restricts_to_nonzero_entries():
    L = levi("C", 4, (2, 4))
    for lam in L.phi_plus:
        supp = L.croot_support(lam)
        expected = {a for a, x in zip(L.complement, lam) if x}
        assert supp & set(L.complement) == expected


def test_build_interns_per_normalized_type(monkeypatch):
    b3 = rsmod.build("B3")
    assert b3 is rsmod.build("B", 3)
    assert rsmod.build("E6") is rsmod.build("E6", 6)
    # a hit is a dict lookup on the normalized type: no Cartan matrix is built
    standard_cartan, calls = rsmod.standard_cartan, []

    def counted(*args):
        calls.append(args)
        return standard_cartan(*args)

    monkeypatch.setattr(rsmod, "standard_cartan", counted)
    assert all(rsmod.build(*label) is b3
               for label in [("b", 3), ("B3",), ("B", 3)])
    assert calls == []


def test_full_subsystem_is_the_system():
    for rs in (rsmod.build("B", 3), rsmod.build("D", 4)):
        assert rsmod.subsystem(rs, range(1, rs.rank + 1)).system is rs


def test_labeled_levi_after_derived_copy_has_wire_form():
    b3 = rsmod.build("B", 3)
    croots.levi_datum(rsmod.subsystem(b3, (1, 2, 3)).system, (1, 2))
    L = croots.levi_datum(b3, (1, 2))
    assert make_subgroup(L, [(1,), (2,)]).to_wire()["type"] == "B"


@pytest.mark.parametrize("b3_first", [True, False])
def test_levi_and_subgroup_data_stay_on_their_system(b3_first):
    # one system per type: B3 and C3 have the same Levi (1, 2) and the
    # restricted root (1,), and each keeps its own Levi and subgroup data;
    # B3's Levi also restricts (2,), and a datum is one object whatever
    # order its active roots come in
    b3, c3 = rsmod.build("B", 3), rsmod.build("C", 3)
    data = {}
    for rs in ((b3, c3) if b3_first else (c3, b3)):
        L = croots.levi_datum(rs, (1, 2))
        assert L.rs is rs
        H = make_subgroup(L, [(1,)])
        assert H.L is L and make_subgroup(L, [[1], [1]]) is H
        data[rs] = H
    assert data[b3] is not data[c3]
    L = croots.levi_datum(b3, (1, 2))
    H = make_subgroup(L, [(1,), (2,)])
    assert H.L is L and make_subgroup(L, [(2,), (1,)]) is H
