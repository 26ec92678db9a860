"""Subgroup data: validation, block decomposition, reductions."""

import itertools

import pytest

import sphroots.rootsystem as rsmod
from sphroots.errors import ClosureViolation, InvariantViolation, PsiNotInPhiPlus
from sphroots.subgroup import (
    ambient_reduction,
    make_subgroup,
    sm_decomposition,
    upper_elements,
    upsilon_and_hat,
)

from helpers import datum, levi

#: the theorem checks of this module that no input can reach, with why
UNREACHABLE_CHECKS = {
    "touches several blocks": "the union-find already puts every root one "
                              "factor touches in one block",
}


def test_make_subgroup_validation():
    H = datum("B", 3, (3,), [(1,), (2,)])
    assert H.psi == ((1,), (2,))
    assert len(H.u_roots) == 6

    with pytest.raises(ClosureViolation) as err:
        datum("A", 3, (1, 3), [(1, 1)])
    assert err.value.total == (1, 1)
    assert {err.value.mu, err.value.nu} == {(1, 0), (0, 1)}

    with pytest.raises(PsiNotInPhiPlus):
        datum("B", 3, (3,), [(7,)])

    parabolic = datum("B", 3, (3,), [])
    assert parabolic.psi == () and parabolic.u_roots == ()


def test_closure_passes_when_one_summand_active():
    # (1,1) decomposes only as (1,0)+(0,1); activating (1,0) legalizes it
    H = datum("A", 3, (1, 3), [(1, 0), (1, 1)])
    assert H.psi == ((1, 0), (1, 1))


def test_wire_round_trip():
    H = datum("C", 4, (1, 3), [(1, 0), (0, 1)])
    wire = H.to_wire()
    assert wire == {"type": "C", "rank": 4, "levi_complement": [1, 3],
                    "psi": [[0, 1], [1, 0]]}


def test_connected_reduction_has_the_wire_form_of_its_type():
    reduced, sub = ambient_reduction(datum("A", 3, (1, 2), [(1, 0)]))
    assert sub.nodes == (1,)
    assert reduced.to_wire() == {"type": "A", "rank": 1,
                                 "levi_complement": [1], "psi": [[1]]}


def test_ambient_reduction_refuses_disconnected_supports():
    # alpha_1 and alpha_3 of A3 are two blocks whose supports, nodes 1
    # and 3, span no simple type
    H = datum("A", 3, (1, 2, 3), [(1, 0, 0), (0, 0, 1)])
    assert len(sm_decomposition(H).components) == 2
    with pytest.raises(InvariantViolation,
                       match=r"nodes \(1, 3\) span no simple type"):
        ambient_reduction(H)


def test_sm_decomposition_examples():
    one_block = datum("B", 3, (3,), [(1,), (2,)])
    assert sm_decomposition(one_block).components == (((1,), (2,)),)
    assert sm_decomposition(one_block).trivial

    two_blocks = datum("B", 3, (1, 3), [(0, 1), (0, 2)])
    assert sm_decomposition(two_blocks).components == (((0, 1),), ((0, 2),))
    assert not sm_decomposition(two_blocks).trivial

    single = datum("B", 3, (2, 3), [(1, 0)])
    assert len(sm_decomposition(single).components) == 1


def test_factor_assignment_unique():
    # the active roots each Levi factor moves (some node of the factor
    # pairs nontrivially with their highest weight) lie in one block
    several = 0
    for family, n in (("B", 3), ("B", 4), ("C", 4), ("D", 4), ("F4", 4)):
        rs = rsmod.build(family, n)
        for complement in itertools.combinations(range(1, n + 1), 2):
            L = levi(family, n, complement)
            for psi in itertools.combinations(L.phi_plus, 2):
                try:
                    H = make_subgroup(L, psi)
                except ClosureViolation:
                    continue
                blocks = sm_decomposition(H).components
                block_of = {lam: i for i, b in enumerate(blocks) for lam in b}
                several += len(blocks) > 1
                for comp in L.components:
                    touched = {block_of[lam] for lam in H.psi
                               if any(sum(c * x for c, x in zip(
                                   rs.cartan[a - 1], L.hat(lam)))
                                   for a in comp)}
                    assert len(touched) <= 1, (H, comp)
    assert several


def test_upsilon_and_hat_examples():
    H = datum("B", 3, (2, 3), [(1, 1), (0, 1)])
    blocks = sm_decomposition(H).components
    assert blocks == (((0, 1),), ((1, 1),))

    upsilon, hat = upsilon_and_hat(H, 0)  # block {(0,1)}: support {3}
    assert upsilon == ()
    assert hat.psi == ((0, 1),)

    upsilon, hat = upsilon_and_hat(H, 1)  # block {(1,1)}: support is all
    assert upsilon == ((0, 1),)
    assert hat is H

    H2 = datum("A", 2, (1, 2), [(1, 0), (0, 1)])
    upsilon, _ = upsilon_and_hat(H2, 0)
    assert upsilon == ()


def test_upper_elements_examples():
    La = levi("A", 3, (1, 3))
    assert upper_elements(La, [(1, 0)]) == ((1, 0),)
    assert upper_elements(La, [(1, 0), (1, 1)]) == ((1, 1),)
    assert upper_elements(La, [(1, 0), (0, 1)]) == ((0, 1), (1, 0))


@pytest.mark.parametrize("family,n", [("B", 4), ("C", 4), ("D", 4)])
def test_upper_elements_nonempty(family, n):
    for complement in itertools.combinations(range(1, n + 1), 2):
        L = levi(family, n, complement)
        phi = list(L.phi_plus)
        for r in (1, 2, 3):
            for theta in itertools.combinations(phi, r):
                assert upper_elements(L, theta)


def test_upper_elements_refuses_a_set_without_upper_elements(monkeypatch):
    # with every difference a restricted root, each member is exceeded
    La = levi("A", 3, (1, 3))
    monkeypatch.setattr(La, "has_croot", lambda lam: True)
    with pytest.raises(InvariantViolation, match="without upper elements"):
        upper_elements(La, [(1, 0), (1, 1)])


def test_ambient_reduction_refuses_collapsed_active_roots(monkeypatch):
    # (1,0) and (1,1) differ only on node 3; a support without node 3
    # projects both onto (1,)
    H = datum("A", 3, (1, 3), [(1, 0), (1, 1)])
    support = H.L.croot_support
    monkeypatch.setattr(H.L, "croot_support", lambda lam: support(lam) - {3})
    with pytest.raises(InvariantViolation, match="collapsed active roots"):
        ambient_reduction(H)


def test_ambient_reduction_examples():
    reduced, sub = ambient_reduction(datum("B", 3, (1, 3), [(0, 1)]))
    assert sub.nodes == (2, 3)
    assert reduced.rs.rank == 2
    assert reduced.psi == ((1,),)
    assert sorted(reduced.L.levi) == [1]
    # B2 in Bourbaki numbering: the long node first, the short node second
    assert rsmod.diagram_isomorphisms(reduced.rs, (1, 2), "B", 2) == \
        [{1: 1, 2: 2}]

    reduced, sub = ambient_reduction(datum("B", 3, (1, 2, 3), [(0, 0, 1)]))
    assert sub.nodes == (3,)
    assert reduced.psi == ((1,),)

    H = datum("B", 3, (3,), [(1,), (2,)])
    reduced, sub = ambient_reduction(H)
    assert sub.nodes == (1, 2, 3)
    assert reduced.psi == H.psi


def test_ambient_reduction_preserves_structure():
    H = datum("C", 5, (2, 4), [(1, 0), (1, 1)])
    reduced, _ = ambient_reduction(H)
    assert len(reduced.psi) == len(H.psi)
    fibers_before = sorted(len(H.L.fiber(lam)) for lam in H.psi)
    fibers_after = sorted(len(reduced.L.fiber(lam)) for lam in reduced.psi)
    assert fibers_before == fibers_after
    blocks_before = sm_decomposition(H).components
    blocks_after = sm_decomposition(reduced).components
    assert len(blocks_before) == len(blocks_after)
    assert sorted(map(len, blocks_before)) == sorted(map(len, blocks_after))


def test_every_valid_active_set_contains_a_simple_restriction():
    # closure forces some complement simple root's restriction into any
    # nonempty valid active set; scan all one- and two-element candidates
    for family, n in (("B", 4), ("A", 4), ("C", 4), ("D", 4), ("G2", 2)):
        rs = rsmod.build(family, n)
        for size in (1, 2):
            for complement in itertools.combinations(range(1, n + 1), size):
                L = levi(family, n, complement)
                units = {L.restrict(rs.simple_root(a)) for a in complement}
                candidates = [(mu,) for mu in L.phi_plus]
                candidates += list(itertools.combinations(L.phi_plus, 2))
                for psi in candidates:
                    try:
                        H = make_subgroup(L, psi)
                    except ClosureViolation:
                        continue
                    assert units & set(H.psi), (family, complement, psi)


def test_sm_decomposition_commutes_with_automorphisms():
    rs = rsmod.build("D", 4)
    for perm in rsmod.diagram_automorphisms(rs):
        H = datum("D", 4, (1, 4), [(1, 0), (1, 1)])
        mapped_complement = sorted(perm[c - 1] for c in (1, 4))
        by_node = {perm[c - 1]: x for c, x in zip((1, 4), (1, 0))}
        lam1 = tuple(by_node.get(a, 0) for a in mapped_complement)
        by_node = {perm[c - 1]: x for c, x in zip((1, 4), (1, 1))}
        lam2 = tuple(by_node.get(a, 0) for a in mapped_complement)
        image = datum("D", 4, mapped_complement, [lam1, lam2])
        assert len(sm_decomposition(image).components) == \
            len(sm_decomposition(H).components)
        assert sorted(map(len, sm_decomposition(image).components)) == \
            sorted(map(len, sm_decomposition(H).components))
