"""Solvers: worked chains, method agreement, choice independence."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import sphroots.solver as solver
from sphroots.degeneration import degenerate
from sphroots.enumeration import enumerate_cases
from sphroots.errors import InvariantViolation, NotSpherical
from sphroots.rootsystem import build, embed
from sphroots.solver import (
    NodeProof,
    algorithm_d,
    base_solve,
    leaf_resolve,
    optimized_solve,
)
from sphroots.sphericity import is_spherical_and_rank
from sphroots.subgroup import ambient_reduction, sm_decomposition
from sphroots.tables import instantiate_row

from helpers import datum

#: theorem checks of the solver that no input reaches, by message, with
#: the reason
UNREACHABLE_CHECKS = {
    "block isolation did not terminate":
        "each turn of algorithm_d returns or degenerates, a degeneration "
        "lowers the rank by exactly one (checked in degeneration) and "
        "shrinking to a sub-datum never raises it, so the loop returns "
        "within rank + 1 turns, far under its cap",
}

def test_leaf_resolve_examples():
    assert leaf_resolve(datum("B", 3, (1, 3), [(0, 1)])).roots == ((0, 1, 1),)
    assert leaf_resolve(datum("B", 3, (3,), [])).roots == ()
    r = leaf_resolve(datum("E7", 7, (7,), [(1,)]))
    assert set(r.roots) == {(0, 0, 0, 0, 0, 0, 1), (2, 1, 2, 2, 1, 0, 0),
                            (0, 1, 1, 2, 2, 2, 0)}


def test_base_solve_b3_chain():
    H = datum("B", 3, (3,), [(1,), (2,)])
    result = base_solve(H)
    assert set(result.roots) == {(1, 1, 0), (0, 1, 1), (0, 0, 1)}
    assert result.certificate["pivots"] == [[1], [2]]


def _b3(complement, *psi):
    return {"type": "B", "rank": 3, "levi_complement": list(complement),
            "psi": [list(v) for v in psi]}


def _row(table, row, family, n, params):
    return {"table": table, "row": row, "family": family, "n": n,
            "params": params}


#: the certificate tree of the B3 chain (``--complement 3 --psi "1;2"``)
B3_CHAIN_CERTIFICATE = {
    "datum": _b3([3], [1], [2]),
    "pivots": [[1], [2]],
    "removed": [[[1, 1, 0]], [[0, 1, 1]]],
    "children": [
        {"datum": _b3([1, 3], [0, 1], [0, 2]),
         "pivots": [[0, 1], [0, 2]],
         "removed": [[[0, 1, 1]], [[0, 0, 1]]],
         "children": [
             {"datum": _b3([1, 2, 3], [0, 0, 1]),
              "match": _row(1, 1, "A", 1, [1])},
             {"datum": _b3([1, 3], [0, 1]),
              "match": _row(1, 4, "C", 2, [])}]},
        {"datum": _b3([2, 3], [0, 1], [1, 1]),
         "pivots": [[0, 1], [1, 1]],
         "removed": [[[0, 0, 1]], [[1, 1, 0]]],
         "children": [
             {"datum": _b3([2, 3], [1, 0]),
              "match": _row(1, 1, "A", 2, [1])},
             {"datum": _b3([1, 2, 3], [0, 0, 1]),
              "match": _row(1, 1, "A", 1, [1])}]}],
}


def test_b3_chain_certificates_render_the_pinned_tree():
    H = datum("B", 3, (3,), [(1,), (2,)])
    result = base_solve(H)
    assert result.certificate == B3_CHAIN_CERTIFICATE
    # each read renders afresh, so a caller's edit leaves the proof intact
    result.certificate["children"].clear()
    assert result.certificate == B3_CHAIN_CERTIFICATE

    sigma = [[0, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert optimized_solve(H, "compute").certificate == {
        "datum": _b3([3], [1], [2]),
        "blocks": [{"block": [[1], [2]], "steps": [], "sigma": sigma,
                    "certificate": B3_CHAIN_CERTIFICATE}]}
    assert optimized_solve(H, "table").certificate == {
        "datum": _b3([3], [1], [2]),
        "blocks": [{"block": [[1], [2]], "steps": [], "sigma": sigma,
                    "certificate": {"datum": _b3([3], [1], [2]),
                                    "match": _row(2, 1, "B", 3, [])}}]}


def test_isolation_steps_render_in_the_block_certificate():
    H = datum("B", 3, (2, 3), [(1, 1), (0, 1)])
    blocks = optimized_solve(H, "table").certificate["blocks"]
    assert [block["steps"] for block in blocks] == [
        [],
        [{"datum": _b3([2, 3], [0, 1], [1, 1]), "pivot": [0, 1],
          "block": [[1, 1]]}]]


def test_base_solve_c3():
    H = datum("C", 3, (1, 2), [(0, 1), (1, 1)])
    assert set(base_solve(H).roots) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_base_solve_a2():
    H = datum("A", 2, (1, 2), [(1, 0), (0, 1)])
    assert set(base_solve(H).roots) == {(1, 0), (0, 1)}


def test_base_solve_rejects_nonspherical():
    with pytest.raises(NotSpherical):
        base_solve(datum("C", 4, (2,), [(1,), (2,)]))
    with pytest.raises(NotSpherical):
        optimized_solve(datum("C", 4, (2,), [(1,), (2,)]))


def test_algorithm_d_isolates_blocks():
    H = datum("B", 3, (2, 3), [(1, 1), (0, 1)])
    blocks = sm_decomposition(H).components
    assert blocks == (((0, 1),), ((1, 1),))

    isolated, steps = algorithm_d(H, 1)
    assert isolated.psi == ((1, 0),)
    assert isolated.L.complement == (2, 3)
    assert steps and steps[0].pivot == (0, 1)
    assert leaf_resolve(isolated).roots == ((1, 1, 0),)

    isolated, steps = algorithm_d(H, 0)
    assert isolated.psi == ((0, 1),)
    assert steps == []
    assert leaf_resolve(isolated).roots == ((0, 0, 1),)


def test_optimized_solve_examples():
    H = datum("B", 3, (2, 3), [(1, 1), (0, 1)])
    assert set(optimized_solve(H, "compute").roots) == {(1, 1, 0), (0, 0, 1)}

    H = datum("A", 2, (1, 2), [(1, 0), (0, 1)])
    assert set(optimized_solve(H, "table").roots) == {(1, 0), (0, 1)}

    H = datum("F4", 4, (3,), [(1,), (3,)])
    assert set(optimized_solve(H, "table").roots) == \
        {(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def test_paper_example_chain_b3():
    # the full worked chain for the B3 two-root case
    H = datum("B", 3, (3,), [(1,), (2,)])

    n1 = degenerate(H, (1,)).target
    assert n1.L.complement == (1, 3) and n1.psi == ((0, 1), (0, 2))
    n2 = degenerate(H, (2,)).target
    assert n2.L.complement == (2, 3) and n2.psi == ((0, 1), (1, 1))

    n11, _ = algorithm_d(n1, 0)
    assert n11.L.complement == (1, 3) and n11.psi == ((0, 1),)
    assert leaf_resolve(n11).roots == ((0, 1, 1),)

    n12, _ = algorithm_d(n1, 1)
    assert n12.L.complement == (1, 2, 3) and n12.psi == ((0, 0, 1),)
    assert leaf_resolve(n12).roots == ((0, 0, 1),)

    n21, _ = algorithm_d(n2, 1)
    assert n21.L.complement == (2, 3) and n21.psi == ((1, 0),)
    assert leaf_resolve(n21).roots == ((1, 1, 0),)

    n22, _ = algorithm_d(n2, 0)
    assert n22.L.complement == (2, 3) and n22.psi == ((0, 1),)
    assert leaf_resolve(n22).roots == ((0, 0, 1),)

    final = {(1, 1, 0), (0, 1, 1), (0, 0, 1)}
    assert set(base_solve(H).roots) == final
    assert set(optimized_solve(H, "table").roots) == final
    assert set(optimized_solve(H, "compute").roots) == final


CROSS_METHOD_CASES = [
    ("B", 3, (3,), [(1,), (2,)]),
    ("B", 5, (5,), [(1,), (2,)]),
    ("C", 3, (1, 2), [(0, 1), (1, 1)]),
    ("C", 6, (2, 4), [(1, 0), (1, 1)]),
    ("A", 6, (2, 6), [(1, 0), (0, 1)]),
    ("A", 7, (2, 5), [(1, 0), (1, 1)]),
    ("D", 5, (2, 5), [(1, 0), (0, 1)]),
    ("D", 6, (3, 6), [(1, 0), (2, 1)]),
    ("F4", 4, (1, 4), [(0, 1), (1, 1)]),
    ("E6", 6, (1, 6), [(1, 0), (1, 1)]),
    ("E7", 7, (2, 4), [(0, 1), (1, 3)]),
    ("E8", 8, (3, 8), [(0, 1), (1, 1)]),
]


@pytest.mark.parametrize("family,n,complement,psi", CROSS_METHOD_CASES)
def test_methods_agree(family, n, complement, psi):
    H = datum(family, n, complement, psi)
    expected = is_spherical_and_rank(H)
    assert expected[0]
    base = base_solve(H)
    optimized = optimized_solve(H, "compute")
    table = optimized_solve(H, "table")
    assert base.root_set == optimized.root_set == table.root_set
    assert len(base.roots) == expected[1]


RANK_SMALL_CASES = [
    ("A", 3, (1, 3), [(1, 0), (0, 1)]),
    ("A", 2, (1, 2), [(1, 0), (0, 1)]),
    ("B", 3, (3,), [(1,), (2,)]),
    ("B", 4, (2, 4), [(1, 0), (1, 1)]),
    ("C", 4, (1, 3), [(1, 0), (0, 1)]),
    ("C", 4, (1, 3), [(0, 1), (1, 1)]),
    ("D", 4, (1, 4), [(1, 0), (1, 1)]),
    ("F4", 4, (3, 4), [(1, 0), (1, 1)]),
]


def test_pivot_choice_independence():
    rng = random.Random(113)

    def random_pair(psi):
        return tuple(rng.sample(psi, 2))

    for family, n, complement, psi in RANK_SMALL_CASES:
        H = datum(family, n, complement, psi)
        baseline = base_solve(H).root_set
        for _ in range(8):
            trial = base_solve(H, choose_pair=random_pair)
            assert trial.root_set == baseline


@functools.cache
def _spherical_corpus():
    """The spherical data that the enumeration of B4, F4 and A5 finds, one
    and two active roots, one and two complement nodes."""
    data = []
    for family, n in (("B", 4), ("F4", 4), ("A", 5)):
        rs = build(family, n)
        for size, psi_size in ((1, 1), (1, 2), (2, 2)):
            data += [rec.datum for rec in enumerate_cases(rs, size, psi_size,
                                                          solve=False)
                     if rec.spherical]
    return data


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_choices_that_bypass_the_memos_agree_with_the_default(data, rng):
    # a choose or choose_pair neither reads nor fills the verdict and solve
    # memos, so these calls redo the reduction and the recursion with the
    # drawn choices, against the memoized default-choice answers
    corpus = _spherical_corpus()
    H = corpus[data.draw(st.integers(0, len(corpus) - 1))]
    verdict = is_spherical_and_rank(H)
    assert is_spherical_and_rank(H, choose=rng.choice) == verdict
    assert verdict[0]
    if len(H.psi) > 1:
        pair = base_solve(H, choose_pair=lambda psi: tuple(rng.sample(psi, 2)))
        assert pair.roots == base_solve(H).roots


def _internal_nodes(result):
    if isinstance(result.proof, NodeProof):
        yield result
        for child in result.proof.children:
            yield from _internal_nodes(child)


def test_removed_roots_differ_at_every_node():
    # each internal recursion node loses two distinct roots, one per
    # branch; the corruption tests below reach the solver's own checks
    nodes = 0
    for family, n, complement, psi in CROSS_METHOD_CASES[:6]:
        for result in _internal_nodes(base_solve(datum(family, n, complement,
                                                       psi))):
            lost = result.proof.removed
            assert lost[0] != lost[1]
            for child, root in zip(result.proof.children, lost):
                assert root not in child.root_set
                assert child.root_set | {root} == result.root_set
            nodes += 1
    assert nodes > 6


def _lex_pair(psi):
    """The default pivots, passed explicitly so that no memo answers."""
    return psi[0], psi[1]


def _corrupt_first_branch(monkeypatch, H, edit):
    """Hand the result ``edit(roots)`` of H's first branch to the node."""
    child = degenerate(H, H.psi[0]).target
    real = solver._base_solve

    def patched(G, choose_pair):
        result = real(G, choose_pair)
        if G is child:
            result = result._replace(roots=edit(result.roots))
        return result

    monkeypatch.setattr(solver, "_base_solve", patched)


def _overstate_rank(monkeypatch):
    real = solver.is_spherical_and_rank

    def patched(H, choose=None):
        spherical, rank = real(H, choose)
        return spherical, rank + 1

    monkeypatch.setattr(solver, "is_spherical_and_rank", patched)


#: the B3 chain: its branches keep (0,0,1), (0,1,1) and (0,0,1), (1,1,0)
B3_CHAIN = ("B", 3, (3,), [(1,), (2,)])


def test_equal_pivots_are_refused():
    H = datum(*B3_CHAIN)
    with pytest.raises(InvariantViolation, match="pivots must differ"):
        base_solve(H, choose_pair=lambda psi: (psi[0], psi[0]))


def test_a_union_of_the_wrong_size_is_refused(monkeypatch):
    # the first node to finish, the first branch, already disagrees
    _overstate_rank(monkeypatch)
    with pytest.raises(InvariantViolation, match="union size 2 != rank 3"):
        base_solve(datum(*B3_CHAIN), choose_pair=_lex_pair)


def test_a_branch_keeping_every_root_is_refused(monkeypatch):
    # the first branch also keeps the root it lost: the union still has
    # the rank's size, but that branch lost none
    H = datum(*B3_CHAIN)
    _corrupt_first_branch(monkeypatch, H, lambda roots: roots + ((1, 1, 0),))
    with pytest.raises(InvariantViolation,
                       match="branch did not lose exactly one root"):
        base_solve(H, choose_pair=_lex_pair)


def test_a_branch_repeating_a_root_is_refused(monkeypatch):
    # the first branch names (0,1,1) twice: it has rank - 1 entries, but
    # two roots of the union are missing from it
    H = datum(*B3_CHAIN)
    _corrupt_first_branch(monkeypatch, H, lambda roots: ((0, 1, 1),) * 2)
    with pytest.raises(InvariantViolation,
                       match="branches must lose two distinct roots"):
        base_solve(H, choose_pair=_lex_pair)


def test_dependent_roots_are_refused(monkeypatch):
    # (1,1,1) in place of (0,1,1): the branches still lose one distinct
    # root each, but (1,1,1) = (1,1,0) + (0,0,1)
    H = datum(*B3_CHAIN)
    _corrupt_first_branch(monkeypatch, H, lambda roots: ((0, 0, 1), (1, 1, 1)))
    with pytest.raises(InvariantViolation,
                       match="spherical roots must be independent"):
        base_solve(H, choose_pair=_lex_pair)


def test_leaf_resolve_refuses_two_active_roots():
    with pytest.raises(InvariantViolation,
                       match="leaf_resolve needs at most one active root"):
        leaf_resolve(datum(*B3_CHAIN))


#: two blocks, each isolated to one active root: (0,1) keeps (0,0,1),
#: (1,1) keeps (1,1,0)
TWO_BLOCKS = ("B", 3, (2, 3), [(1, 1), (0, 1)])


def test_a_blockwise_union_of_the_wrong_size_is_refused(monkeypatch):
    _overstate_rank(monkeypatch)
    with pytest.raises(InvariantViolation,
                       match="blockwise union size 2 != rank 3"):
        optimized_solve(datum(*TWO_BLOCKS), "table")


def test_overlapping_block_contributions_are_refused(monkeypatch):
    # every block reports the first block's roots
    real = solver.leaf_resolve
    results = []

    def first_block(G):
        results.append(real(G))
        return results[0]

    monkeypatch.setattr(solver, "leaf_resolve", first_block)
    with pytest.raises(InvariantViolation,
                       match=r"block contributions overlap: \{\(0, 0, 1\)\}"):
        optimized_solve(datum(*TWO_BLOCKS), "table")


def test_isolation_refuses_a_shrink_that_loses_the_block(monkeypatch):
    # the shrunken datum keeps only the other block's root
    H = datum(*TWO_BLOCKS)
    other = solver.upsilon_and_hat(H, 0)[1]
    monkeypatch.setattr(solver, "upsilon_and_hat", lambda G, i: ((), other))
    with pytest.raises(InvariantViolation,
                       match="tracked block vanished after shrinking"):
        algorithm_d(H, 1)


def test_isolation_refuses_to_stop_with_several_blocks(monkeypatch):
    # no companions are reported, yet the datum still has two blocks
    H = datum(*TWO_BLOCKS)
    monkeypatch.setattr(solver, "upsilon_and_hat", lambda G, i: ((), G))
    with pytest.raises(InvariantViolation,
                       match="block isolation left extra blocks"):
        algorithm_d(H, 0)


def test_ambient_reduction_commutes_with_solving():
    for family, n, complement, psi in CROSS_METHOD_CASES[:8]:
        H = datum(family, n, complement, psi)
        reduced, sub = ambient_reduction(H)
        assert base_solve(H).root_set == \
            {embed(s, sub.nodes, H.rs.rank) for s in base_solve(reduced).roots}


TWO_BLOCK_CASES = [
    ("A", 2, (1, 2), [(1, 0), (0, 1)]),
    ("B", 3, (2, 3), [(1, 1), (0, 1)]),
]


def _replay_match(certificate, roots):
    """Replay the table match of one certificate from its data alone."""
    match = certificate["match"]
    assert set(match) == {"table", "row", "family", "n", "params"}
    row = instantiate_row(match["table"], match["row"], match["n"],
                          match["params"])
    assert row.family == match["family"]
    assert row.rank == len(roots)


def test_table_certificates_replay_through_instantiate_row():
    # every spherical datum of the B5 regeneration unit, its one-root data
    # included, plus the two-block and cross-method cases above: both table
    # routes certify their matches in one shape that names the instance
    rs = build("B", 5)
    data = [rec.datum for size, psi_size in ((1, 1), (1, 2), (2, 2))
            for rec in enumerate_cases(rs, size, psi_size, solve=False)
            if rec.spherical]
    data += [datum(*case) for case in TWO_BLOCK_CASES + CROSS_METHOD_CASES]
    matches = 0
    for H in data:
        if len(H.psi) <= 1:
            result = leaf_resolve(H)
            assert set(result.certificate) == {"datum", "match"}
            _replay_match(result.certificate, result.roots)
            matches += 1
        for block in optimized_solve(H, "table").certificate["blocks"]:
            assert set(block["certificate"]) == {"datum", "match"}
            _replay_match(block["certificate"], block["sigma"])
            matches += 1
    assert (len(data), matches) == (31, 43)
