"""Properties of the solve routes, on data drawn from the every-datum corpus.

The data are those ``helpers.every_datum_sweep`` solved: every spherical
datum of every Levi of ``helpers.EVERY_DATUM_TYPES``.  Hypothesis draws
them with a fixed seed (``derandomize``) and a bounded number of
examples, so a run is repeatable and its cost is bounded.

- A diagram automorphism sigma moves a datum to a datum, and its
  spherical roots with it: solve(sigma H) = sigma(solve(H)) on all three
  routes, for every sigma of the type (A2-A5, D3, the triality of D4, D5).
- Shrinking the ambient system to the active supports commutes with
  solving on one-block data, whose supports are connected: the roots of
  the reduced datum, embedded, are those of H.
- Neither the verdict nor the roots depend on the choices the routes
  make: a drawn ``choose`` of the sphericity reduction gives the default
  verdict, and a drawn ``choose_pair`` of the two-branch solve, on data
  with two or more active roots, the default roots.
"""

import functools

from hypothesis import given, settings, strategies as st

import sphroots.rootsystem as rsmod
from sphroots.croots import complement_levi
from sphroots.solver import base_solve, optimized_solve
from sphroots.sphericity import is_spherical_and_rank
from sphroots.subgroup import ambient_reduction, make_subgroup, sm_decomposition

from helpers import every_datum_sweep

#: examples per property; the corpus is solved once, so each costs little
EXAMPLES = 150

bounded = settings(derandomize=True, max_examples=EXAMPLES, deadline=None,
                   database=None)

#: for the properties that solve afresh, with no memo, on every example
fewer = settings(bounded, max_examples=EXAMPLES // 3)


@functools.cache
def _corpus(symmetric_only):
    """The corpus's data, in sweep order; with ``symmetric_only``, those of
    the types whose diagram has a nontrivial automorphism."""
    return tuple(H for (family, n), data in every_datum_sweep().data.items()
                 if not symmetric_only
                 or len(rsmod.diagram_automorphisms(rsmod.build(family, n))) > 1
                 for H in data)


@functools.cache
def _multi_root_corpus():
    """The corpus's data with two or more active roots."""
    return tuple(H for H in _corpus(False) if len(H.psi) >= 2)


@functools.cache
def _one_block_corpus():
    """The corpus's data whose block decomposition is trivial."""
    return tuple(H for H in _corpus(False) if sm_decomposition(H).trivial)


def _image(H, perm):
    """sigma H for the diagram automorphism ``perm``: the complement nodes
    moved by sigma and each active root's coordinate moved with its node."""
    complement = H.L.complement
    moved = sorted(perm[c - 1] for c in complement)
    psi = []
    for lam in H.psi:
        by_node = {perm[c - 1]: x for c, x in zip(complement, lam)}
        psi.append(tuple(by_node[a] for a in moved))
    return make_subgroup(complement_levi(H.rs, moved), psi)


def _root_image(root, perm):
    """sigma applied to a root in simple-root coordinates."""
    out = [0] * len(root)
    for i, x in enumerate(root):
        out[perm[i] - 1] = x
    return tuple(out)


@bounded
@given(st.data())
def test_solving_commutes_with_diagram_automorphisms(data):
    H = data.draw(st.sampled_from(_corpus(True)))
    roots = base_solve(H).roots
    for perm in rsmod.diagram_automorphisms(H.rs)[1:]:
        image = _image(H, perm)
        want = {_root_image(r, perm) for r in roots}
        assert base_solve(image).root_set == want, (H, perm)
        assert optimized_solve(image, "compute").root_set == want, (H, perm)
        assert optimized_solve(image, "table").root_set == want, (H, perm)


@bounded
@given(st.data())
def test_ambient_reduction_commutes_with_solving(data):
    H = data.draw(st.sampled_from(_one_block_corpus()))
    reduced, sub = ambient_reduction(H)
    assert {rsmod.embed(s, sub.nodes, H.rs.rank)
            for s in base_solve(reduced).roots} == base_solve(H).root_set, H


@fewer
@given(st.data())
def test_the_verdict_does_not_depend_on_the_choice(data):
    H = data.draw(st.sampled_from(_corpus(False)))
    verdict = is_spherical_and_rank(H)
    assert is_spherical_and_rank(
        H, choose=lambda maximal: data.draw(st.sampled_from(maximal))
    ) == verdict, H


@fewer
@given(st.data())
def test_the_roots_do_not_depend_on_the_pivot_pair(data):
    H = data.draw(st.sampled_from(_multi_root_corpus()))

    def choose_pair(psi):
        return tuple(data.draw(st.permutations(psi))[:2])

    assert base_solve(H, choose_pair=choose_pair).root_set == \
        base_solve(H).root_set, H
