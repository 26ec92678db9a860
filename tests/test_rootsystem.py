"""Root-system construction, pairings, subsystems, diagram recognition.

Expected root sets come from the independent Euclidean realization in
``oracles.py``; counts additionally match the closed-form formulas.
"""

import itertools
import os
import subprocess
import sys
import types
from operator import mul

import pytest

import sphroots.rootsystem as rsmod
from sphroots.errors import DimensionMismatch, InvalidType, InvariantViolation

from helpers import system
from oracles import (
    brute_force_isomorphisms,
    close_positive_roots,
    euclidean_cartan,
    euclidean_positive_roots,
    euclidean_simple_roots,
    rational_symmetrizer,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(2, 13)]
    + [("D", n) for n in range(3, 13)]
    + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]
)

COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G2": lambda n: 6,
    "F4": lambda n: 24,
    "E6": lambda n: 36,
    "E7": lambda n: 63,
    "E8": lambda n: 120,
}


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_positive_root_counts(family, n):
    rs = rsmod.build(family, n)
    assert len(rs.positive_roots) == COUNTS[family](n)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_positive_roots_match_euclidean_model(family, n):
    rs = rsmod.build(family, n)
    assert set(rs.positive_roots) == euclidean_positive_roots(family, n)


@pytest.mark.parametrize("family,n",
                         [("B", 5), ("C", 5), ("F4", 4), ("G2", 2),
                          ("E7", 7), ("A", 4), ("D", 6)])
def test_cartan_matches_euclidean_model(family, n):
    rs = rsmod.build(family, n)
    assert rs.cartan == euclidean_cartan(family, n)


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_sorted_by_height_then_lex(family, n):
    rs = rsmod.build(family, n)
    keys = [(sum(r), r) for r in rs.positive_roots]
    assert keys == sorted(keys)


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_cartan_invariants(family, n):
    rs = rsmod.build(family, n)
    c, d = rs.cartan, rs.symmetrizer
    for i in range(n):
        assert c[i][i] == 2
        assert d[i] > 0
        for j in range(n):
            if i != j:
                assert c[i][j] <= 0
                assert (c[i][j] == 0) == (c[j][i] == 0)
            assert d[i] * c[i][j] == d[j] * c[j][i]


def test_e8_highest_root():
    rs = rsmod.build("E8")
    top = rs.positive_roots[-1]
    assert top == (2, 3, 4, 6, 5, 4, 3, 2)
    assert sum(top) == 29


def test_invalid_types():
    for family, n in (("B", 1), ("C", 1), ("D", 2), ("A", 0), ("E6", 5)):
        with pytest.raises(InvalidType):
            rsmod.build(family, n)
    with pytest.raises(InvalidType):
        rsmod.build("H", 4)


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_coroot_pairing_matches_euclidean_model(family, n):
    # on every pair of roots gamma, w, negatives included:
    # <alpha_i^vee, w> == 2 (alpha_i, w) / (alpha_i, alpha_i),
    # inner(gamma, w) is (gamma, w) up to one scale for the system,
    # <gamma^vee, w> == 2 (gamma, w) / (gamma, gamma), and
    # norm(gamma) == inner(gamma, gamma)
    rs = rsmod.build(family, n)
    simple = euclidean_simple_roots(family, n)
    roots = list(rs.positive_roots) + [tuple(-x for x in r)
                                       for r in rs.positive_roots]
    # twice the Euclidean coordinates, which are integers for every type
    coords = {}
    for r in roots:
        twice = [2 * sum(c * s[k] for c, s in zip(r, simple))
                 for k in range(len(simple[0]))]
        assert all(x.denominator == 1 for x in twice)
        coords[r] = [int(x) for x in twice]

    def dot(a, b):
        return sum(map(mul, a, b))

    unit = [coords[rs.simple_root(i)] for i in range(1, n + 1)]
    scale = (rsmod.inner(rs, rs.simple_root(1), rs.simple_root(1)),
             dot(unit[0], unit[0]))
    for gamma in roots:
        g = coords[gamma]
        g_norm = dot(g, g)
        assert [b * dot(a, a) for b, a in zip(rsmod.pairings(rs, gamma), unit)] \
            == [2 * dot(a, g) for a in unit], gamma
        assert rsmod.norm(rs, gamma) == rsmod.inner(rs, gamma, gamma)
        for w in roots:
            e = dot(g, coords[w])
            assert rsmod.inner(rs, gamma, w) * scale[1] == e * scale[0], \
                (gamma, w)
            assert rsmod.coroot_pairing(rs, gamma, w) * g_norm == 2 * e, \
                (gamma, w)


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_pairing_form_memo_matches_fresh_computation(family, n):
    rs = rsmod.build(family, n)
    for gamma in rs.positive_roots:
        form = rsmod.pairing_form(rs, gamma)
        fresh = [(i, 2 * d * x) for i, (d, x)
                 in enumerate(zip(rs.symmetrizer, rsmod.pairings(rs, gamma)))
                 if x]
        assert list(form) == fresh, gamma
        assert rsmod.norm(rs, gamma) == rsmod.inner(rs, gamma, gamma), gamma
        # one shared, immutable form per positive root asked for
        assert rs._forms[gamma] is form
        assert rsmod.pairing_form(rs, list(gamma)) is form
        assert isinstance(form, tuple)
        assert all(isinstance(term, tuple) for term in form)


def test_pairing_form_memoizes_positive_roots_only():
    rs = rsmod.build("B", 3)
    for w in ((-1, -1, -1), (2, 0, 0)):
        fresh = [(i, 2 * d * x) for i, (d, x)
                 in enumerate(zip(rs.symmetrizer, rsmod.pairings(rs, w)))
                 if x]
        assert list(rsmod.pairing_form(rs, w)) == fresh
        assert rsmod.norm(rs, w) == rsmod.inner(rs, w, w)
        assert w not in rs._forms
    assert rsmod.norm(rs, (2, 0, 0)) == 4 * rsmod.norm(rs, (1, 0, 0))


def test_coroot_pairing_rejects_fractional_value():
    # <(2 alpha_1)^vee, alpha_2> = -1/2 in A2: 2 alpha_1 is no root
    with pytest.raises(InvariantViolation):
        rsmod.coroot_pairing(rsmod.build("A2"), (2, 0), (0, 1))


def test_pairing_examples():
    b3 = rsmod.build("B", 3)
    assert rsmod.pairings(b3, b3.simple_root(2))[2] == -2
    assert rsmod.pairings(b3, b3.simple_root(1))[0] == 2
    a3 = rsmod.build("A", 3)
    assert rsmod.pairings(a3, a3.simple_root(3))[0] == 0
    with pytest.raises(DimensionMismatch):
        rsmod.pairings(b3, (1, 0))


@pytest.mark.parametrize("family,n", [("B", 3), ("C", 4), ("G2", 2), ("F4", 4)])
def test_pairing_consistent_with_inner(family, n):
    # <alpha_i^vee, w> * (alpha_i, alpha_i) == 2 * (alpha_i, w) for all roots w
    rs = rsmod.build(family, n)
    for i in range(1, n + 1):
        ai = rs.simple_root(i)
        norm = rsmod.inner(rs, ai, ai)
        for w in rs.positive_roots:
            assert rsmod.pairings(rs, w)[i - 1] * norm == \
                2 * rsmod.inner(rs, ai, w)


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_support_of_roots_is_connected(family, n):
    rs = rsmod.build(family, n)
    for beta in rs.positive_roots:
        supp = tuple(i + 1 for i, x in enumerate(beta) if x)
        comps = rsmod._components(rs.cartan, supp)
        assert len(comps) == 1


@pytest.mark.parametrize("family,n",
                         [("A", 5), ("B", 4), ("C", 4), ("D", 5),
                          ("F4", 4), ("G2", 2), ("E6", 6)])
def test_height_two_and_up_have_a_descent(family, n):
    # every non-simple positive root admits a simple root with positive
    # pairing whose subtraction stays inside the positive roots
    rs = rsmod.build(family, n)
    for beta in rs.positive_roots:
        if sum(beta) < 2:
            continue
        found = False
        for i in range(1, n + 1):
            if rsmod.pairings(rs, beta)[i - 1] > 0:
                down = tuple(b - a for b, a in
                             zip(beta, rs.simple_root(i)))
                if down in rs.positive_set:
                    found = True
                    break
        assert found, beta


def test_string_closure_rule():
    # beta + alpha is a root iff the string rule says so
    for family, n in (("B", 3), ("G2", 2), ("F4", 4)):
        rs = rsmod.build(family, n)
        full = set(rs.positive_roots) | {tuple(-x for x in r)
                                         for r in rs.positive_roots}
        for beta in rs.positive_roots:
            for i in range(1, n + 1):
                alpha = rs.simple_root(i)
                if beta == alpha:
                    continue
                p = 0
                down = tuple(b - a for b, a in zip(beta, alpha))
                while down in full or down == rs.zero():
                    p += 1
                    down = tuple(b - a for b, a in zip(down, alpha))
                q = p - rsmod.pairings(rs, beta)[i - 1]
                up = tuple(b + a for b, a in zip(beta, alpha))
                assert (q > 0) == (up in full)


def test_symmetrizer_scale_invariance():
    rs = rsmod.build("F4", 4)
    scaled = rsmod.RootSystem(rs.type_label, rs.rank, rs.cartan,
                              tuple(3 * d for d in rs.symmetrizer),
                              rs.positive_roots,
                              {r: 3 * x for r, x in rs._norms.items()},
                              rs.codes)
    for v in rs.positive_roots[:8]:
        for w in rs.positive_roots[:8]:
            assert rsmod.inner(scaled, v, w) == 3 * rsmod.inner(rs, v, w)
            assert rsmod.coroot_pairing(scaled, v, w) == \
                rsmod.coroot_pairing(rs, v, w)


SYMMETRIZER_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)


@pytest.mark.parametrize("family,n", SYMMETRIZER_TYPES)
def test_symmetrizer_of_node_subsets_matches_rational_oracle(family, n):
    cartan = rsmod.standard_cartan(family, n)
    for k in range(1, n + 1):
        for nodes in itertools.combinations(range(n), k):
            sub = tuple(tuple(cartan[i][j] for j in nodes) for i in nodes)
            assert rsmod._symmetrizer_from_cartan(sub) == \
                rational_symmetrizer(sub), nodes


def _block_diagonal(a, b):
    m, n = len(a), len(b)
    return (tuple(tuple(row) + (0,) * n for row in a)
            + tuple((0,) * m + tuple(row) for row in b))


def test_symmetrizer_of_block_products_matches_rational_oracle():
    blocks = [rsmod.standard_cartan(*t) for t in
              [("A", 1), ("B", 2), ("C", 3), ("B", 3), ("G2", 2), ("F4", 4)]]
    for a, b in itertools.product(blocks, repeat=2):
        product = _block_diagonal(a, b)
        assert rsmod._symmetrizer_from_cartan(product) == \
            rational_symmetrizer(product), (a, b)
    # B2's nodes get (1, 1/2) and A1's node 1: components share one scale
    b2_a1 = _block_diagonal(blocks[1], blocks[0])
    assert rsmod._symmetrizer_from_cartan(b2_a1) == (2, 1, 2)


def test_subsystem_examples():
    b3 = rsmod.build("B", 3)
    sub = rsmod.subsystem(b3, (2, 3))
    assert sub.nodes == (2, 3)
    embedded = {rsmod.embed(r, sub.nodes, 3) for r in sub.system.positive_roots}
    assert embedded == {(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)}

    e6 = rsmod.build("E6")
    sub = rsmod.subsystem(e6, (1, 3, 4, 5, 6))
    assert len(sub.system.positive_roots) == 15  # type A5

    assert rsmod.subsystem(b3, ()).system.positive_roots == ()
    full = rsmod.subsystem(b3, (1, 2, 3))
    assert set(full.system.positive_roots) == set(b3.positive_roots)


def test_build_refuses_a_closure_with_the_wrong_root_count(monkeypatch):
    # a skewed expected count stands for a closure that lost or gained a root
    monkeypatch.setattr(rsmod, "_systems", {})
    monkeypatch.setattr(rsmod, "_POSITIVE_COUNT",
                        dict(rsmod._POSITIVE_COUNT, A=lambda n: n * n))
    with pytest.raises(InvariantViolation,
                       match=r"A4: closure produced 10 positive roots, "
                             r"expected 16"):
        rsmod.build("A", 4)


def test_subsystem_refuses_a_closure_that_disagrees_with_the_filter(
        monkeypatch):
    # nodes 1-3 of B4 span A3; an interned A3 that lost its highest root
    # must not pass for the roots of B4 supported on those nodes
    monkeypatch.setattr(rsmod, "_systems", {})
    b4 = rsmod.build("B", 4)
    key = tuple(row[:3] for row in b4.cartan[:3])
    symmetrizer = rsmod._symmetrizer_from_cartan(key)
    roots, norms, codes = rsmod._close_positive_roots(key, symmetrizer)
    corrupted = rsmod.RootSystem(None, 3, key, symmetrizer, roots[:-1],
                                 norms, codes)
    monkeypatch.setattr(rsmod, "_systems", {key: corrupted})
    with pytest.raises(InvariantViolation,
                       match="subsystem filter disagrees with closure"):
        rsmod.subsystem(b4, (1, 2, 3))


def test_diagram_automorphism_groups():
    assert rsmod.diagram_automorphisms(rsmod.build("A", 1)) == ((1,),)
    assert rsmod.diagram_automorphisms(rsmod.build("A", 3)) == ((1, 2, 3), (3, 2, 1))
    assert len(rsmod.diagram_automorphisms(rsmod.build("D", 4))) == 6
    d4 = rsmod.diagram_automorphisms(rsmod.build("D", 4))
    assert all(p[1] == 2 for p in d4)  # the center node is fixed
    assert len(rsmod.diagram_automorphisms(rsmod.build("D", 6))) == 2
    assert rsmod.diagram_automorphisms(rsmod.build("F4")) == ((1, 2, 3, 4),)
    assert rsmod.diagram_automorphisms(rsmod.build("G2")) == ((1, 2),)
    assert rsmod.diagram_automorphisms(rsmod.build("E6")) == \
        ((1, 2, 3, 4, 5, 6), (6, 2, 5, 4, 3, 1))
    assert len(rsmod.diagram_automorphisms(rsmod.build("E7"))) == 1
    assert rsmod.diagram_automorphisms(rsmod.build("B", 5)) == ((1, 2, 3, 4, 5),)


@pytest.mark.parametrize("n", [20, 24, 64])
def test_classical_diagrams_at_large_rank(n):
    # A and D have the flip, B and C only the identity, and no classical
    # diagram relabels onto another classical family of its rank
    for family in "ABCD":
        rs = rsmod.build(family, n)
        assert len(rsmod.diagram_automorphisms(rs)) == (
            2 if family in "AD" else 1)
        for other in "ABCD":
            if other != family:
                assert rsmod.diagram_isomorphisms(
                    rs, range(1, n + 1), other, n) == [], (family, other)


def test_b2_c2_relabeling():
    # the rank-2 double bond admits relabelings onto both standard forms
    b2 = rsmod.build("B", 2)
    assert rsmod.diagram_isomorphisms(b2, (1, 2), "B", 2) == [{1: 1, 2: 2}]
    assert rsmod.diagram_isomorphisms(b2, (1, 2), "C", 2) == [{1: 2, 2: 1}]
    assert rsmod.diagram_isomorphisms(b2, (1, 2), "A", 2) == []


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_standard_cartan_matches_euclidean_model(family, n):
    assert rsmod.standard_cartan(family, n) == euclidean_cartan(family, n)
    assert rsmod.standard_cartan(f"{family[0]}{n}") == rsmod.standard_cartan(family, n)


def _is_connected(cartan, nodes):
    seen, queue = {nodes[0]}, [nodes[0]]
    while queue:
        i = queue.pop()
        for j in nodes:
            if j not in seen and cartan[i - 1][j - 1]:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(nodes)


def _valid_ranks(family, m):
    if family in ("E6", "E7", "E8", "F4", "G2"):
        return int(family[1]) == m
    return m >= {"A": 1, "B": 2, "C": 2, "D": 3}[family]


def _as_set(isos):
    return {frozenset(f.items()) for f in isos}


@pytest.mark.parametrize("family,n,full_only",
                         [("B", 6, False), ("C", 6, False), ("D", 6, False),
                          ("F4", 4, False), ("G2", 2, False), ("E6", 6, False),
                          ("E7", 7, False), ("E8", 8, True)])
def test_diagram_isomorphisms_match_brute_force(family, n, full_only):
    rs = rsmod.build(family, n)
    sizes = [n] if full_only else range(1, n + 1)
    for k in sizes:
        for comp in itertools.combinations(range(1, n + 1), k):
            if not _is_connected(rs.cartan, comp):
                continue
            for target in rsmod.FAMILIES:
                got = rsmod.diagram_isomorphisms(rs, comp, target, k)
                if not _valid_ranks(target, k):
                    assert got == []
                    continue
                expected = brute_force_isomorphisms(
                    rs.cartan, comp, euclidean_cartan(target, k))
                assert len(got) == len(_as_set(got))
                assert _as_set(got) == _as_set(expected), (comp, target)


@pytest.mark.parametrize("family,n", [("A", 8), ("B", 8), ("C", 8), ("D", 8),
                                      ("E6", 6), ("E7", 7), ("E8", 8),
                                      ("F4", 4), ("G2", 2)])
def test_connected_subsystems_are_build_systems(family, n):
    # a connected node set is laid out in a standard numbering, so its
    # system is the one interned system of its type; a disconnected one
    # keeps its ascending order and has no type
    rs = rsmod.build(family, n)
    ambient = euclidean_positive_roots(family, n)
    for k in range(1, n):
        for S in itertools.combinations(range(1, n + 1), k):
            sub = rsmod.subsystem(rs, S)
            label = sub.system.type_label
            if _is_connected(rs.cartan, S):
                assert sub.system is rsmod.build(label, k), S
            else:
                assert label is None and sub.nodes == S
            assert sorted(sub.nodes) == list(S)
            supported = {beta for beta in ambient
                         if all(x == 0 or i + 1 in S
                                for i, x in enumerate(beta))}
            assert {rsmod.embed(r, sub.nodes, n)
                    for r in sub.system.positive_roots} == supported, S


def _labeled_graph(n, bonds):
    """A Cartan-like matrix with the given bond labels ``(c_ij, c_ji)``,
    with the sparse columns a system keeps; no root system is built."""
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), (cij, cji) in bonds.items():
        cartan[i - 1][j - 1], cartan[j - 1][i - 1] = cij, cji
    cartan = tuple(map(tuple, cartan))
    columns = tuple(tuple((i, c) for i, c in enumerate(col) if c)
                    for col in zip(*cartan))
    return types.SimpleNamespace(cartan=cartan, _columns=columns)


def test_relabelings_check_every_placed_neighbour():
    # on a labeled graph with cycles a node must be checked against every
    # placed neighbour, not only the one it is placed next to; Dynkin
    # diagrams are trees, where the node signatures alone would do
    source = _labeled_graph(4, {(1, 2): (-1, -2), (1, 3): (-1, -2),
                                (1, 4): (-2, -1), (2, 3): (-1, -2),
                                (2, 4): (-1, -2)})
    target = _labeled_graph(4, {(1, 2): (-1, -2), (1, 3): (-2, -1),
                                (1, 4): (-1, -2), (2, 3): (-2, -1),
                                (3, 4): (-2, -1)})
    got = rsmod._isomorphisms_onto(rsmod._adjacency(source, range(1, 5)),
                                   rsmod._adjacency(target, range(1, 5)))
    want = brute_force_isomorphisms(source.cartan, range(1, 5), target.cartan)
    assert len(want) == 1
    assert _as_set(got) == _as_set(want)


def test_leaf_matching_builds_no_other_standard_system():
    # a fresh interpreter, so that no earlier test has interned rank 22; the
    # Levi datum reads its roots off the ambient ones, so no derived system
    # is interned, no negative root is built and no line is numbered
    code = (
        "import sphroots.rootsystem as rsmod\n"
        "from sphroots.cli import main\n"
        "assert main(['compute', '--type', 'C', '--rank', '22', '--complement',"
        " '22', '--psi', '1', '--format', 'json']) == 0\n"
        "print('lines' in vars(rsmod.build('C', 22)))\n"
        "c22 = rsmod.build('C', 22)\n"
        "print([rs is c22 for rs in rsmod._systems.values()])\n")
    src = os.path.dirname(os.path.dirname(rsmod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.splitlines()[-2:] == ["False", "[True]"]


@pytest.mark.parametrize("family,n", [("F4", 4), ("E6", 6), ("D", 5)])
def test_from_cartan_of_node_subsets_matches_ambient_roots(family, n):
    ambient = euclidean_positive_roots(family, n)
    cartan = rsmod.standard_cartan(family, n)
    for k in range(n):
        for nodes in itertools.combinations(range(n), k):
            sub = rsmod.from_cartan(tuple(cartan[i][j] for j in nodes)
                                    for i in nodes)
            supported = {tuple(beta[i] for i in nodes) for beta in ambient
                         if not any(x for i, x in enumerate(beta)
                                    if i not in nodes)}
            assert set(sub.positive_roots) == supported, nodes
            assert len(sub.positive_roots) == len(supported)


@pytest.mark.parametrize(
    "family,n",
    ALL_TYPES + [(f, 30) for f in "ABCD"] + [("C", 64)])
def test_closure_matches_plain_closure_and_pairing_lengths(family, n):
    cartan = rsmod.standard_cartan(family, n)
    symmetrizer = rsmod._symmetrizer_from_cartan(cartan)
    roots, norms, codes = rsmod._close_positive_roots(cartan, symmetrizer)
    assert roots == close_positive_roots(cartan)
    assert norms.keys() == set(roots)
    assert codes == {r: int.from_bytes(bytes(x + rsmod.CODE_OFFSET for x in r),
                                       "little") for r in roots}
    rs = rsmod.build(family, n)
    for beta in roots:
        assert norms[beta] == sum(map(mul, map(mul, beta, symmetrizer),
                                      rsmod.pairings(rs, beta))), beta


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_closure_count_at_rank_30(family):
    cartan = rsmod.standard_cartan(family, 30)
    roots, _, _ = rsmod._close_positive_roots(
        cartan, rsmod._symmetrizer_from_cartan(cartan))
    assert len(roots) == len(set(roots)) == COUNTS[family](30)
    assert all(min(r) >= 0 for r in roots)


@pytest.mark.parametrize("family,n", [("A", 5), ("B", 7), ("C", 64),
                                      ("D", 64), ("E8", 8), ("F4", 4),
                                      ("G2", 2), ("E6+A1", 7)])
def test_line_numbering_keys_follow_the_sorted_height_order(family, n):
    # positive root i is line i, its negative line N + i and the zero
    # weight line 2N, so the positive lines run in (height, lex) order
    rs = system(family, n)
    roots, lines = rs.positive_roots, rs.lines
    count = len(roots)
    assert len(lines) == 2 * count + 1
    assert lines[:count] == roots == tuple(sorted(roots, key=rsmod.height_key))
    assert lines[count:2 * count] == tuple(tuple(-x for x in r) for r in roots)
    assert lines[-1] == rs.zero()
