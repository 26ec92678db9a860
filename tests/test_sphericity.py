"""Weight-multiset reduction: verdicts, ranks, choice independence."""

import copy
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sphroots.rootsystem as rsmod
import sphroots.sphericity as sphericity
from sphroots.croots import levi_datum
from sphroots.errors import ClosureViolation, InvariantViolation
from sphroots.sphericity import (
    is_spherical_and_rank,
    knop_reduce,
    linearly_independent,
)
from sphroots.subgroup import SubgroupDatum, make_subgroup

from helpers import datum, levi
from oracles import knop_reduce as reference_knop_reduce, rank

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_linearly_independent():
    assert linearly_independent([])
    assert not linearly_independent([(0, 0)])
    assert not linearly_independent([(2, 4), (1, 2)])
    assert linearly_independent([(1, 0, 1), (0, 1, 1)])
    assert not linearly_independent([(1, 0, 1), (0, 1, 1), (1, 1, 2)])
    assert linearly_independent([(1, 0), (0, 1)])
    assert not linearly_independent([(1, 1), (1, 1)])


@st.composite
def _vector_lists(draw):
    """Up to 8 integer vectors of one length 1-8, entries in [-3, 3], with
    duplicates, zero rows and combinations of earlier rows planted among
    them."""
    n = draw(st.integers(1, 8))
    vectors = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                            max_size=8))
    for _ in range(draw(st.integers(0, 8 - len(vectors)))):
        kind = draw(st.sampled_from(("duplicate", "zero", "combination")))
        if kind == "zero" or not vectors:
            row = (0,) * n
        elif kind == "duplicate":
            row = draw(st.sampled_from(vectors))
        else:
            coefficients = draw(st.lists(st.integers(-3, 3),
                                         min_size=len(vectors),
                                         max_size=len(vectors)))
            row = tuple(sum(c * v[i] for c, v in zip(coefficients, vectors))
                        for i in range(n))
        vectors.insert(draw(st.integers(0, len(vectors))), row)
    return vectors


@settings(derandomize=True, database=None, max_examples=300)
@given(_vector_lists())
def test_linearly_independent_matches_rational_rank(vectors):
    assert linearly_independent(vectors) == (rank(vectors) == len(vectors))


def test_reduction_c2_example():
    rs = rsmod.build("C", 2)
    L = levi_datum(rs, (1,))
    w = knop_reduce(rs, (1,), L.delta_l_plus, [(0, 1), (1, 1), (2, 1)])
    assert w.theta == ((2, 1), (0, 1))
    assert w.spherical and w.rank == 2


def test_reduction_b3_example():
    rs = rsmod.build("B", 3)
    L = levi_datum(rs, (1, 2))
    omega = [r for r in rs.positive_roots if r[2] >= 1]
    w = knop_reduce(rs, (1, 2), L.delta_l_plus, omega)
    assert w.theta == ((1, 2, 2), (1, 1, 1), (0, 0, 1))
    assert w.spherical and w.rank == 3
    # trace records the Levi shrinking at each step
    assert w.trace[0].pi_m == (1,)
    assert w.trace[1].pi_m == ()


def test_reduction_single_weight():
    rs = rsmod.build("A", 2)
    w = knop_reduce(rs, (), (), [(0, 1)])
    assert w.theta == ((0, 1),) and w.spherical and w.rank == 1


def test_reduction_empty_multiset():
    rs = rsmod.build("A", 2)
    w = knop_reduce(rs, (), (), [])
    assert w.theta == () and w.spherical and w.rank == 0


def test_is_spherical_examples():
    assert is_spherical_and_rank(datum("B", 3, (3,), [(1,), (2,)])) == (True, 3)
    assert is_spherical_and_rank(datum("C", 4, (2,), [(1,), (2,)])) == (False, None)
    assert is_spherical_and_rank(datum("B", 3, (3,), [])) == (True, 0)


def test_nonspherical_g2_second_node():
    assert is_spherical_and_rank(datum("G2", 2, (2,), [(1,)]))[0] is False


def test_theta_lies_in_root_lattice_span():
    H = datum("C", 4, (1, 3), [(1, 0), (0, 1)])
    w = knop_reduce(H.rs, H.L.levi, H.L.delta_l_plus, H.u_roots)
    assert w.spherical
    u = set(H.u_roots)
    for t in w.theta:
        assert len(t) == 4
    assert set(w.trace[0].removed) <= u | set(w.theta)


def _random_chooser(rng):
    def choose(candidates):
        return rng.choice(candidates)
    return choose


@pytest.mark.parametrize("family,n", [("B", 3), ("C", 3), ("A", 4), ("D", 4)])
def test_tie_break_independence(family, n):
    # verdict and reduction length survive randomized maximal-weight choices
    rng = random.Random(20240809)
    rs = rsmod.build(family, n)
    cases = []
    for size in (1, 2):
        for complement in itertools.combinations(range(1, n + 1), size):
            L = levi(family, n, complement)
            units = sorted({L.restrict(rs.simple_root(a)) for a in complement})
            pool = [(lam,) for lam in units]
            pool += [tuple(sorted((lam, mu))) for lam in units
                     for mu in L.phi_plus if mu != lam]
            for psi in pool:
                try:
                    cases.append(make_subgroup(L, psi))
                except ClosureViolation:
                    continue
    assert len(cases) > 20
    for H in cases:
        baseline = is_spherical_and_rank(H)
        for _ in range(3):
            trial = is_spherical_and_rank(H, choose=_random_chooser(rng))
            assert trial == baseline


def test_submodule_monotonicity():
    # dropping whole fibers from a spherical datum keeps it spherical
    for family, n in (("B", 4), ("C", 4), ("A", 5)):
        rs = rsmod.build(family, n)
        for size in (1, 2):
            for complement in itertools.combinations(range(1, n + 1), size):
                L = levi(family, n, complement)
                units = sorted({L.restrict(rs.simple_root(a))
                                for a in complement})
                for lam in units:
                    for mu in L.phi_plus:
                        if mu == lam:
                            continue
                        try:
                            H = make_subgroup(L, (lam, mu))
                        except ClosureViolation:
                            continue
                        if not is_spherical_and_rank(H)[0]:
                            continue
                        for sub_psi in ((lam,), (mu,)):
                            try:
                                sub = make_subgroup(L, sub_psi)
                            except ClosureViolation:
                                continue
                            assert is_spherical_and_rank(sub)[0]


#: the ambient types of the Borel-bound corpus
BOUND_TYPES = ([("A", n) for n in range(3, 9)] + [("B", n) for n in range(3, 8)]
               + [("C", n) for n in range(3, 8)] + [("D", n) for n in range(4, 9)]
               + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


def _one_and_two_root_data():
    """Every valid datum with one or two active roots on one or two
    complement nodes of the ``BOUND_TYPES``."""
    for family, n in BOUND_TYPES:
        for size in (1, 2):
            for complement in itertools.combinations(range(1, n + 1), size):
                L = levi(family, n, complement)
                for k in (1, 2):
                    for psi in itertools.combinations(L.phi_plus, k):
                        try:
                            yield make_subgroup(L, psi)
                        except ClosureViolation:
                            continue


def _beyond_the_borel(H):
    return H.u_mask.bit_count() > len(H.L.delta_l_plus) + H.rs.rank


def test_borel_dimension_bound_never_refuses_a_spherical_datum():
    # a module larger than dim B_L = |Phi_L^+| + rank leaves the reduction
    # more than rank picks, so it is never spherical; the verdict, settled
    # by that count or reduced, equals a fresh reduction's on every datum
    data = nonspherical = settled = 0
    for H in _one_and_two_root_data():
        w = knop_reduce(H.rs, H.L.levi, H.L.delta_l_plus, H.u_roots)
        assert is_spherical_and_rank(H) == (w.spherical, w.rank), H
        beyond = _beyond_the_borel(H)
        assert not (beyond and w.spherical), H
        data += 1
        nonspherical += not w.spherical
        settled += beyond
    assert (data, nonspherical, settled) == (2225, 795, 627)


def test_only_the_default_path_settles_by_the_bound(monkeypatch):
    reductions = []
    real = sphericity.knop_reduce

    def counted(*args, **kwargs):
        reductions.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sphericity, "knop_reduce", counted)
    # fresh data, so no memoized verdict answers for the bound; the C4
    # module has 11 weights against dim B_L = 9, the B3 chain's 6 meet
    # its dim B_L = 6
    wide = datum("C", 4, (2,), [(1,), (2,)])
    wide = SubgroupDatum(wide.L, wide.psi)
    assert _beyond_the_borel(wide)
    assert is_spherical_and_rank(wide) == (False, None)
    assert reductions == []
    assert is_spherical_and_rank(wide, choose=max) == (False, None)
    assert len(reductions) == 1

    tight = datum("B", 3, (3,), [(1,), (2,)])
    tight = SubgroupDatum(tight.L, tight.psi)
    assert not _beyond_the_borel(tight)
    assert is_spherical_and_rank(tight) == (True, 3)
    assert len(reductions) == 2


def _bench_data():
    """Every datum of the benchmark's CLI references, then every large-rank
    leaf at the benchmark's tiny ranks, as (type, rank, complement, psi)."""
    with open(BENCH / "refs" / "cli_queries.json") as fh:
        cases = json.load(fh)["cases"]
    out = [(c["type"], c["rank"], c["complement"], c["psi"]) for c in cases]
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for query in workloads.all_leaf_queries("tiny"):
        argv = query["argv"]
        out.append((argv[argv.index("--type") + 1], query["n"],
                    [int(argv[argv.index("--complement") + 1])], [[1]]))
    return out


def test_reduction_witness_matches_reference_on_bench_data():
    # the whole witness, trace included, equals the plain reduction's under
    # the default choice and under three seeded random choices per datum
    data = _bench_data()
    assert len(data) > 500
    for family, n, complement, psi in data:
        H = datum(family, n, complement, psi)
        args = (H.rs, H.L.levi, H.L.delta_l_plus, H.u_roots)
        assert knop_reduce(*args) == reference_knop_reduce(*args), H
        for seed in range(3):
            got = knop_reduce(*args, choose=_random_chooser(random.Random(seed)))
            want = reference_knop_reduce(
                *args, choose=_random_chooser(random.Random(seed)))
            assert got == want, (H, seed)


def _multisets():
    """Levi data with weight multisets beyond a datum's module: every
    positive root outside the Levi twice, and the weights of the tensor
    product of two fibers' modules (repeated weights, most of them no
    roots)."""
    for family, n, complement in (("A", 4, (2,)), ("B", 3, (3,)),
                                  ("C", 4, (2, 4)), ("D", 5, (1, 5)),
                                  ("F4", 4, (1,)), ("G2", 2, (2,))):
        L = levi(family, n, complement)
        outside = [beta for lam in L.phi_plus for beta in L.fiber(lam)]
        yield L, outside * 2
        for lam, mu in itertools.combinations_with_replacement(L.phi_plus[:3], 2):
            yield L, [tuple(map(add, b, g))
                      for b in L.fiber(lam) for g in L.fiber(mu)]


def test_reduction_matches_reference_on_multisets():
    # repeated and non-root weights: the edge bookkeeping keeps a weight's
    # edges until its last copy leaves the pool
    repeated = non_root = 0
    for L, omega in _multisets():
        args = (L.rs, L.levi, L.delta_l_plus, omega)
        for seed in (None, 0, 1, 2):
            got, want = (
                reduce(*args, choose=None if seed is None else
                       _random_chooser(random.Random(seed)))
                for reduce in (knop_reduce, reference_knop_reduce))
            assert got == want, (L, omega, seed)
        repeated += len(set(omega)) < len(omega)
        # sums of positive roots: a root among them is a positive one
        non_root += any(w not in L.rs.positive_set for w in omega)
    assert (repeated, non_root) == (24, 22)


#: the table-1 leaves of the benchmark's large-rank slots at their ranks,
#: as (type, rank, complement node), with every k of the (A_n, k) row; the
#: C64 leaf stays out, its reference run takes seconds
LARGE_RANK_LEAVES = [
    ("A", 24, 1), ("A", 24, 2), ("A", 24, 3), ("A", 24, 4), ("B", 22, 1),
    ("B", 21, 21), ("C", 22, 1), ("C", 20, 2), ("C", 21, 3), ("C", 22, 20),
    ("C", 21, 20), ("C", 20, 20), ("D", 21, 1), ("D", 22, 22),
]


@pytest.mark.parametrize("family,n,node", LARGE_RANK_LEAVES)
def test_reduction_matches_reference_at_large_rank(family, n, node):
    # the whole witness, trace included, under the default choice and one
    # seeded random choice: removals found by weight code must be exactly
    # the plain reduction's w - gamma tuples
    H = datum(family, n, [node], [[1]])
    args = (H.rs, H.L.levi, H.L.delta_l_plus, H.u_roots)
    assert knop_reduce(*args) == reference_knop_reduce(*args)
    got = knop_reduce(*args, choose=_random_chooser(random.Random(n)))
    want = reference_knop_reduce(*args,
                                 choose=_random_chooser(random.Random(n)))
    assert got == want


def test_reduction_refuses_weights_outside_the_edge_coding():
    # edges are listed on integer codes with 8 bits per coefficient, each
    # coefficient offset by 128; a weight whose step up could carry into
    # the next coefficient, or whose step down by a positive root could
    # borrow from it (a coefficient below 6 - 128), or that has another
    # length, is refused rather than given a false edge or removal
    rs = rsmod.build("A", 3)
    top, bottom = (1 << 7) - 2, 6 - (1 << 7)
    for w in ((0, top, 0), (top, 0, top), (0, bottom, 0)):
        assert knop_reduce(rs, (), (), [w]).theta == (w,)
    edge = knop_reduce(rs, (1,), [(1, 0, 0)], [(top - 1, 0, 0), (top, 0, 0)])
    assert edge.theta == ((top, 0, 0),)
    for w in ((0, top + 1, 0), (0, bottom - 1, 0), (0, 1)):
        with pytest.raises(InvariantViolation, match="coding range"):
            knop_reduce(rs, (), (), [w])
    # in D4 a carry out of node 3 lands on node 4, which is no neighbour,
    # so a false edge would change the picks without any other error
    d4 = rsmod.build("D", 4)
    omega = [(0, 0, top + 1, 0), (0, 0, bottom, 1)]
    assert reference_knop_reduce(d4, (3,), (), omega).theta == (
        (0, 0, top + 1, 0), (0, 0, bottom, 1))
    with pytest.raises(InvariantViolation, match="coding range"):
        knop_reduce(d4, (3,), (), omega)


def test_leaf_solve_pairs_through_the_kernel_only():
    # a fresh interpreter, so no earlier test has interned rank 22
    code = (
        "import sphroots.rootsystem as rsmod\n"
        "from sphroots.cli import main\n"
        "def refuse(*args):\n"
        "    raise AssertionError('pairing helper called')\n"
        "rsmod.inner = rsmod.coroot_pairing = refuse\n"
        "assert main(['compute', '--type', 'C', '--rank', '22', '--complement',"
        " '22', '--psi', '1', '--format', 'json']) == 0\n")
    src = os.path.dirname(os.path.dirname(rsmod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], capture_output=True,
                   text=True, check=True, env=env)


def test_leaf_memoizes_the_forms_of_picked_weights_only():
    # a fresh interpreter, so the forms memo holds what this leaf asked for:
    # the picked weights' forms, no Levi root's (a leaf degenerates no δ);
    # norms come from the closure and write no form
    code = (
        "import sphroots.rootsystem as rsmod\n"
        "from sphroots.cli import main\n"
        "from sphroots.croots import levi_datum\n"
        "from sphroots.sphericity import knop_reduce\n"
        "from sphroots.subgroup import make_subgroup\n"
        "assert main(['compute', '--type', 'C', '--rank', '22', '--complement',"
        " '22', '--psi', '1', '--format', 'json']) == 0\n"
        "rs = rsmod.build('C', 22)\n"
        "forms = dict(rs._forms)\n"
        "H = make_subgroup(levi_datum(rs, range(1, 22)), [(1,)])\n"
        "theta = set(knop_reduce(rs, H.L.levi, H.L.delta_l_plus,"
        " H.u_roots).theta)\n"
        "norms = [rsmod.norm(rs, r) for r in rs.positive_roots]\n"
        "print(len(forms), set(forms) == theta,"
        " bool(set(forms) & set(H.L.delta_l_plus)), rs._forms == forms)\n")
    src = os.path.dirname(os.path.dirname(rsmod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.splitlines()[-1] == "22 True False True"


class _StuckCode(int):
    """A corrupt weight code whose every step up lands back on itself."""

    def __add__(self, other):
        return int(self)


def test_reduction_refuses_a_pool_with_no_maximal_weight():
    # codes that close a cycle of edges leave no weight maximal; the
    # reduction refuses instead of picking from nothing
    rs = rsmod.build("A", 2)
    bad = copy.copy(rs)
    bad.codes = {**rs.codes, (1, 1): _StuckCode(rs.codes[(1, 1)])}
    with pytest.raises(InvariantViolation, match="no maximal weight"):
        knop_reduce(bad, (1,), [(1, 0)], [(1, 1)])
    assert knop_reduce(rs, (1,), [(1, 0)], [(1, 1)]).theta == ((1, 1),)


def test_reduction_refuses_a_non_dominant_pick():
    # alpha_2 is maximal for the Levi of alpha_1 but pairs to -1 with it
    rs = rsmod.build("A", 2)
    with pytest.raises(InvariantViolation, match="is not dominant"):
        knop_reduce(rs, (1,), [(1, 0)], [(0, 1)])


def test_reduction_refuses_a_non_integral_pairing_before_dominance():
    # with a corrupt squared length 3 for alpha_1, the pairing of alpha_2
    # with its coroot is -2/3: negative and non-integral, and the
    # integrality check comes first
    rs = rsmod.build("A", 2)
    bad = copy.copy(rs)
    bad._norms = {**rs._norms, (1, 0): 3}
    with pytest.raises(InvariantViolation, match="non-integral coroot pairing"):
        knop_reduce(bad, (1,), [(1, 0)], [(0, 1)])
    with pytest.raises(InvariantViolation, match="non-integral coroot pairing"):
        knop_reduce(bad, (1,), [(1, 0)], [(1, 1)])
