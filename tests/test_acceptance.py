"""Acceptance suite: one test per criterion, one printed verdict line each.

Run order matters only in that the shared corpus fixture (the criterion-3
enumeration) is built once, with the runtime invariant checks that every
solve runs, and reused by criteria 4, 5, and 7.
"""

import random
import time

import pytest

import sphroots.degeneration as degeneration
import sphroots.rootsystem as rsmod
from sphroots.degeneration import degenerate
from sphroots.enumeration import (
    actual_cases,
    diff_cases,
    enumerate_cases,
    expected_cases,
)
from sphroots.solver import algorithm_d, base_solve, leaf_resolve, optimized_solve
from sphroots.sphericity import is_spherical_and_rank, linearly_independent
from sphroots.subgroup import sm_decomposition
from sphroots.tables import iter_instances

from helpers import datum
from oracles import euclidean_positive_roots

CLASSICAL = (("A", range(3, 11)), ("B", range(3, 11)),
             ("C", range(3, 11)), ("D", range(4, 11)))
EXCEPTIONAL = (("F4", (4,)), ("E6", (6,)), ("E7", (7,)), ("E8", (8,)))

COUNT_FORMULA = {
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


def _verdict(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="session")
def corpus():
    """Criterion-3 data: all enumerated two-root cases, checks counted."""
    checks_before = degeneration.checks_run
    reports = {}
    records = {}
    for family, ranks in CLASSICAL + EXCEPTIONAL:
        for n in ranks:
            expected = expected_cases(family, n)
            actual = actual_cases(family, n)
            reports[(family, n)] = diff_cases(f"{family}{n}", expected, actual)
            all_records = []
            rs = rsmod.build(family, n)
            for size in (1, 2):
                all_records.extend(
                    enumerate_cases(rs, size, 2, solve=True))
            records[(family, n)] = all_records
    return {
        "reports": reports,
        "records": records,
        "checks": degeneration.checks_run - checks_before,
    }


def test_criterion_1_root_system_construction(capsys):
    started = time.perf_counter()
    scope = ([("A", n) for n in range(1, 13)]
             + [("B", n) for n in range(2, 13)]
             + [("C", n) for n in range(2, 13)]
             + [("D", n) for n in range(4, 13)]
             + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)])
    for family, n in scope:
        rs = rsmod.build(family, n)
        assert len(rs.positive_roots) == COUNT_FORMULA[family](n), (family, n)
        assert set(rs.positive_roots) == euclidean_positive_roots(family, n), \
            (family, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _verdict(capsys, f"criterion 1 (root systems, {len(scope)} types, "
                     f"{elapsed:.2f}s): PASS")


def _leaf_rank_from_tables(rs, k):
    """Tabulated rank for a one-node case, up to diagram relabeling."""
    nodes = tuple(range(1, rs.rank + 1))
    ranks = set()
    for family in rsmod.FAMILIES:
        for iso in rsmod.diagram_isomorphisms(rs, nodes, family, rs.rank):
            for inst in iter_instances(family, rs.rank, tables=(1,)):
                if inst.complement == (iso[k],):
                    ranks.add(inst.rank)
    assert len(ranks) <= 1, f"ambiguous table rank for {rs} k={k}"
    return ranks.pop() if ranks else None


def test_criterion_2_leaf_classification(capsys):
    started = time.perf_counter()
    # positive side: every row instantiation is spherical with the listed rank
    positive = 0
    for family in ("A", "B", "C", "D"):
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        for n in range(lo, 11):
            for inst in iter_instances(family, n, tables=(1,)):
                H = datum(family, n, inst.complement, inst.psi)
                assert is_spherical_and_rank(H) == (True, inst.rank), inst
                positive += 1
    for family in ("G2", "F4", "E6", "E7"):
        for inst in iter_instances(family, rsmod._FIXED_RANK[family],
                                   tables=(1,)):
            H = datum(family, inst.n, inst.complement, inst.psi)
            assert is_spherical_and_rank(H) == (True, inst.rank), inst
            positive += 1

    # root-set properties of every instantiation (not recomputed)
    for family in ("A", "B", "C", "D", "G2", "F4", "E6", "E7"):
        lo = {"A": 1, "B": 3, "C": 2, "D": 4}.get(family)
        ranks = range(lo, 11) if lo else [rsmod._FIXED_RANK[family]]
        for n in ranks:
            for inst in iter_instances(family, n, tables=(1,)):
                rs = rsmod.build(family, n)
                assert len(inst.sigma) == inst.rank
                assert linearly_independent(inst.sigma)
                for sigma in inst.sigma:
                    assert all(x >= 0 for x in sigma)
                    if any(sigma[k - 1] for k in inst.complement):
                        assert sigma in rs.positive_set

    # negative side: anything not matching a row is not spherical
    scope = ([("A", n) for n in range(1, 9)]
             + [("B", n) for n in range(2, 9)]
             + [("C", n) for n in range(2, 9)]
             + [("D", n) for n in range(4, 9)]
             + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)])
    negative = 0
    matched = 0
    for family, n in scope:
        rs = rsmod.build(family, n)
        for k in range(1, n + 1):
            expected_rank = _leaf_rank_from_tables(rs, k)
            H = datum(family, n, (k,), [(1,)])
            verdict = is_spherical_and_rank(H)
            if expected_rank is None:
                assert verdict == (False, None), (family, n, k)
                negative += 1
            else:
                assert verdict == (True, expected_rank), (family, n, k)
                matched += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(capsys, f"criterion 2 (leaf table, {positive} instantiations, "
                     f"{matched} matched + {negative} rejected pairs, "
                     f"{elapsed:.1f}s): PASS")


def test_criterion_3_tables_reproduction(capsys, corpus):
    reports = corpus["reports"]
    for key, report in reports.items():
        assert report.empty, (key, report.to_json())
    # pinned case counts for the exceptional types
    f4 = actual_cases("F4", 4)
    assert len([k for k in f4 if len(k[0]) == 1]) == 1
    assert len([k for k in f4 if len(k[0]) == 2]) == 7
    assert len(actual_cases("E6", 6)) == 8
    assert len(actual_cases("E7", 7)) == 9
    assert len(actual_cases("E8", 8)) == 9
    checked = sum(r.checked for r in reports.values())
    _verdict(capsys, f"criterion 3 (tables 2-9 reproduction, "
                     f"{checked} canonical cases, empty diffs): PASS")


def test_criterion_4_cross_method_agreement(capsys, corpus):
    compared = 0
    for records in corpus["records"].values():
        for rec in records:
            if not rec.spherical:
                continue
            base = frozenset(rec.sigma)
            o_compute = optimized_solve(rec.datum, "compute").root_set
            o_table = optimized_solve(rec.datum, "table").root_set
            assert base == o_compute == o_table, rec.datum
            compared += 1
    assert compared >= 700
    _verdict(capsys, f"criterion 4 (cross-method agreement, "
                     f"{compared} spherical cases): PASS")


def test_criterion_5_degeneration_invariants(capsys, corpus):
    # the corpus was built with the full limit-structure assertion suite on;
    # any violation would have raised during the fixture
    checks = corpus["checks"]
    assert checks > 1000
    _verdict(capsys, f"criterion 5 (degeneration invariants, "
                     f"{checks} checked limits, zero violations): PASS")


def test_criterion_6_worked_example_regression(capsys):
    H = datum("B", 3, (3,), [(1,), (2,)])

    n1 = degenerate(H, (1,)).target
    assert n1.L.complement == (1, 3)
    assert n1.psi == ((0, 1), (0, 2))
    assert sm_decomposition(n1).components == (((0, 1),), ((0, 2),))

    n2 = degenerate(H, (2,)).target
    assert n2.L.complement == (2, 3)
    assert n2.psi == ((0, 1), (1, 1))
    assert sm_decomposition(n2).components == (((0, 1),), ((1, 1),))

    n11, _ = algorithm_d(n1, 0)
    assert (n11.L.complement, n11.psi) == ((1, 3), ((0, 1),))
    assert leaf_resolve(n11).roots == ((0, 1, 1),)

    n12, _ = algorithm_d(n1, 1)
    assert (n12.L.complement, n12.psi) == ((1, 2, 3), ((0, 0, 1),))
    assert leaf_resolve(n12).roots == ((0, 0, 1),)

    n21, _ = algorithm_d(n2, 1)
    assert (n21.L.complement, n21.psi) == ((2, 3), ((1, 0),))
    assert leaf_resolve(n21).roots == ((1, 1, 0),)

    n22, _ = algorithm_d(n2, 0)
    assert (n22.L.complement, n22.psi) == ((2, 3), ((0, 1),))
    assert leaf_resolve(n22).roots == ((0, 0, 1),)

    final = {(1, 1, 0), (0, 1, 1), (0, 0, 1)}
    assert set(base_solve(H).roots) == final
    assert set(optimized_solve(H, "compute").roots) == final
    assert set(optimized_solve(H, "table").roots) == final
    _verdict(capsys, "criterion 6 (worked-example regression): PASS")


def test_criterion_7_choice_independence(capsys, corpus):
    rng = random.Random(0x5EED)
    small = []
    for records in corpus["records"].values():
        for rec in records:
            if rec.spherical and rec.rank is not None and rec.rank <= 4:
                small.append(rec.datum)
    assert len(small) >= 25

    def random_choice(candidates):
        return rng.choice(candidates)

    def random_pair(psi):
        return tuple(rng.sample(psi, 2))

    trials = 0
    for H in small:
        baseline = is_spherical_and_rank(H)
        sigma = base_solve(H).root_set
        for _ in range(2):
            assert is_spherical_and_rank(H, choose=random_choice) == baseline
            trials += 1
            assert base_solve(H, choose_pair=random_pair).root_set == sigma
            trials += 1
    assert trials >= 100
    _verdict(capsys, f"criterion 7 (choice independence, {trials} randomized "
                     f"trials over {len(small)} cases): PASS")
