"""Case enumeration, canonicalization, and the table diff harness."""

import pytest

import sphroots.rootsystem as rsmod
from sphroots import enumeration
from sphroots.enumeration import (
    actual_cases,
    canonical_key,
    diff_cases,
    enumerate_cases,
    expected_cases,
    verify_tables,
    ExpectedCase,
)
from sphroots.errors import InvalidType
from sphroots.sphericity import is_spherical_and_rank
from sphroots.subgroup import sm_decomposition


def test_canonical_key():
    rs = rsmod.build("A", 3)
    key, perm = canonical_key(rs, (2, 3), ((1, 0), (1, 1)))
    # the flip sends the case to complement (1, 2)
    assert key == ((1, 2), ((0, 1), (1, 1)))
    assert perm == (3, 2, 1)
    # a symmetric case is its own canonical form
    key, perm = canonical_key(rs, (1, 3), ((1, 0), (0, 1)))
    assert key == ((1, 3), ((0, 1), (1, 0)))


def test_enumerate_f4_counts():
    rs = rsmod.build("F4")
    pairs = enumerate_cases(rs, 2, 2, solve=False)
    good = [r for r in pairs if r.spherical and r.sm_trivial]
    assert len(good) == 7

    singles = enumerate_cases(rs, 1, 2, solve=False)
    good = [r for r in singles if r.spherical and r.sm_trivial]
    assert len(good) == 1
    assert good[0].datum.L.complement == (3,)
    assert good[0].datum.psi == ((1,), (3,))


def test_enumerate_e6_counts():
    rs = rsmod.build("E6")
    pairs = enumerate_cases(rs, 2, 2, solve=False)
    good = [r for r in pairs if r.spherical and r.sm_trivial]
    assert len(good) == 8
    singles = enumerate_cases(rs, 1, 2, solve=False)
    assert not [r for r in singles if r.spherical and r.sm_trivial]


def test_enumerate_marks_nonspherical():
    rs = rsmod.build("C", 4)
    records = enumerate_cases(rs, 1, 2, solve=False)
    by_case = {(r.datum.L.complement, r.datum.psi): r for r in records}
    bad = by_case[((2,), ((1,), (2,)))]
    assert not bad.spherical and bad.rank is None and bad.sigma is None


def test_enumerate_solves_and_matches():
    rs = rsmod.build("B", 3)
    records = enumerate_cases(rs, 1, 2)
    good = [r for r in records if r.spherical and r.sm_trivial]
    assert len(good) == 1
    rec = good[0]
    assert set(rec.sigma) == {(1, 1, 0), (0, 1, 1), (0, 0, 1)}
    assert rec.matched_row[:2] == (2, 1)


def test_enumerate_excludes_partial_support():
    # the embedded rank-3 chain case inside B4 has support {2,3,4} only and
    # must not appear among B4's canonical cases
    rs = rsmod.build("B", 4)
    records = enumerate_cases(rs, 2, 2, solve=False)
    cases = {(r.datum.L.complement, r.datum.psi) for r in records}
    assert ((1, 4), ((0, 1), (0, 2))) not in cases


def test_no_spherical_one_block_cases_with_three_complement_nodes():
    # sanity sweep beyond the two-node scope: nothing survives
    for family, n in (("A", 4), ("A", 5), ("B", 4), ("B", 5),
                      ("C", 4), ("C", 5), ("D", 4), ("D", 5)):
        rs = rsmod.build(family, n)
        records = enumerate_cases(rs, 3, 2, solve=False)
        assert not [r for r in records if r.spherical and r.sm_trivial]


def test_g2_has_no_two_root_cases():
    rs = rsmod.build("G2")
    for complement_size in (1, 2):
        records = enumerate_cases(rs, complement_size, 2, solve=False)
        assert not [r for r in records if r.spherical and r.sm_trivial]


def test_verify_tables_f4_empty():
    report = verify_tables("F4")
    assert report.empty
    assert report.checked == 8


def test_verify_tables_b_small():
    report = verify_tables("B", ranks=(3, 4))
    assert report.empty


@pytest.mark.parametrize("family,ranks", [("B", []), ("A", [1, 2]),
                                          ("D", [3, 4])])
def test_verify_tables_refuses_empty_or_low_ranks(family, ranks):
    with pytest.raises(InvalidType):
        verify_tables(family, ranks=ranks)


def test_diff_detects_corruption():
    expected = expected_cases("F4", 4)
    actual = actual_cases("F4", 4)

    # corrupt one expected root set
    key = sorted(expected)[0]
    entry = expected[key]
    bad_sigma = frozenset(list(entry.sigma)[1:]) | {(9, 9, 9, 9)}
    corrupted = dict(expected)
    corrupted[key] = ExpectedCase(key, entry.rank, bad_sigma, entry.rows)
    report = diff_cases("F4-corrupt", corrupted, actual)
    assert not report.empty
    assert len(report.sigma_mismatches) == 1

    # drop one expected case: it shows up as extra on the enumerated side
    dropped = dict(expected)
    del dropped[key]
    report = diff_cases("F4-missing", dropped, actual)
    assert [e["case"] for e in report.extra]

    # add a phantom expected case
    phantom = dict(expected)
    phantom_key = ((1, 2), ((1, 0), (0, 1)))
    phantom[phantom_key] = ExpectedCase(phantom_key, 4, frozenset(), ("fake",))
    report = diff_cases("F4-phantom", phantom, actual)
    assert [m["case"] for m in report.missing]


def test_enumerated_sigma_satisfies_rank_prediction():
    rs = rsmod.build("C", 5)
    for record in enumerate_cases(rs, 2, 2):
        if record.spherical and record.sm_trivial:
            assert record.rank == len(record.sigma)
            assert is_spherical_and_rank(record.datum) == (True, record.rank)
            assert sm_decomposition(record.datum).trivial


@pytest.mark.parametrize("family,n", [("B", 4), ("F4", 4)])
def test_actual_cases_solve_only_the_kept_one_block_cases(monkeypatch,
                                                          family, n):
    # verification solves the spherical one-block cases it keeps, with the
    # sigmas a full solving enumeration gives them, and matches none
    rs = rsmod.build(family, n)
    solved = {(r.datum.L.complement, r.datum.psi): r.sigma
              for size in (1, 2)
              for r in enumerate_cases(rs, size, 2, solve=True)}
    inputs = []
    real_solve = enumeration.base_solve

    def recording(H, *args, **kwargs):
        inputs.append(H)
        return real_solve(H, *args, **kwargs)

    def refuse(H):
        raise AssertionError(f"verification matched {H!r}")

    monkeypatch.setattr(enumeration, "base_solve", recording)
    monkeypatch.setattr(enumeration, "match_datum", refuse)
    actual = actual_cases(family, n)
    # the full enumeration also solves several-block cases, which
    # verification skips
    assert 0 < len(actual) < sum(sigma is not None for sigma in solved.values())
    for key, record in actual.items():
        assert record.sigma is not None and record.sigma == solved[key]
        assert record.matched_row is None
    assert len(inputs) == len(actual)
    for H in inputs:
        assert is_spherical_and_rank(H)[0] and sm_decomposition(H).trivial
