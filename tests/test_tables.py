"""Table encodings: instantiation, row properties, leaf matching."""

import pytest

import sphroots.rootsystem as rsmod
from sphroots.errors import ParamsOutOfRange, UnclassifiedCase, UnclassifiedLeaf
from sphroots.sphericity import is_spherical_and_rank, linearly_independent
from sphroots.subgroup import ambient_reduction, make_subgroup
from sphroots.tables import (
    TABLE_IDS,
    _transform_datum,
    dump_rows,
    instantiate_row,
    iter_instances,
    lookup,
    match_datum,
    row_index,
    row_specs,
)
from sphroots.croots import levi_datum

from helpers import datum


def test_instantiate_row_examples():
    inst = instantiate_row(1, 4, 3)  # type C, first node
    assert inst.rank == 1
    assert inst.sigma == ((1, 2, 1),)

    inst = instantiate_row(2, 1, 3)
    assert inst.rank == 3
    assert set(inst.sigma) == {(1, 1, 0), (0, 1, 1), (0, 0, 1)}

    inst = instantiate_row(1, 1, 3, (1,))
    assert inst.rank == 1
    assert inst.sigma == ((1, 1, 1),)

    with pytest.raises(ParamsOutOfRange):
        instantiate_row(1, 1, 3, (3,))  # k beyond the fold
    with pytest.raises(ParamsOutOfRange):
        instantiate_row(1, 5, 3)  # row needs n >= 4
    with pytest.raises(ParamsOutOfRange):
        instantiate_row(1, 99, 3)


def test_table_shapes():
    assert len(row_specs(1)) == 18
    assert len(row_specs(2)) == 2
    assert len(row_specs(3)) == 17
    assert len(row_specs(4)) == 13
    assert len(row_specs(5)) == 12
    assert len(row_specs(6)) == 7
    assert len(row_specs(7)) == 8
    assert len(row_specs(8)) == 9
    assert len(row_specs(9)) == 9
    assert len(list(iter_instances("F4", 4, tables=(6,)))) == 7
    assert len(list(iter_instances("E6", 6, tables=(7,)))) == 8
    assert len(list(iter_instances("E7", 7, tables=(8,)))) == 9
    assert len(list(iter_instances("E8", 8, tables=(9,)))) == 9
    # each table registers its rows 1..k in that order, none twice, none
    # left out
    assert [spec.table_id for spec in row_specs()] == \
        sorted(spec.table_id for spec in row_specs())
    for table_id in TABLE_IDS:
        ids = [spec.row_id for spec in row_specs(table_id)]
        assert ids == list(range(1, len(ids) + 1)), table_id


def _all_instances(max_rank=10):
    for family in ("A", "B", "C", "D"):
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        for n in range(lo, max_rank + 1):
            yield from iter_instances(family, n)
    for family in ("G2", "F4", "E6", "E7", "E8"):
        yield from iter_instances(family, rsmod._FIXED_RANK[family])


def test_row_sigma_properties():
    # independence, cardinality, nonnegativity, and root membership for the
    # entries supported outside the Levi
    for inst in _all_instances():
        assert len(inst.sigma) == inst.rank
        assert linearly_independent(inst.sigma)
        rs = rsmod.build(inst.family, inst.n)
        for sigma in inst.sigma:
            assert all(x >= 0 for x in sigma) and any(sigma)
            if any(sigma[k - 1] for k in inst.complement):
                assert sigma in rs.positive_set


def test_row_psi_is_valid_datum():
    for inst in _all_instances():
        H = datum(inst.family, inst.n, inst.complement, inst.psi)
        assert H.psi == inst.psi


def test_row_sphericity_and_rank():
    # every instantiated row's datum passes the sphericity test with the
    # tabulated rank (bounded sample across all tables)
    for inst in _all_instances(max_rank=8):
        H = datum(inst.family, inst.n, inst.complement, inst.psi)
        assert is_spherical_and_rank(H) == (True, inst.rank), inst


def test_match_leaf_b2_inside_b3():
    H = datum("B", 3, (1, 3), [(0, 1)])
    reduced, sub = ambient_reduction(H)
    match = match_datum(reduced)
    assert (match.family, match.n) == ("C", 2)
    assert match.table_id == 1 and match.row_id == 4
    assert [rsmod.embed(s, sub.nodes, 3) for s in match.sigma] == [(0, 1, 1)]


def test_match_leaf_a1():
    H = datum("B", 3, (1, 2, 3), [(0, 0, 1)])
    reduced, sub = ambient_reduction(H)
    match = match_datum(reduced)
    assert (match.family, match.n) == ("A", 1)
    assert match.row_id == 1
    assert [rsmod.embed(s, sub.nodes, 3) for s in match.sigma] == [(0, 0, 1)]


def test_match_leaf_d4_triality():
    # node 3 of D4 is automorphic to nodes 1 and 4; rows 11 and 13 both
    # match and must pull back to the same root set
    rs = rsmod.build("D", 4)
    L = levi_datum(rs, (1, 2, 4))
    H = make_subgroup(L, [(1,)])  # complement node 3
    match = match_datum(H)
    assert (match.family, match.n) == ("D", 4)
    assert match.row_id in (11, 13)
    assert match.rank == 2
    assert set(match.sigma) == {(1, 2, 0, 1), (0, 0, 1, 0)}


def test_match_leaf_unclassified():
    # a non-spherical leaf matches nothing
    H = datum("G2", 2, (2,), [(1,)])
    with pytest.raises(UnclassifiedLeaf):
        match_datum(H)


def test_match_datum_refuses_three_active_roots():
    # the tables stop at two active roots; the solvers never pass more, so
    # only a direct call reaches this guard
    H = datum("B", 3, (1, 3), [(0, 1), (0, 2), (1, 1)])
    assert is_spherical_and_rank(H) == (True, 3)
    with pytest.raises(UnclassifiedCase, match="has 3 active roots"):
        match_datum(H)


def test_match_datum_unclassified_pair():
    # a non-spherical two-root datum matches no row of tables 2-9
    H = datum("B", 3, (2,), [(1,), (2,)])
    assert not is_spherical_and_rank(H)[0]
    with pytest.raises(UnclassifiedCase, match="no table row matches"):
        match_datum(H)


def test_match_datum_pair():
    H = datum("F4", 4, (3,), [(1,), (3,)])
    match = match_datum(H)
    assert (match.table_id, match.row_id) == (2, 2)
    assert match.rank == 4
    assert set(match.sigma) == {(1, 0, 0, 0), (0, 1, 1, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)}


def test_match_datum_needs_automorphism():
    # the flip image of the (2,3) row at n=3 only matches after reversal
    H = datum("A", 3, (1, 2), [(0, 1), (1, 1)])
    match = match_datum(H)
    assert (match.table_id, match.row_id) == (5, 4)
    assert match.iso == {1: 3, 2: 2, 3: 1}
    assert is_spherical_and_rank(H) == (True, match.rank)
    assert set(match.sigma) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_dump_rows():
    rows = dump_rows(6)
    assert len(rows) == 7
    assert all(r["family"] == "F4" and r["n"] == 4 for r in rows)
    rows = dump_rows(2, n=3)
    assert len(rows) == 1 and rows[0]["rank"] == 3
    rows = dump_rows(1, n=5)
    assert {r["row"] for r in rows} >= {1, 2, 3, 4, 6, 9, 10, 12}
    rows = dump_rows(5, n=6, params=(2,))
    assert all(r["params"] == [2] for r in rows)


def _standard_systems(max_rank=16):
    for family in ("A", "B", "C", "D"):
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        for n in range(lo, max_rank + 1):
            yield rsmod.build(family, n)
    for family in ("G2", "F4", "E6", "E7", "E8"):
        yield rsmod.build(family)


def test_row_index_keys_resolve_without_conflict():
    for rs in _standard_systems():
        for size in (1, 2):
            for key, refs in row_index(rs, size).items():
                match = lookup(rs, *key)
                assert match is not None, (rs, key)
                assert match.rank == len(match.sigma)
                assert (match.table_id, match.row_id) == min(
                    (inst.table_id, inst.row_id) for inst, _ in refs)


def test_every_row_is_indexed_under_its_own_key():
    for rs in _standard_systems():
        identity = {a: a for a in range(1, rs.rank + 1)}
        for inst in iter_instances(rs.type_label, rs.rank):
            refs = row_index(rs, len(inst.psi))[inst.complement, inst.psi]
            assert (inst, identity) in refs


@pytest.mark.parametrize("family", "ABCD")
def test_every_table_1_row_at_rank_24_looks_up_to_itself(family):
    # parametric rows well above the ranks the regeneration checks: each
    # instance, for every parameter, resolves to its own row and roots
    rs = rsmod.build(family, 24)
    instances = list(iter_instances(family, 24, (1,)))
    assert len(instances) == {"A": 12, "B": 2, "C": 6, "D": 2}[family]
    for inst in instances:
        match = lookup(rs, inst.complement, inst.psi)
        assert (match.table_id, match.row_id, match.params, match.sigma) == (
            inst.table_id, inst.row_id, inst.params, inst.sigma), inst


def test_row_index_is_memoized_per_table_set():
    rs = rsmod.build("D", 4)
    assert row_index(rs, 1) is row_index(rs, 1)
    assert row_index(rs, 1) is not row_index(rs, 2)


def test_lookup_refuses_rows_that_disagree(monkeypatch):
    # D4 node 3 is reached by rows 11 and 13 through triality; a row that
    # tabulates another rank must be refused, not silently outranked
    rs = rsmod.build("D", 4)
    refs = row_index(rs, 1)[(3,), ((1,),)]
    assert {(inst.table_id, inst.row_id) for inst, _ in refs} == \
        {(1, 11), (1, 13)}
    skewed = [(inst._replace(rank=inst.rank + 1), iso)
              if inst.row_id == 13 else (inst, iso) for inst, iso in refs]
    monkeypatch.setitem(row_index(rs, 1), ((3,), ((1,),)), skewed)
    # start from no memoized match, so that the stored rows are read
    monkeypatch.setattr(rs, "_matches", {})
    with pytest.raises(UnclassifiedCase, match="inconsistent table matches"):
        lookup(rs, (3,), ((1,),))
    # a refused lookup memoizes nothing
    assert rs._matches == {}


def test_match_datum_commutes_with_diagram_automorphisms():
    # sigma H matches the same row as H, with the sigma-image of its roots
    for rs in _standard_systems(max_rank=8):
        family, n = rs.type_label, rs.rank
        autos = rsmod.diagram_automorphisms(rs)
        for inst in iter_instances(family, n):
            base = match_datum(datum(family, n, inst.complement, inst.psi))
            for perm in autos:
                complement, psi = _transform_datum(perm, inst.complement,
                                                   inst.psi)
                moved = match_datum(datum(family, n, complement, psi))
                assert (moved.table_id, moved.row_id) == \
                    (base.table_id, base.row_id)
                assert set(moved.sigma) == \
                    {rsmod.embed(s, perm, n) for s in base.sigma}
