"""Memoized Levi-level facts equal a fresh computation, and one table
regeneration pass derives each of them once."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphroots.rootsystem as rsmod
from sphroots import degeneration
from sphroots.croots import levi_datum
from sphroots.degeneration import degenerate, levi_step
from sphroots.errors import InvariantViolation
from sphroots.tables import lookup, row_index

from helpers import datum, grown_data

ROOT = Path(__file__).resolve().parents[1]

#: the regeneration corpus and the two smallest exceptional types
SYSTEMS = [("A", 5), ("B", 5), ("C", 5), ("D", 6), ("E6", 6), ("F4", 4),
           ("G2", 2)]


def _levis(rs):
    nodes = range(1, rs.rank + 1)
    for k in range(rs.rank + 1):
        for levi in itertools.combinations(nodes, k):
            yield levi_datum(rs, levi)


def _coroot_value(rs, a, w):
    """<alpha_a^vee, w>, read off row a of the Cartan matrix."""
    return sum(c * x for c, x in zip(rs.cartan[a - 1], w))


def _inner(rs, v, w):
    """sum_i v_i d_i <alpha_i^vee, w>, straight from the Cartan data."""
    return sum(x * d * _coroot_value(rs, i + 1, w)
               for i, (x, d) in enumerate(zip(v, rs.symmetrizer)))


def _fresh_step(rs, L, delta, index, inner):
    """The Levi step of ``L`` along ``delta``, or None when delta pairs
    negatively with a positive Levi root."""
    n = len(rs.positive_roots)
    levi_part = 0
    for gamma in L.delta_l_plus:
        value = inner[gamma, delta]
        if value < 0:
            return None
        if value > 0:
            levi_part |= 1 << (index[gamma] + n)
    pi_m = tuple(a for a in sorted(L.levi)
                 if _coroot_value(rs, a, delta) == 0)
    return pi_m, levi_datum(rs, pi_m), levi_part


def _fresh_components(cartan, levi):
    """Connected node sets of the Levi, by merging each node with the sets
    it is bonded to."""
    comps = []
    for a in sorted(levi):
        linked = [c for c in comps if any(cartan[a - 1][b - 1] for b in c)]
        comps = [c for c in comps if c not in linked]
        comps.append(set().union({a}, *linked))
    return tuple(sorted(tuple(sorted(c)) for c in comps))


@pytest.mark.parametrize("family,n", SYSTEMS)
def test_levi_steps_and_components_equal_a_fresh_computation(family, n):
    rs = rsmod.build(family, n)
    roots = rs.positive_roots
    index = {r: i for i, r in enumerate(roots)}
    inner = {(g, d): _inner(rs, g, d) for g in roots for d in roots}
    dominant = 0
    for L in _levis(rs):
        assert L.components == _fresh_components(rs.cartan, L.levi)
        assert L.components is L.components
        for delta in roots:
            want = _fresh_step(rs, L, delta, index, inner)
            if want is None:
                # refused every time, and never memoized
                for _ in range(2):
                    with pytest.raises(InvariantViolation,
                                       match="not Levi-dominant"):
                        levi_step(L, delta)
                assert delta not in L._steps
                continue
            step = levi_step(L, delta)
            assert (step.target.levi, *step) == want
            assert levi_step(L, delta) is step
            dominant += 1
    assert dominant


def _lookup_keys(rs):
    """Every key of the system's row index, and each one-root datum of
    every Levi, most of which match no row."""
    keys = set(row_index(rs, 1)) | set(row_index(rs, 2))
    for L in _levis(rs):
        keys.update((L.complement, (lam,)) for lam in L.phi_plus)
    return sorted(keys)


@pytest.mark.parametrize("family,n", SYSTEMS)
def test_lookup_matches_equal_a_fresh_computation(monkeypatch, family, n):
    rs = rsmod.build(family, n)
    keys = _lookup_keys(rs)
    memoized = [lookup(rs, *key) for key in keys]
    for key, match in zip(keys, memoized):
        assert lookup(rs, *key) is match
    monkeypatch.setattr(rs, "_matches", {})
    assert [lookup(rs, *key) for key in keys] == memoized
    assert any(m is not None for m in memoized)
    assert any(m is None for m in memoized)


def test_flipped_levi_part_bit_fails_the_limit_check(monkeypatch):
    # every limit is still compared with the memoized mask: a mask off by
    # any one Levi line is caught
    H = datum("B", 4, (2, 4), [(1, 0), (0, 1)])
    d = degenerate(H, (0, 1))
    L = H.L
    step = levi_step(L, d.delta)
    assert step.levi_part and L.levi_mask & ~step.levi_part
    for b in rsmod.mask_bits(L.levi_mask):
        flipped = step._replace(levi_part=step.levi_part ^ (1 << b))
        monkeypatch.setitem(L._steps, d.delta, flipped)
        with pytest.raises(InvariantViolation,
                           match="Levi part has the wrong shape"):
            degeneration._check_limit_structure(d)
    monkeypatch.setitem(L._steps, d.delta, step)
    degeneration._check_limit_structure(d)


#: one pass of table regeneration in a fresh process, counting the
#: degenerations, the Levi steps derived, the table lookups of the leaf
#: solves and those of them that were not memoized, and the delta-string
#: partitions built with the strings of two or more lines they hold
_COUNT_PASS = """
import collections, json
from sphroots import degeneration, solver, tables
from sphroots.enumeration import verify_tables

counts = collections.Counter()

def counted(name, fn):
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)
    return wrapper

degeneration.degenerate = solver.degenerate = counted(
    "degenerate", degeneration.degenerate)
degeneration.LeviStep = counted("levi_steps", degeneration.LeviStep)
DeltaStrings = degeneration.DeltaStrings

def partition(single_mask, long):
    counts["partitions"] += 1
    counts["delta_strings"] += len(long)
    return DeltaStrings(single_mask, long)

degeneration.DeltaStrings = partition
lookup = tables.lookup

def leaf_lookup(rs, complement, psi):
    counts["leaf_lookups"] += 1
    counts["leaf_matches_computed"] += (complement, psi) not in rs._matches
    return lookup(rs, complement, psi)

tables.lookup = leaf_lookup
for family, ranks in (("A", [5]), ("B", [5]), ("C", [5]), ("D", [6]),
                      ("E6", None), ("F4", None)):
    report = verify_tables(family, ranks=ranks)
    assert report.checked and not (report.missing or report.extra
                                   or report.rank_mismatches
                                   or report.sigma_mismatches)
print(json.dumps(counts))
"""


def test_regen_pass_derives_each_levi_fact_once():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _COUNT_PASS], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert json.loads(out) == {
        # every degeneration is distinct, over 405 (Levi, delta) pairs
        "degenerate": 768,
        "levi_steps": 405,
        # the 86 leaf solves reduce to 10 distinct data
        "leaf_lookups": 86,
        "leaf_matches_computed": 10,
        # 122 partitions, holding 1,896 strings of two or more lines
        "partitions": 122,
        "delta_strings": 1896,
    }


def _fresh_fibers(rs, L):
    """The positive roots outside the Levi, grouped by their restriction
    to the complement nodes, each group in (height, lex) order."""
    fibers = {}
    for beta in rs.positive_roots:
        lam = tuple(beta[a - 1] for a in L.complement)
        if any(lam):
            fibers.setdefault(lam, []).append(beta)
    return {lam: tuple(fib) for lam, fib in fibers.items()}


@pytest.mark.parametrize("family,n", SYSTEMS)
def test_decoded_fibers_equal_a_fresh_restriction(family, n):
    rs = rsmod.build(family, n)
    for L in _levis(rs):
        fibers = _fresh_fibers(rs, L)
        assert L.phi_plus == tuple(sorted(fibers))
        for lam, fib in fibers.items():
            assert L.has_croot(lam)
            assert not L.has_croot(tuple(-x for x in lam))
            assert L.fiber(lam) == fib and L.fiber(list(lam)) == fib
            assert L.hat(lam) == fib[-1]
            assert L.croot_support(lam) == frozenset(
                i + 1 for beta in fib for i, x in enumerate(beta) if x)
        assert not L.has_croot(tuple(0 for _ in L.complement))


def test_decoded_modules_equal_the_union_of_active_fibers():
    # the population is built here, every closure-valid datum of every B4
    # Levi, so the test does not depend on what other tests left interned
    data = [H for L in _levis(rsmod.build("B", 4))
            for H in grown_data(L)]
    assert len(data) == 6322
    for H in data:
        union = {beta for lam in H.psi for beta in H.L.fiber(lam)}
        assert H.u_roots == tuple(sorted(union, key=lambda r: (sum(r), r)))
        assert H.u_mask.bit_count() == len(union)


#: one regeneration unit in a fresh process, then the Levi data alive and
#: those of their attributes that hold the C-roots as a set or key them to
#: tuples of roots
_FIBER_TABLES = """
import gc, json
from sphroots.croots import LeviDatum
from sphroots.enumeration import verify_tables

verify_tables("B", ranks=[5])
levis = [x for x in gc.get_objects() if isinstance(x, LeviDatum)]
found = sorted({name for L in levis for name, value in vars(L).items()
                if L.phi_plus and (value == frozenset(L.phi_plus) or (
                    isinstance(value, dict) and value.keys() <= set(L.phi_plus)
                    and tuple in map(type, value.values())))})
print(json.dumps([len(levis), found]))
"""


def test_levi_data_keep_fibers_as_masks_only():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _FIBER_TABLES], check=True,
                         capture_output=True, text=True, env=env).stdout
    count, found = json.loads(out)
    assert count > 10 and found == []


#: one regeneration pass in a fresh process, then, over every interned
#: system, each memo key that should be the system's one copy and is not,
#: counted by kind, beside the number of keys checked
_SHARED_KEYS = """
import collections, json
from sphroots import rootsystem as rsmod
from sphroots.enumeration import verify_tables

for family, ranks in (("A", [5]), ("B", [5]), ("C", [5]), ("D", [6]),
                      ("E6", None), ("F4", None)):
    verify_tables(family, ranks=ranks)
checked, copies = collections.Counter(), collections.Counter()

def check(kind, value, shared):
    checked[kind] += 1
    if value is not shared:
        copies[kind] += 1

for rs in rsmod._systems.values():
    croots = rs._croots
    for nodes, L in rs._levi_data.items():
        check("levi", L.levi, nodes)
        for lam in L._fiber_masks:
            check("fiber key", lam, croots.get(lam))
        for lam in L.phi_plus:
            check("phi_plus", lam, croots.get(lam))
        for b in range(len(rs.positive_roots)):
            if L.outside_mask >> b & 1:
                lam = L.restrict(rs.positive_roots[b])
                check("restrict", lam, croots.get(lam))
        for pairs in L._decompositions.values():
            for pair in pairs:
                for lam in pair:
                    check("summand", lam, croots.get(lam))
        for psi, H in L._subgroups.items():
            check("psi", H.psi, psi)
            for lam in psi:
                check("psi member", lam, croots.get(lam))
print(json.dumps([checked, copies]))
"""


def test_regen_pass_keeps_one_copy_of_each_shared_key():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _SHARED_KEYS], check=True,
                         capture_output=True, text=True, env=env).stdout
    checked, copies = json.loads(out)
    assert set(checked) == {"levi", "fiber key", "phi_plus", "restrict",
                            "summand", "psi", "psi member"}
    assert min(checked.values()) > 100
    assert copies == {}


def test_levi_nodes_are_the_sorted_key_tuple():
    rs = rsmod.build("B", 3)
    L = levi_datum(rs, [3, 1, 3])
    assert L.levi == (1, 3)
    assert levi_datum(rs, (1, 3)) is L
    assert next(k for k in rs._levi_data if rs._levi_data[k] is L) is L.levi
