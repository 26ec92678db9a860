"""Exhaustive case enumeration and classification-table verification.

For a fixed ambient type, enumerate every parabolic with a one- or
two-node complement and every admissible active set of one given size
(one root or more), decide sphericity and block-triviality, solve the
surviving cases, and compare the outcome with the instantiated table rows.  Cases are
canonicalized modulo diagram automorphisms before comparison, and the
spherical-root sets are compared in canonical coordinates.  Verification
solves only the spherical one-block cases, the only ones the tables list;
enumeration proper solves every spherical case.

Only cases whose active supports cover the whole diagram are kept: a case
with smaller support is the same case inside a smaller ambient group and
is enumerated there.  With two or more active roots, a case where some
fiber is a line is dropped too: a one-line fiber's weight pairs to zero
with every Levi coroot, so it is a block of its own.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable, Optional

from . import rootsystem as rsmod
from .croots import complement_levi
from .errors import (
    ClosureViolation,
    SphrootsError,
    UnclassifiedCase,
    UnclassifiedLeaf,
)
from .rootsystem import RootSystem, Vector, diagram_automorphisms
from .solver import base_solve
from .sphericity import is_spherical_and_rank
from .subgroup import make_subgroup, sm_decomposition
from .tables import _transform_datum, lookup, match_datum, row_index

CaseKey = tuple[tuple[int, ...], tuple[Vector, ...]]

#: largest A-D rank that enumeration accepts, below ``MAX_RANK``.  Solved,
#: with two complement nodes, every active-set size takes at most about
#: 0.5 s at this rank in a fresh process on a 2-vCPU host: two active
#: roots 0.30-0.44 s at A13-D13, three 0.49 s at B13 (nine three-root B
#: chains to solve) and 0.15-0.23 s at C13 and D13, four or more at most
#: 0.12 s; E8 peaks at 0.34 s at seven (``BENCH_27.json``).  Larger ranks
#: are refused before any closure runs.
ENUMERATION_MAX_RANK = 13


def enumeration_type(type_label: str, rank: Optional[int] = None) -> tuple[str, int]:
    """:func:`rootsystem.normalize_type`, refusing ranks above
    ``ENUMERATION_MAX_RANK``."""
    family, n = rsmod.normalize_type(type_label, rank)
    if n > ENUMERATION_MAX_RANK:
        raise rsmod.InvalidType(
            f"type {family} rank {n} exceeds ENUMERATION_MAX_RANK = "
            f"{ENUMERATION_MAX_RANK}")
    return family, n


class CaseRecord(namedtuple("CaseRecord",
                             "datum spherical rank sm_trivial sigma "
                             "matched_row", defaults=(None, None))):
    """One enumerated case, stored by its canonical representative.

    ``datum`` is the representative's :class:`SubgroupDatum`;
    ``spherical`` and ``sm_trivial`` are bools; ``rank``, an int, is the
    number of spherical roots when spherical, else None; ``sigma``, a
    tuple of weights, holds the spherical roots when solved, else None;
    ``matched_row``, a tuple ``(table, row, params, automorphism)``, names
    the table row matched, else None.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        out = dict(self.datum.to_wire())
        out["spherical"] = self.spherical
        out["spherical_rank"] = self.rank
        out["sm_trivial"] = self.sm_trivial
        out["sigma"] = [list(v) for v in self.sigma] if self.sigma is not None else None
        if self.matched_row is not None:
            table, row, params, auto = self.matched_row
            out["matched_row"] = {"table": table, "row": row,
                                  "params": list(params), "automorphism": list(auto)}
        else:
            out["matched_row"] = None
        return out


def canonical_key(rs: RootSystem, complement, psi) -> tuple[CaseKey, tuple[int, ...]]:
    """Least image of (complement, psi) over the diagram automorphisms.

    Returns the key together with the automorphism achieving it.
    """
    best = None
    best_perm = None
    for perm in diagram_automorphisms(rs):
        key = _transform_datum(perm, complement, psi)
        if best is None or key < best:
            best, best_perm = key, perm
    return best, best_perm


def enumerate_cases(rs: RootSystem, complement_size: int, psi_size: int,
                    solve: bool = True) -> list[CaseRecord]:
    """All canonical full-support cases for the given shape.

    Every set of ``psi_size`` >= 1 positive restricted roots is a
    candidate, and the subalgebra closure check decides which are valid.
    The filters run cheapest first.  (1) The lexicographically least
    member has a decomposition: both parts precede it, so neither is
    active and the closure check would fail.  (2) With two or more active
    roots, some fiber is a line: its weight pairs to zero with every Levi
    coroot, so it is a block of its own and the blocks are never trivial.
    (3) The supports miss a node.  Then the canonical key, then the
    closure check.  Filter 1 drops only candidates the closure check
    drops, and the others are invariant under diagram automorphisms, so a
    candidate passes exactly when every candidate with its key does: the
    order changes neither the records nor their keys (they are listed by
    key), and spares the key and the closure check of the candidates the
    cheap filters drop.  When ``solve`` is set, every spherical case is
    solved by ``base_solve`` (its ``sigma``), and the ones with a single
    block are also matched against the tables; a case with several
    blocks, or with more active roots than the tables list, keeps its
    sigma and no matched row.
    """
    if psi_size < 1:
        raise SphrootsError(f"psi_size must be at least 1, got {psi_size}")
    if psi_size == 1 and complement_size != 1:
        raise SphrootsError("single active root cases use one complement node")
    records: dict[CaseKey, CaseRecord] = {}
    full = frozenset(range(1, rs.rank + 1))
    for complement in itertools.combinations(range(1, rs.rank + 1),
                                             complement_size):
        L = complement_levi(rs, complement)
        for psi in itertools.combinations(L.phi_plus, psi_size):
            if L.decompositions(psi[0]):
                continue
            if psi_size > 1 and any(L.fiber_mask(lam).bit_count() == 1
                                    for lam in psi):
                continue
            support = frozenset().union(
                *(L.croot_support(lam) for lam in psi))
            if support != full:
                continue
            key, _ = canonical_key(rs, complement, psi)
            if key in records:
                continue
            try:
                make_subgroup(L, psi)
            except ClosureViolation:
                continue
            records[key] = _build_record(rs, key, solve)
    return [records[key] for key in sorted(records)]


def _build_record(rs, key, solve) -> CaseRecord:
    complement, psi = key
    canonical = make_subgroup(complement_levi(rs, complement), psi)
    spherical, rank = is_spherical_and_rank(canonical)
    trivial = sm_decomposition(canonical).trivial
    sigma = None
    matched = None
    if spherical and solve:
        sigma = base_solve(canonical).roots
        if trivial:
            try:
                match = match_datum(canonical)
                matched = (match.table_id, match.row_id, match.params,
                           tuple(match.iso[a] for a in range(1, rs.rank + 1)))
            except (UnclassifiedCase, UnclassifiedLeaf):
                matched = None
    return CaseRecord(canonical, spherical, rank, trivial, sigma, matched)


class DiffReport:
    """Outcome of comparing enumerated cases against table instantiations."""

    def __init__(self, scope: str):
        self.scope = scope
        self.missing: list = []   # expected but not found
        self.extra: list = []     # found but not expected
        self.rank_mismatches: list = []
        self.sigma_mismatches: list = []
        self.checked = 0

    @property
    def empty(self) -> bool:
        return not (self.missing or self.extra or
                    self.rank_mismatches or self.sigma_mismatches)

    def to_json(self) -> dict:
        return {
            "scope": self.scope,
            "checked": self.checked,
            "missing": self.missing,
            "extra": self.extra,
            "rank_mismatches": self.rank_mismatches,
            "sigma_mismatches": self.sigma_mismatches,
            "empty": self.empty,
        }


ExpectedCase = namedtuple("ExpectedCase", "key rank sigma rows")
ExpectedCase.__doc__ = """One canonical case the tables list.

``key``, a :data:`CaseKey`, is the case's canonical ``(complement,
psi)``; ``rank``, an int, and ``sigma``, a frozenset of weights, are its
rank and spherical roots; ``rows``, a tuple of strings, names the rows
listed under it.
"""


def expected_cases(family: str, n: int) -> dict[CaseKey, ExpectedCase]:
    """Canonicalized table instantiations for one ambient type.

    The keys of the type's two-root row index that are their own canonical
    key.  Several rows may share a key (conjugate encodings); the lookup
    checks that they agree on rank and root set.
    """
    rs = rsmod.build(family, n)
    out: dict[CaseKey, ExpectedCase] = {}
    for key, refs in row_index(rs, 2).items():
        if canonical_key(rs, *key)[0] != key:
            continue
        match = lookup(rs, *key)
        rows = dict.fromkeys(f"t{inst.table_id}r{inst.row_id}"
                             f"{list(inst.params)}" for inst, _ in refs)
        out[key] = ExpectedCase(key, match.rank, frozenset(match.sigma),
                                tuple(rows))
    return out


def actual_cases(family: str, n: int) -> dict[CaseKey, CaseRecord]:
    """Spherical one-block cases found by exhaustive enumeration.

    Only the kept cases are solved, and none is matched against the
    tables: :func:`diff_cases` reads neither several-block sigmas nor
    matched rows.
    """
    rs = rsmod.build(family, n)
    found: dict[CaseKey, CaseRecord] = {}
    sizes = [1, 2] if n >= 2 else [1]
    for complement_size in sizes:
        for record in enumerate_cases(rs, complement_size, psi_size=2,
                                      solve=False):
            if record.spherical and record.sm_trivial:
                key = (record.datum.L.complement, record.datum.psi)
                found[key] = record._replace(
                    sigma=base_solve(record.datum).roots)
    return found


def diff_cases(scope: str, expected: dict[CaseKey, ExpectedCase],
               actual: dict[CaseKey, CaseRecord]) -> DiffReport:
    report = DiffReport(scope)
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            report.missing.append({"case": _key_json(key),
                                   "rows": list(expected[key].rows)})
            continue
        if key not in expected:
            report.extra.append({"case": _key_json(key)})
            continue
        exp, act = expected[key], actual[key]
        report.checked += 1
        if act.rank != exp.rank:
            report.rank_mismatches.append(
                {"case": _key_json(key), "expected": exp.rank, "actual": act.rank})
        if frozenset(act.sigma or ()) != exp.sigma:
            report.sigma_mismatches.append({
                "case": _key_json(key),
                "expected": sorted(map(list, exp.sigma)),
                "actual": sorted(map(list, act.sigma or ())),
            })
    return report


def _key_json(key: CaseKey) -> dict:
    complement, psi = key
    return {"complement": list(complement), "psi": [list(v) for v in psi]}


def verify_tables(family: str, ranks: Optional[Iterable[int]] = None,
                  max_rank: int = 10) -> DiffReport:
    """Regenerate one type's table rows by enumeration and diff them.

    Classical families default to every rank from their minimum (A3, B3,
    C3, D4) through ``max_rank``; explicit ``ranks`` must be nonempty and
    keep the same minimum.  Ranks above ``ENUMERATION_MAX_RANK`` are
    refused.  Exceptional types have one rank.  The report
    is empty exactly when the enumeration reproduces the tables.
    """
    family, fixed = _family_ranks(family, ranks, max_rank)
    combined = DiffReport(scope=f"{family}[{','.join(map(str, fixed))}]")
    for n in fixed:
        expected = expected_cases(family, n)
        actual = actual_cases(family, n)
        part = diff_cases(f"{family}{n}", expected, actual)
        combined.missing += part.missing
        combined.extra += part.extra
        combined.rank_mismatches += part.rank_mismatches
        combined.sigma_mismatches += part.sigma_mismatches
        combined.checked += part.checked
    return combined


def _family_ranks(family: str, ranks, max_rank) -> tuple[str, list[int]]:
    label = family.strip().upper()
    if label in rsmod._FIXED_RANK:
        return label, [rsmod._FIXED_RANK[label]]
    if label not in ("A", "B", "C", "D"):
        raise rsmod.InvalidType(f"unknown family {family!r}")
    lo = {"A": 3, "B": 3, "C": 3, "D": 4}[label]
    ranks = sorted(set(range(lo, max_rank + 1) if ranks is None else ranks))
    if not ranks or ranks[0] < lo:
        raise rsmod.InvalidType(
            f"type {label} is verified from rank {lo}, got ranks {ranks}")
    enumeration_type(label, ranks[-1])  # so every rank from lo up is valid
    return label, ranks
