"""Spherical-root solvers built on the degeneration machinery.

``base_solve`` recurses: degenerate along two different active roots, each
branch losing a different spherical root, and take the union of the two
branch results.  ``optimized_solve`` first splits the active set into its
factor-linked blocks, isolates each block by repeated degenerations
(``algorithm_d``) and resolves the resulting one-block data either against
the classification tables or by handing them back to ``base_solve``.  The
two routes must agree element for element; the runtime assertion suite is
the strongest correctness oracle the theory provides and always runs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .degeneration import degenerate, track_component
from .errors import InvariantViolation, NotSpherical
from .rootsystem import Vector, embed, height_key
from .sphericity import is_spherical_and_rank, linearly_independent
from .subgroup import (
    SubgroupDatum,
    ambient_reduction,
    sm_decomposition,
    upper_elements,
    upsilon_and_hat,
)
from .tables import match_datum


class SphericalRootSet(NamedTuple):
    """A computed set of spherical roots plus how it was obtained."""

    roots: tuple[Vector, ...]
    certificate: dict = {}  # shared default: results are never mutated

    @property
    def root_set(self) -> frozenset[Vector]:
        return frozenset(self.roots)


def _sorted_roots(roots) -> tuple[Vector, ...]:
    return tuple(sorted(set(roots), key=height_key))


def _result(roots, certificate) -> SphericalRootSet:
    roots = _sorted_roots(roots)
    if not linearly_independent(roots):
        raise InvariantViolation("spherical roots must be independent")
    return SphericalRootSet(roots, certificate)


def leaf_resolve(H: SubgroupDatum) -> SphericalRootSet:
    """Spherical roots of a datum with at most one active root.

    Empty active set means a parabolic: no spherical roots.  Otherwise the
    datum is shrunk to the support of its active root and matched against
    table 1; the table's root set is pulled back to the ambient numbering.
    """
    if len(H.psi) > 1:
        raise InvariantViolation("leaf_resolve needs at most one active root")
    if not H.psi:
        return SphericalRootSet((), {"datum": _wire(H), "match": None})
    return _table_resolve(H)


def _table_resolve(H: SubgroupDatum) -> SphericalRootSet:
    """The roots of a one-block datum read off its table row, in H's
    numbering; the certificate names the row and its instance, so that
    ``tables.instantiate_row`` can replay it."""
    reduced, sub = ambient_reduction(H)
    match = match_datum(reduced)
    certificate = {
        "datum": _wire(H),
        "match": {"table": match.table_id, "row": match.row_id,
                  "family": match.family, "n": match.n,
                  "params": list(match.params)},
    }
    return _result([embed(s, sub.nodes, H.rs.rank) for s in match.sigma],
                   certificate)


def _wire(H: SubgroupDatum) -> dict:
    if H.rs.type_label is None:
        return {"levi": sorted(H.L.levi), "psi": [list(v) for v in H.psi]}
    return H.to_wire()


def base_solve(H: SubgroupDatum,
               choose_pair: Optional[Callable] = None) -> SphericalRootSet:
    """Recursive two-branch solve.

    At every internal node the two branches must each lose exactly one
    spherical root, the lost roots must differ, and the union must have the
    size the sphericity test predicts.
    ``choose_pair`` picks the two degeneration pivots from the sorted active
    set; the default takes the two lexicographically least.  The result is
    independent of that choice.
    """
    spherical, rank = is_spherical_and_rank(H)
    if not spherical:
        raise NotSpherical(f"{H!r} is not spherical")
    return _base_solve(H, choose_pair)


def _base_solve(H: SubgroupDatum,
                choose_pair: Optional[Callable]) -> SphericalRootSet:
    """The recursion behind ``base_solve``.

    Default-pivot results are memoized on each datum; calls with
    ``choose_pair`` neither read nor fill the memo.
    """
    cacheable = choose_pair is None
    if cacheable and H._solved is not None:
        return H._solved
    if len(H.psi) <= 1:
        result = leaf_resolve(H)
    else:
        if choose_pair is None:
            lam1, lam2 = H.psi[0], H.psi[1]
        else:
            lam1, lam2 = choose_pair(H.psi)
            if lam1 == lam2:
                raise InvariantViolation("pivots must differ")
        d1 = degenerate(H, lam1)
        d2 = degenerate(H, lam2)
        r1 = _base_solve(d1.target, choose_pair)
        r2 = _base_solve(d2.target, choose_pair)
        union = _sorted_roots(r1.roots + r2.roots)
        _, rank = is_spherical_and_rank(H)
        removed1 = set(union) - r1.root_set
        removed2 = set(union) - r2.root_set
        if len(union) != rank:
            raise InvariantViolation(
                f"union size {len(union)} != rank {rank} at {H!r}")
        if len(r1.roots) != rank - 1 or len(r2.roots) != rank - 1:
            raise InvariantViolation("branch did not lose exactly one root")
        if len(removed1) != 1 or len(removed2) != 1 or removed1 == removed2:
            raise InvariantViolation("branches must lose two distinct roots")
        result = _result(union, {
            "datum": _wire(H),
            "pivots": [list(lam1), list(lam2)],
            "children": [r1.certificate, r2.certificate],
            "removed": [sorted(map(list, removed1)),
                        sorted(map(list, removed2))],
        })
    if cacheable:
        H._solved = result
    return result


def algorithm_d(H: SubgroupDatum,
                block_index: int) -> tuple[SubgroupDatum, list[dict]]:
    """Isolate one block of the factor decomposition by degenerations.

    Repeatedly shrink to the block plus its support-dominated companions;
    while companions remain, degenerate along an upper one and follow the
    block through the limit.  Returns the final datum (whose decomposition
    is trivial) and the step log.  Termination is theorem-guaranteed; the
    iteration cap is defensive.
    """
    steps: list[dict] = []
    current = H
    index = block_index
    cap = 4 * len(H.rs.positive_roots) + 4
    for _ in range(cap):
        upsilon, hat = upsilon_and_hat(current, index)
        block = sm_decomposition(current).components[index]
        current = hat
        blocks = sm_decomposition(current).components
        if block not in blocks:
            raise InvariantViolation("tracked block vanished after shrinking")
        index = blocks.index(block)
        if not upsilon:
            if not sm_decomposition(current).trivial:
                raise InvariantViolation("block isolation left extra blocks")
            return current, steps
        lam = upper_elements(current.L, upsilon)[0]
        d = degenerate(current, lam)
        index = track_component(d, index)
        steps.append({"datum": _wire(current), "pivot": list(lam),
                      "block": [list(v) for v in block]})
        current = d.target
    raise InvariantViolation("block isolation did not terminate")


def optimized_solve(H: SubgroupDatum,
                    resolution: str = "table") -> SphericalRootSet:
    """Blockwise solve: one isolated sub-datum per block, disjoint union.

    ``resolution`` picks how the isolated one-block data are finished:
    ``"table"`` matches them against the classification tables, ``"compute"``
    hands them to the recursive solver.
    """
    if resolution not in ("table", "compute"):
        raise ValueError(f"unknown resolution {resolution!r}")
    spherical, rank = is_spherical_and_rank(H)
    if not spherical:
        raise NotSpherical(f"{H!r} is not spherical")
    blocks = sm_decomposition(H).components
    parts: list[SphericalRootSet] = []
    cert_blocks = []
    for i, block in enumerate(blocks):
        isolated, steps = algorithm_d(H, i)
        if resolution == "compute":
            part = _base_solve(isolated, None)
        elif len(isolated.psi) <= 1:
            part = leaf_resolve(isolated)
        else:
            part = _table_resolve(isolated)
        parts.append(part)
        cert_blocks.append({"block": [list(v) for v in block],
                            "steps": steps,
                            "sigma": [list(v) for v in part.roots],
                            "certificate": part.certificate})
    union: list[Vector] = []
    seen: set[Vector] = set()
    for part in parts:
        overlap = seen & part.root_set
        if overlap:
            raise InvariantViolation(f"block contributions overlap: {overlap}")
        seen |= part.root_set
        union.extend(part.roots)
    if len(union) != rank:
        raise InvariantViolation(f"blockwise union size {len(union)} != rank {rank}")
    return _result(union, {"datum": _wire(H), "blocks": cert_blocks})
