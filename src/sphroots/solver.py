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

from collections import namedtuple
from typing import Callable, Optional, Union

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
from .tables import MatchResult, match_datum


class SphericalRootSet(namedtuple("SphericalRootSet", "roots proof")):
    """A computed set of spherical roots plus how it was obtained.

    ``roots`` is a tuple of the spherical roots; ``proof``, a
    :data:`Proof`, holds the data they were derived from;
    ``certificate`` renders it as JSON-ready dicts and lists each time it
    is read.
    """

    __slots__ = ()

    @property
    def root_set(self) -> frozenset[Vector]:
        return frozenset(self.roots)

    @property
    def certificate(self) -> dict:
        return self.proof.render()


# plain slotted classes: a namedtuple class costs 0.1-0.3 ms to create,
# which every ``compute`` process would pay on import
class LeafProof:
    """A datum with at most one active root and its table match (None
    when no root is active)."""

    __slots__ = ("datum", "match")

    def __init__(self, datum: SubgroupDatum, match: Optional[MatchResult]):
        self.datum, self.match = datum, match

    def render(self) -> dict:
        match = self.match
        return {"datum": self.datum.to_wire(),
                "match": None if match is None else {
                    "table": match.table_id, "row": match.row_id,
                    "family": match.family, "n": match.n,
                    "params": list(match.params)}}


class NodeProof:
    """A two-branch node: the pivots, the result of each branch and the
    root each branch lost."""

    __slots__ = ("datum", "pivots", "children", "removed")

    def __init__(self, datum: SubgroupDatum, pivots: tuple[Vector, Vector],
                 children: tuple[SphericalRootSet, SphericalRootSet],
                 removed: tuple[Vector, Vector]):
        self.datum, self.pivots = datum, pivots
        self.children, self.removed = children, removed

    def render(self) -> dict:
        return {"datum": self.datum.to_wire(),
                "pivots": [list(lam) for lam in self.pivots],
                "children": [r.certificate for r in self.children],
                "removed": [[list(v)] for v in self.removed]}


class IsolationStep:
    """One degeneration of ``algorithm_d``: the datum, the pivot it
    degenerates along and the block it follows."""

    __slots__ = ("datum", "pivot", "block")

    def __init__(self, datum: SubgroupDatum, pivot: Vector,
                 block: tuple[Vector, ...]):
        self.datum, self.pivot, self.block = datum, pivot, block

    def render(self) -> dict:
        return {"datum": self.datum.to_wire(), "pivot": list(self.pivot),
                "block": [list(v) for v in self.block]}


class BlocksProof:
    """A blockwise solve: per block, its roots, the isolation steps and
    the result of the isolated datum."""

    __slots__ = ("datum", "blocks")

    def __init__(self, datum: SubgroupDatum,
                 blocks: tuple[tuple[tuple[Vector, ...], list[IsolationStep],
                                     SphericalRootSet], ...]):
        self.datum, self.blocks = datum, blocks

    def render(self) -> dict:
        return {"datum": self.datum.to_wire(),
                "blocks": [{"block": [list(v) for v in block],
                            "steps": [step.render() for step in steps],
                            "sigma": [list(v) for v in part.roots],
                            "certificate": part.certificate}
                           for block, steps, part in self.blocks]}


Proof = Union[LeafProof, NodeProof, BlocksProof]


def _sorted_roots(roots) -> tuple[Vector, ...]:
    return tuple(sorted(set(roots), key=height_key))


def _result(roots, proof: Proof) -> SphericalRootSet:
    roots = _sorted_roots(roots)
    if not linearly_independent(roots):
        raise InvariantViolation("spherical roots must be independent")
    return SphericalRootSet(roots, proof)


def leaf_resolve(H: SubgroupDatum) -> SphericalRootSet:
    """Spherical roots of a datum with at most one active root.

    Empty active set means a parabolic: no spherical roots.  Otherwise the
    datum is shrunk to the support of its active root and matched against
    table 1; the table's root set is pulled back to the ambient numbering.
    """
    if len(H.psi) > 1:
        raise InvariantViolation("leaf_resolve needs at most one active root")
    if not H.psi:
        return SphericalRootSet((), LeafProof(H, None))
    return _table_resolve(H)


def _table_resolve(H: SubgroupDatum) -> SphericalRootSet:
    """The roots of a one-block datum read off its table row, in H's
    numbering; the certificate names the row and its instance, so that
    ``tables.instantiate_row`` can replay it."""
    reduced, sub = ambient_reduction(H)
    match = match_datum(reduced)
    return _result([embed(s, sub.nodes, H.rs.rank) for s in match.sigma],
                   LeafProof(H, match))


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
        # imported on first use, so that a leaf query never loads it
        from .degeneration import degenerate
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
        (lost1,), (lost2,) = removed1, removed2
        result = _result(union, NodeProof(H, (lam1, lam2), (r1, r2),
                                          (lost1, lost2)))
    if cacheable:
        H._solved = result
    return result


def algorithm_d(H: SubgroupDatum, block_index: int
                ) -> tuple[SubgroupDatum, list[IsolationStep]]:
    """Isolate one block of the factor decomposition by degenerations.

    Repeatedly shrink to the block plus its support-dominated companions;
    while companions remain, degenerate along an upper one and follow the
    block through the limit.  Returns the final datum (whose decomposition
    is trivial) and the step log.  Termination is theorem-guaranteed; the
    iteration cap is defensive.
    """
    steps: list[IsolationStep] = []
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
        from .degeneration import degenerate, track_component
        d = degenerate(current, lam)
        index = track_component(d, index)
        steps.append(IsolationStep(current, lam, block))
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
    proof_blocks = []
    for i, block in enumerate(blocks):
        isolated, steps = algorithm_d(H, i)
        if resolution == "compute":
            part = _base_solve(isolated, None)
        else:
            part = _table_resolve(isolated)
        parts.append(part)
        proof_blocks.append((block, steps, part))
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
    return _result(union, BlocksProof(H, tuple(proof_blocks)))
