"""The combinatorial datum of a Levi-split subgroup of a parabolic.

A subgroup with Levi part equal to the full standard Levi of its parabolic
is determined, up to the data this package cares about, by the set of
positive restricted roots whose weight spaces are missing from it (the
"active" set).  Validity of the datum is exactly the subalgebra condition:
the inactive positive restricted roots are closed under addition.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Optional

from . import rootsystem as rsmod
from .croots import LeviDatum, levi_datum
from .errors import ClosureViolation, InvariantViolation, PsiNotInPhiPlus
from .rootsystem import RootSystem, Subsystem, Vector


class SubgroupDatum:
    """An immutable (root system, Levi, active set) triple.

    ``u_mask`` is the union of the fibers of the active set, in the line
    numbering of the system: the weight set of the module whose sphericity
    governs everything downstream.  ``u_roots`` decodes it on read.
    ``psi`` is the key tuple :func:`make_subgroup` interns the instance
    by, holding the system's one tuple of each active root.
    Instances are interned on their Levi datum by :func:`make_subgroup`;
    the block decomposition, the sphericity verdict and the base-solve
    results are memoized on the instance when first computed.
    """

    __slots__ = ("L", "psi", "u_mask", "_blocks", "_verdict", "_solved")

    def __init__(self, L: LeviDatum, psi: tuple[Vector, ...]):
        self.L = L
        self.psi = tuple(psi)
        mask = 0
        for lam in self.psi:
            mask |= L.fiber_mask(lam)
        self.u_mask = mask
        self._blocks: Optional[SMDecomposition] = None
        self._verdict: Optional[tuple[bool, Optional[int]]] = None
        self._solved = None  # default-pivot base-solve result

    @property
    def rs(self) -> RootSystem:
        return self.L.rs

    @property
    def u_roots(self) -> tuple[Vector, ...]:
        """The roots of ``u_mask``, by (height, lex)."""
        roots = self.L.rs.positive_roots
        return tuple(roots[b] for b in rsmod.mask_bits(self.u_mask))

    def __repr__(self):
        return (f"SubgroupDatum(levi={list(self.L.levi)}, "
                f"psi={list(self.psi)})")

    def to_wire(self) -> dict:
        """Canonical JSON form: type, rank, complement nodes, active set."""
        label = self.rs.type_label
        if label is None:
            raise InvariantViolation("derived systems have no wire form")
        return {
            "type": label,
            "rank": self.rs.rank,
            "levi_complement": list(self.L.complement),
            "psi": [list(v) for v in self.psi],
        }


def make_subgroup(L: LeviDatum, psi: Iterable[Iterable[int]]) -> SubgroupDatum:
    """Validated construction of a subgroup datum, interned on ``L``.

    An empty active set is legal and encodes the parabolic itself; a root
    listed twice is active once.  Raises PsiNotInPhiPlus for vectors
    outside the positive restricted roots and ClosureViolation (naming the
    offending triple) when some active root decomposes into two inactive
    positive restricted roots.
    """
    psi_t = tuple(sorted({tuple(v) for v in psi}))
    H = L._subgroups.get(psi_t)
    if H is not None:
        return H
    for lam in psi_t:
        if not L.has_croot(lam):
            raise PsiNotInPhiPlus(f"{lam} is not a positive restricted root")
    croots = L.rs._croots
    psi_t = tuple(croots[lam] for lam in psi_t)
    psi_set = set(psi_t)
    for lam in psi_t:
        for a, b in L.decompositions(lam):
            if a not in psi_set and b not in psi_set:
                raise ClosureViolation(a, b, lam)
    H = L._subgroups[psi_t] = SubgroupDatum(L, psi_t)
    return H


class SMDecomposition(namedtuple("SMDecomposition", "components")):
    """Partition of the active set by shared simple Levi factors.

    Two active roots land in the same block when some Dynkin component of
    the Levi pairs nontrivially with both of their highest fiber weights.
    ``components``, a tuple of blocks, holds each block as a tuple of
    active roots; blocks are ordered by their lexicographically least
    member.
    """

    __slots__ = ()

    @property
    def trivial(self) -> bool:
        return len(self.components) <= 1


def sm_decomposition(H: SubgroupDatum) -> SMDecomposition:
    if H._blocks is not None:
        return H._blocks
    L, rs = H.L, H.rs
    parent = {lam: lam for lam in H.psi}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # the simple coroots (1-based) that do not vanish on each highest weight
    moved = {lam: {i + 1 for i, _ in rsmod.pairing_form(rs, L.hat(lam))}
             for lam in H.psi}
    touches = []
    for comp in L.components:
        touched = [lam for lam in H.psi if not moved[lam].isdisjoint(comp)]
        if touched:
            touches.append((comp, touched))
            first = touched[0]
            for lam in touched[1:]:
                parent[find(lam)] = find(first)
    groups: dict[Vector, list[Vector]] = {}
    for lam in H.psi:
        groups.setdefault(find(lam), []).append(lam)
    components = tuple(sorted((tuple(sorted(g)) for g in groups.values())))
    for comp, touched in touches:
        if len({find(lam) for lam in touched}) != 1:
            raise InvariantViolation(f"factor {comp} touches several blocks")
    H._blocks = SMDecomposition(components)
    return H._blocks


def upper_elements(L: LeviDatum, theta: Iterable[Vector]) -> tuple[Vector, ...]:
    """Elements no other member exceeds by a positive restricted root."""
    t = [tuple(v) for v in theta]
    out = []
    for nu in t:
        if all(mu == nu or
               not L.has_croot(tuple(a - b for a, b in zip(mu, nu)))
               for mu in t):
            out.append(nu)
    if t and not out:
        raise InvariantViolation("nonempty set without upper elements")
    return tuple(sorted(out))


def upsilon_and_hat(H: SubgroupDatum, i: int) -> tuple[tuple[Vector, ...], SubgroupDatum]:
    """Enlarged-block data for one block of the decomposition.

    Returns the set of active roots outside block i whose support sits
    inside the block's support, together with the datum keeping only the
    block and that set.  The shrunken datum is revalidated: a closure
    failure here would be an internal bug, not bad input.
    """
    blocks = sm_decomposition(H).components
    block = blocks[i]
    supp = frozenset().union(*(H.L.croot_support(nu) for nu in block))
    upsilon = tuple(sorted(
        mu for mu in H.psi
        if mu not in block and H.L.croot_support(mu) <= supp))
    hat = make_subgroup(H.L, block + upsilon)
    return upsilon, hat


def ambient_reduction(H: SubgroupDatum) -> tuple[SubgroupDatum, Subsystem]:
    """Shrink the ambient system to the union of active supports.

    Returns the reduced datum and the subsystem it lives on, whose
    ``nodes`` name the ambient node behind each reduced node.  The active
    set, its fibers, and the block structure carry over unchanged; an
    empty active set reduces to the empty system.
    """
    pi0 = frozenset().union(*(H.L.croot_support(lam) for lam in H.psi))
    sub = rsmod.subsystem(H.rs, pi0)
    new_levi = [pos + 1 for pos, a in enumerate(sub.nodes) if a in H.L.levi]
    L0 = levi_datum(sub.system, new_levi)
    ambient_complement = [a for a in sub.nodes if a not in H.L.levi]
    new_psi = []
    for lam in H.psi:
        by_node = dict(zip(H.L.complement, lam))
        new_psi.append(tuple(by_node.get(a, 0) for a in ambient_complement))
    reduced = make_subgroup(L0, new_psi)
    if len(reduced.psi) != len(H.psi):
        raise InvariantViolation("ambient reduction collapsed active roots")
    return reduced, sub
