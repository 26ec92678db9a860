"""Restriction of roots to the connected center of a standard Levi.

A standard Levi subgroup is a subset of the simple roots.  Restricting a
root to the center of the Levi amounts to forgetting the coefficients on
the Levi nodes; two roots restrict equally iff they agree on the
complement.  We therefore represent a restricted root ("C-root") by its
coefficient subvector on the complement nodes, in ascending node order.
The fiber of a C-root is the weight set of a simple Levi module, so it has
unique highest and lowest elements.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter, sub
from typing import Iterable

from .errors import DimensionMismatch, EmptyFiber, InvariantViolation
from .rootsystem import RootSystem, Vector, _components, mask_bits


class LeviDatum:
    """A root system together with a standard Levi subset of its nodes.

    Precomputes the positive Levi roots, the positive restricted roots and
    their fibers, all from one pass over the positive roots: a root lies in
    the Levi exactly when it restricts to zero.  Each fiber is kept only as
    a mask of positive root lines (:meth:`fiber_mask`); :meth:`fiber` and
    :meth:`hat` decode it on read.  The same pass gives three masks in the
    line numbering of the system (:attr:`RootSystem.lines`): ``pu_mask``,
    the opposite nilradical; ``outside_mask``, the positive roots outside
    the Levi; and ``levi_mask``, the Levi roots of both signs.  ``levi``
    is the ascending node tuple that keys the instance in
    ``rs._levi_data``; fiber keys, ``phi_plus``, :meth:`restrict` and
    :meth:`decompositions` use the system's one tuple of each restricted
    root (``rs._croots``).  Immutable once built; use :func:`levi_datum`
    to get the instance interned on the root system.  Subgroup data over
    it are memoized on it by
    ``make_subgroup``, what a degeneration along each delta does to it by
    ``degeneration.levi_step``, and its Dynkin
    components (:attr:`components`) when first asked for.
    """

    def __init__(self, rs: RootSystem, levi: Iterable[int]):
        self.rs = rs
        self.levi = tuple(sorted(set(levi)))
        if any(a < 1 or a > rs.rank for a in self.levi):
            raise DimensionMismatch(
                f"Levi nodes {list(self.levi)} out of range for rank {rs.rank}")
        self.complement = tuple(sorted(
            set(range(1, rs.rank + 1)).difference(self.levi)))
        idx = [a - 1 for a in self.complement]
        if len(idx) > 1:
            self._restrict = itemgetter(*idx)
        else:
            # itemgetter gives a bare item, not a 1-tuple, for a single
            # index; a slice gives the tuple of the one coefficient or none
            start = idx[0] if idx else 0
            self._restrict = itemgetter(slice(start, start + len(idx)))

        # positive roots come in (height, lex) order, so delta_l_plus keeps
        # it; positive root i is line bit i
        delta_l_plus: list[Vector] = []
        fiber_masks: dict[Vector, int] = {}
        inside = 0
        restrict, roots = self._restrict, rs.positive_roots
        for i, beta in enumerate(roots):
            lam = restrict(beta)
            if any(lam):
                fiber_masks[lam] = fiber_masks.get(lam, 0) | 1 << i
            else:
                delta_l_plus.append(beta)
                inside |= 1 << i
        n = len(roots)
        self.outside_mask = ((1 << n) - 1) ^ inside
        self.pu_mask = self.outside_mask << n
        self.levi_mask = inside | inside << n
        self.delta_l_plus = tuple(delta_l_plus)
        croots = rs._croots
        self._fiber_masks = fiber_masks = {
            croots.setdefault(lam, lam): m for lam, m in fiber_masks.items()}
        self.phi_plus = tuple(sorted(fiber_masks))
        for lam, m in fiber_masks.items():
            # fiber bits run in (height, lex) order, and the highest
            # (lowest) weight of a simple Levi module is the one weight of
            # top (bottom) height, so the two top (bottom) bits differ in it
            rest = m & (m - 1)
            if rest:
                top = m.bit_length() - 1
                below_top = (m ^ 1 << top).bit_length() - 1
                bottom = (m ^ rest).bit_length() - 1
                above_bottom = (rest & -rest).bit_length() - 1
                if (sum(roots[top]) == sum(roots[below_top])
                        or sum(roots[bottom]) == sum(roots[above_bottom])):
                    raise InvariantViolation(
                        f"fiber {self.fiber(lam)} has two extremes")
        self._decompositions: dict[Vector, list[tuple[Vector, Vector]]] = {}
        self._subgroups: dict = {}
        self._steps: dict = {}

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The node sets of the Dynkin components of the Levi, each
        ascending, by least node."""
        return tuple(_components(self.rs.cartan, self.levi))

    def restrict(self, beta: Iterable[int]) -> Vector:
        """Coefficient subvector of a root on the complement nodes; the
        system's one tuple of it when it is a restricted root."""
        lam = self._restrict(tuple(beta))
        return self.rs._croots.get(lam, lam)

    def has_croot(self, lam: Vector) -> bool:
        return lam in self._fiber_masks

    def decompositions(self, lam: Vector) -> list[tuple[Vector, Vector]]:
        """The pairs ``(a, b)`` of positive C-roots with ``a + b = lam`` and
        ``a <= b``, by ascending ``a``; built on first use per C-root."""
        pairs = self._decompositions.get(lam)
        if pairs is None:
            croots = self.rs._croots
            pairs = []
            for a in self.phi_plus:
                # lam - a falls as a rises, both lexicographically
                b = tuple(map(sub, lam, a))
                if b < a:
                    break
                if b in self._fiber_masks:
                    pairs.append((a, croots[b]))
            self._decompositions[croots.get(lam, lam)] = pairs
        return pairs

    def fiber_mask(self, lam: Vector) -> int:
        """The fiber of a positive C-root as a mask of positive root lines."""
        if lam not in self._fiber_masks:
            raise EmptyFiber(f"{lam} is not a positive restricted root")
        return self._fiber_masks[lam]

    def fiber(self, lam: Iterable[int]) -> tuple[Vector, ...]:
        """All roots restricting to a positive C-root, by (height, lex),
        decoded from its mask."""
        roots = self.rs.positive_roots
        return tuple(roots[b] for b in mask_bits(self.fiber_mask(tuple(lam))))

    def hat(self, lam: Iterable[int]) -> Vector:
        """Highest weight of the fiber of a positive C-root: its top bit."""
        return self.rs.positive_roots[
            self.fiber_mask(tuple(lam)).bit_length() - 1]

    def croot_support(self, lam: Iterable[int]) -> frozenset[int]:
        """Ambient support of a C-root, read off its highest fiber element."""
        return frozenset(i + 1 for i, x in enumerate(self.hat(lam)) if x)

    def __repr__(self):
        return f"LeviDatum({self.rs!r}, levi={list(self.levi)})"


def levi_datum(rs: RootSystem, levi: Iterable[int]) -> LeviDatum:
    """The Levi datum of ``rs`` on a node set, built once per system."""
    nodes = tuple(sorted(set(levi)))
    L = rs._levi_data.get(nodes)
    if L is None:
        L = LeviDatum(rs, nodes)
        rs._levi_data[L.levi] = L
    return L


def complement_levi(rs: RootSystem, complement: Iterable[int]) -> LeviDatum:
    """The Levi datum of ``rs`` on every node outside ``complement``."""
    return levi_datum(rs, set(range(1, rs.rank + 1)).difference(complement))
