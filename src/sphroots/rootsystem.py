"""Simple root systems over the integers, in Bourbaki numbering.

Roots are integer coefficient vectors on the simple-root basis, stored as
plain tuples.  Positive roots are generated from the Cartan matrix by the
root-string closure rule; no floating point or Euclidean coordinates are
used anywhere (the coordinate realization serves only as an independent
test oracle).  Simple-root indices are 1-based throughout the public API.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import compress
from math import gcd
from operator import add, mul
from typing import Iterable, Optional

from .errors import DimensionMismatch, InvalidType, InvariantViolation

Vector = tuple[int, ...]
PairingForm = tuple[tuple[int, int], ...]


def height_key(w: Vector) -> tuple[int, Vector]:
    """Sort key of the (height, lexicographic) order on roots and weights."""
    return sum(w), w


FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")

_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

#: largest rank accepted for A-D; larger ranks are refused before any
#: closure runs.  The slowest table-1 leaf of A-D (type C, complement the
#: last node) takes about 0.20 s in one process on a 2-vCPU host at this
#: rank and 0.68 s at rank 96 with the cap lifted.
MAX_RANK = 64

_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E6": lambda n: 36,
    "E7": lambda n: 63,
    "E8": lambda n: 120,
    "F4": lambda n: 24,
    "G2": lambda n: 6,
}


#: bits per coefficient in the integer code of a weight, and the offset
#: added to every coefficient so that negative ones code too: the code of
#: ``w`` is the number whose little-endian bytes are ``w_i + CODE_OFFSET``.
#: Codes add like the weights up to the offset, and root coefficients lie
#: in [-6, 6], so a line weight steps by a root without a carry or borrow.
CODE_DIGIT = 8
CODE_OFFSET = 1 << (CODE_DIGIT - 1)


def mask_bits(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    return [b for b, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


class RootSystem:
    """Cartan data plus the full set of positive roots.

    ``cartan[i][j]`` is the pairing of the i-th simple coroot with the j-th
    simple root (rows indexed by coroots).  ``symmetrizer`` holds positive
    integers d_i making ``d_i * cartan[i][j]`` symmetric.  ``type_label`` is
    the family name when ``cartan`` is a standard matrix
    (:func:`standard_cartan`) and ``None`` otherwise.

    Systems are interned, one per Cartan matrix (:func:`from_cartan`, which
    :func:`build` calls), and compare by identity.  The closure yields the
    squared length of every positive root, kept in ``_norms``, and its
    integer code (:data:`CODE_OFFSET`), kept in ``codes``; ``zero_code`` is
    the code of the zero weight.  What else is derived from a system is
    memoized on it when first asked for: its subsystems, its Levi data,
    its diagram automorphisms, its index of table rows and each match
    looked up in it, the pairing form of each positive root whose form is
    asked for (in ``_forms``), the weights of its lines (:attr:`lines`)
    and the map from the code of each line weight to its line
    (:attr:`code_bits`).  ``_croots`` holds the one tuple of each
    restricted root of its Levi data, shared by every memo it keys.
    """

    def __init__(self, type_label: Optional[str], rank: int,
                 cartan: tuple[Vector, ...], symmetrizer: Vector,
                 positive_roots: tuple[Vector, ...], norms: dict[Vector, int],
                 codes: dict[Vector, int]):
        self.type_label = type_label
        self.rank = rank
        self.cartan = cartan
        self.symmetrizer = symmetrizer
        self.positive_roots = positive_roots
        self.positive_set = frozenset(positive_roots)
        # the nonzero (i, c_ij) of each Cartan column j
        self._columns = tuple(tuple((i, c) for i, c in enumerate(col) if c)
                              for col in zip(*cartan))
        self._norms = norms
        self.codes = codes
        self.zero_code = _zero_code(rank)
        self._forms: dict[Vector, PairingForm] = {}
        self._subsystems: dict = {}
        self._levi_data: dict = {}
        self._croots: dict[Vector, Vector] = {}
        self._automorphisms: list = []
        self._row_index: dict = {}
        self._matches: dict = {}
        self._delta_strings: dict = {}

    @cached_property
    def lines(self) -> tuple[Vector, ...]:
        """The weight naming each torus-stable line of the Lie algebra,
        built on first use, for delta-strings and degenerations.

        Lines are bits of one integer mask: positive root i of
        :attr:`positive_roots` is bit i, its negative bit ``N + i`` (N
        positive roots), and the Cartan line, named by the zero weight,
        bit ``2N``; ``lines[b]`` is the weight of bit b.  So a mask of
        positive roots decodes in (height, lex) order.
        """
        roots = self.positive_roots
        return (roots + tuple(tuple(-x for x in r) for r in roots)
                + (self.zero(),))

    @cached_property
    def code_bits(self) -> dict[int, int]:
        """The code of each line weight mapped to its bit in :attr:`lines`,
        built on first use, for the step-downs of delta-strings: ``w - delta``
        has the code ``code - (codes[delta] - zero_code)``.  It does not
        need :attr:`lines`, as ``-w`` has the code ``2 zero_code - code(w)``
        and the bits follow the numbering rule of :attr:`lines`.
        """
        codes = [self.codes[r] for r in self.positive_roots]
        n, zero = len(codes), self.zero_code
        bits = {c: i for i, c in enumerate(codes)}
        bits.update({2 * zero - c: n + i for i, c in enumerate(codes)})
        bits[zero] = 2 * n
        return bits

    def simple_root(self, i: int) -> Vector:
        """Coefficient vector of the i-th simple root (1-based)."""
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def zero(self) -> Vector:
        return (0,) * self.rank

    def __repr__(self):
        label = self.type_label if self.type_label else "derived"
        return f"RootSystem({label}, rank={self.rank})"


def normalize_type(type_label: str, rank: Optional[int] = None) -> tuple[str, int]:
    """Resolve a (family, rank) pair, given as ``B3``, ``E6``, or ``B`` or
    ``E`` with ``rank`` 3 or 6, in any case."""
    label = type_label.strip().upper()
    if label in ("E", "F", "G") and rank is not None:
        label = f"{label}{rank}"
    if label not in FAMILIES:
        if len(label) > 1 and label[0] in "ABCD" and label[1:].isdigit():
            if rank is not None and rank != int(label[1:]):
                raise InvalidType(f"conflicting rank for {type_label}")
            label, rank = label[0], int(label[1:])
        else:
            raise InvalidType(f"unknown type {type_label!r}")
    if label in _FIXED_RANK:
        fixed = _FIXED_RANK[label]
        if rank is not None and rank != fixed:
            raise InvalidType(f"type {label} has rank {fixed}, got {rank}")
        return label, fixed
    if rank is None:
        raise InvalidType(f"type {label} needs an explicit rank")
    if rank < _MIN_RANK[label]:
        raise InvalidType(f"type {label} requires rank >= {_MIN_RANK[label]}")
    if rank > MAX_RANK:
        raise InvalidType(f"type {label} rank {rank} exceeds MAX_RANK = {MAX_RANK}")
    return label, rank


def _bonds(family: str, n: int) -> list[tuple[int, int, int, int]]:
    """The bonds ``(i, j, c_ij, c_ji)`` of a standard diagram, 1-based."""
    if family in ("A", "B", "C"):
        bonds = [(i, i + 1, -1, -1) for i in range(1, n - 1)]
        if n >= 2:
            # B: last node short; C: last node long
            last = {"A": (-1, -1), "B": (-1, -2), "C": (-2, -1)}[family]
            bonds.append((n - 1, n, *last))
    elif family == "D":
        # chain 1..n-2, with nodes n-1 and n both attached to node n-2
        bonds = [(i, i + 1, -1, -1) for i in range(1, n - 2)]
        bonds += [(n - 2, n - 1, -1, -1), (n - 2, n, -1, -1)]
    elif family in ("E6", "E7", "E8"):
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        bonds = [(a, b, -1, -1) for a, b in zip(chain, chain[1:])]
        bonds.append((2, 4, -1, -1))
    elif family == "F4":
        bonds = [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]  # 3, 4 short
    else:
        bonds = [(1, 2, -3, -1)]  # G2, node 1 short
    return bonds


def standard_cartan(type_label: str, rank: Optional[int] = None) -> tuple[Vector, ...]:
    """Cartan matrix of a simple type in Bourbaki numbering.

    Raises InvalidType like :func:`normalize_type`.  Cheap to rebuild, so
    it is not memoized; it builds no root system.
    """
    family, n = normalize_type(type_label, rank)
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, cij, cji in _bonds(family, n):
        c[i - 1][j - 1], c[j - 1][i - 1] = cij, cji
    return tuple(map(tuple, c))


def _symmetrizer_from_cartan(cartan: tuple[Vector, ...]) -> Vector:
    """Positive integers d with d_i c_ij = d_j c_ji.

    The result is the primitive integer vector proportional to the rational
    solution with d = 1 at the least node of each connected component.
    Every entry set so far is ``scale`` times that solution; when a
    quotient would not be whole, all entries and ``scale`` grow together.
    """
    n = len(cartan)
    d = [0] * n
    scale = 1
    for start in range(n):
        if d[start]:
            continue
        d[start] = scale
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and not d[j]:
                    num, den = d[i] * abs(cartan[i][j]), abs(cartan[j][i])
                    factor = den // gcd(num, den)
                    if factor != 1:
                        d = [x * factor for x in d]
                        scale *= factor
                        num *= factor
                    d[j] = num // den
                    queue.append(j)
    divisor = gcd(*d)
    return tuple(x // divisor for x in d)


def _zero_code(rank: int) -> int:
    """The integer code of the zero weight of a rank."""
    return int.from_bytes(bytes([CODE_OFFSET]) * rank, "little")


def _close_positive_roots(cartan: tuple[Vector, ...], symmetrizer: Vector
                          ) -> tuple[tuple[Vector, ...], dict[Vector, int],
                                     dict[Vector, int]]:
    """Generate all positive roots from the Cartan matrix by string closure.

    Returns the roots sorted by :func:`height_key`, the squared length of
    each and the integer code of each.  Each root carries its pairings with
    the simple coroots, so stepping by the i-th simple root adds the i-th
    Cartan column, ``norm(beta + alpha_i) = norm(beta) + 2 d_i
    (<alpha_i^vee, beta> + 1)`` and the code grows by ``1 << 8i``.
    A root of height h is known once every root of height below h is, so
    the strings are walked one height level at a time, each level keyed on
    the roots' codes.  Each root of a level records the nodes by which the
    level below stepped up to it: these are exactly the i with
    beta - alpha_i a root.
    """
    n = len(cartan)
    columns = [tuple(row[i] for row in cartan) for i in range(n)]
    steps = [1 << (CODE_DIGIT * i) for i in range(n)]
    zero = _zero_code(n)
    norms: dict[Vector, int] = {}
    codes: dict[Vector, int] = {}
    known: set[int] = set()
    # code -> (root, its pairings with the simple coroots, nodes stepped by)
    level: dict[int, tuple[Vector, Vector, list[int]]] = {}
    for i, d in enumerate(symmetrizer):
        alpha = tuple(int(i == j) for j in range(n))
        level[zero + steps[i]] = alpha, columns[i], []
        norms[alpha] = 2 * d
        codes[alpha] = zero + steps[i]
    ordered: list[Vector] = []
    while level:
        ordered.extend(sorted(beta for beta, _, _ in level.values()))
        known.update(level)
        fresh: dict[int, tuple[Vector, Vector, list[int]]] = {}
        for code, (beta, b, via) in level.items():
            # beta + alpha_i is a root iff more than b_i = <beta, alpha_i^vee>
            # steps down from beta stay roots, and root strings have no
            # gaps: always when b_i < 0; when b_i = 0 iff i is in ``via``;
            # when b_i > 0 iff beta - (b_i + 1) alpha_i is a root
            ups = [i for i in via if not b[i]]
            for i in compress(range(n), b):
                bi = b[i]
                if bi < 0 or (bi < beta[i]
                              and code - (bi + 1) * steps[i] in known):
                    ups.append(i)
            for i in ups:
                up = code + steps[i]
                entry = fresh.get(up)
                if entry is None:
                    root = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    fresh[up] = root, tuple(map(add, b, columns[i])), [i]
                    norms[root] = norms[beta] + 2 * symmetrizer[i] * (b[i] + 1)
                    codes[root] = up
                else:
                    entry[2].append(i)
        level = fresh
    return tuple(ordered), norms, codes


_systems: dict[tuple[Vector, ...], RootSystem] = {}


def build(type_label: str, rank: Optional[int] = None) -> RootSystem:
    """The interned root system of a simple type: :func:`from_cartan` of
    its :func:`standard_cartan`.

    Positive roots come sorted by (height, lexicographic coefficients).
    Raises InvalidType for out-of-range family/rank combinations.
    """
    return from_cartan(standard_cartan(type_label, rank))


def _standard_family(cartan: tuple[Vector, ...]) -> Optional[str]:
    """The family whose standard Cartan matrix ``cartan`` is, else None."""
    m = len(cartan)
    return next((family for family in _candidate_families(m)
                 if standard_cartan(family, m) == cartan), None)


def from_cartan(cartan: Iterable[Iterable[int]]) -> RootSystem:
    """The interned root system of a (semisimple) Cartan matrix.

    One system per matrix.  A standard matrix (:func:`standard_cartan`)
    gets its family as ``type_label`` and its positive roots counted;
    any other matrix gets no label.
    """
    key = tuple(tuple(row) for row in cartan)
    rs = _systems.get(key)
    if rs is None:
        n = len(key)
        family = _standard_family(key)
        symmetrizer = _symmetrizer_from_cartan(key)
        positive, norms, codes = _close_positive_roots(key, symmetrizer)
        if family is not None:
            expected = _POSITIVE_COUNT[family](n)
            if len(positive) != expected:
                raise InvariantViolation(
                    f"{family}{n}: closure produced {len(positive)} positive "
                    f"roots, expected {expected}")
        rs = _systems[key] = RootSystem(family, n, key, symmetrizer,
                                        positive, norms, codes)
    return rs


def _check_length(rs: RootSystem, w: Iterable[int]) -> Vector:
    v = tuple(w)
    if len(v) != rs.rank:
        raise DimensionMismatch(f"expected length {rs.rank}, got {len(v)}")
    return v


def weight_code(rs: RootSystem, w: Vector) -> int:
    """The integer code of a weight (:data:`CODE_OFFSET`), read from
    ``rs.codes`` for a positive root.

    Raises InvariantViolation for a weight of another length, or with a
    coefficient below ``6 - CODE_OFFSET`` or above ``CODE_OFFSET - 2``:
    adding a simple root to a coded weight must not carry into the next
    coefficient, nor subtracting a positive root (whose coefficients are
    at most 6) borrow from it.
    """
    code = rs.codes.get(w)
    if code is None:
        if (len(w) != rs.rank or min(w) < 6 - CODE_OFFSET
                or max(w) > CODE_OFFSET - 2):
            raise InvariantViolation(
                f"weight {w} is outside the coding range of rank {rs.rank}")
        code = int.from_bytes(bytes(x + CODE_OFFSET for x in w), "little")
    return code


def pairings(rs: RootSystem, w: Iterable[int]) -> list[int]:
    """Pairings of every simple coroot with a lattice vector.

    Entry i is <alpha_{i+1}^vee, w>, summed over the sparse Cartan columns
    of the support of ``w`` only.  This is the one pairing kernel: inner
    products, norms and coroot pairings are read off it.
    """
    b = [0] * rs.rank
    for x, column in zip(_check_length(rs, w), rs._columns):
        if x:
            for i, c in column:
                b[i] += x * c
    return b


def pairing_form(rs: RootSystem, w: Iterable[int]) -> PairingForm:
    """The linear form ``v -> 2 inner(v, w)`` as its nonzero terms
    ``(i, 2 d_i <alpha_{i+1}^vee, w>)``.

    Evaluated at a root gamma and divided by ``norm(gamma)`` it gives
    <gamma^vee, w>; divided by ``norm(w)`` it gives <w^vee, gamma>.  The
    indices are the simple coroots that do not vanish on ``w``.  Memoized
    on ``rs`` for positive roots, so callers share the tuple; other
    vectors are computed afresh on each call.
    """
    v = tuple(w)
    form = rs._forms.get(v)
    if form is None:
        form = tuple((i, 2 * d * x) for i, (d, x)
                     in enumerate(zip(rs.symmetrizer, pairings(rs, v))) if x)
        if v in rs.positive_set:
            rs._forms[v] = form
    return form


def inner(rs: RootSystem, v: Iterable[int], w: Iterable[int]):
    """Weyl-invariant inner product sum_i v_i d_i <alpha_i^vee, w>.

    The normalization depends on the symmetrizer scale; only signs and
    ratios of these values are meaningful.
    """
    a = _check_length(rs, v)
    return sum(map(mul, map(mul, a, rs.symmetrizer), pairings(rs, w)))


def norm(rs: RootSystem, gamma: Iterable[int]) -> int:
    """The squared length ``inner(gamma, gamma)``, read from the closure's
    table for positive roots and computed afresh for other vectors."""
    v = tuple(gamma)
    value = rs._norms.get(v)
    return value if value is not None else inner(rs, v, v)


def coroot_pairing(rs: RootSystem, gamma: Iterable[int], w: Iterable[int]) -> int:
    """Pairing of the coroot of an arbitrary root with a lattice vector."""
    g = tuple(gamma)
    value, remainder = divmod(2 * inner(rs, g, w), norm(rs, g))
    if remainder:
        raise InvariantViolation(f"non-integral coroot pairing for {g}")
    return value


def embed(w: Iterable[int], nodes: tuple[int, ...], rank: int) -> Vector:
    """Lift a vector on ``nodes`` to ambient coordinates of the given rank.

    Entry i of ``w`` lands on the 1-based ambient node ``nodes[i]``; the
    other coordinates are zero.
    """
    out = [0] * rank
    for pos, coeff in enumerate(w):
        out[nodes[pos] - 1] = coeff
    return tuple(out)


Subsystem = namedtuple("Subsystem", "system nodes")
Subsystem.__doc__ = """A parabolic root subsystem, re-expressed on its own
simple basis.

``system`` is the derived :class:`RootSystem`; ``nodes``, a tuple of
ints, holds at ``nodes[i]`` the ambient 1-based index of the (i+1)-th
simple root of the derived system.  For a connected proper subset that
is the ambient node behind standard node i + 1 of its type, so ``nodes``
need not ascend.
"""


def _submatrix(rs: RootSystem, nodes: tuple[int, ...]) -> tuple[Vector, ...]:
    """The Cartan matrix of ``rs`` on ``nodes``, in their order."""
    return tuple(tuple(rs.cartan[i - 1][j - 1] for j in nodes) for i in nodes)


def _standard_layout(rs: RootSystem, nodes: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending ``nodes`` in the numbering of a standard diagram.

    They stay ascending when they are disconnected or their Cartan
    submatrix is already standard; otherwise they are ordered by the first
    isomorphism onto a standard diagram, in FAMILIES order.
    """
    if (len(_components(rs.cartan, nodes)) != 1
            or _standard_family(_submatrix(rs, nodes)) is not None):
        return nodes
    m = len(nodes)
    for family in _candidate_families(m):
        isos = diagram_isomorphisms(rs, nodes, family, m)
        if isos:
            return tuple(sorted(nodes, key=isos[0].__getitem__))
    return nodes


def subsystem(rs: RootSystem, S: Iterable[int]) -> Subsystem:
    """Root subsystem on a subset of simple roots (1-based indices).

    The subsystem on all nodes is ``rs`` itself.  A proper subset is laid
    out by :func:`_standard_layout` and gets the interned system of its
    Cartan submatrix: for a connected subset, the :func:`build` system of
    its type.  Its roots are checked against the roots of ``rs`` supported
    on the subset.  Memoized on ``rs`` per node set.
    """
    key = tuple(sorted(set(S)))
    if key in rs._subsystems:
        return rs._subsystems[key]
    if any(a < 1 or a > rs.rank for a in key):
        raise DimensionMismatch(f"nodes {key} out of range for rank {rs.rank}")
    if len(key) == rs.rank:
        sub, nodes = rs, key
    else:
        nodes = _standard_layout(rs, key)
        sub = from_cartan(_submatrix(rs, nodes))
        idx = [a - 1 for a in nodes]
        node_set = set(nodes)
        filtered = {tuple(beta[i] for i in idx) for beta in rs.positive_roots
                    if all(x == 0 or i + 1 in node_set
                           for i, x in enumerate(beta))}
        if filtered != sub.positive_set:
            raise InvariantViolation("subsystem filter disagrees with closure")
    rs._subsystems[key] = Subsystem(sub, nodes)
    return rs._subsystems[key]


# --- Dynkin diagram recognition -------------------------------------------

def _components(cartan, nodes: tuple[int, ...]) -> list[tuple[int, ...]]:
    remaining = set(nodes)
    comps = []
    while remaining:
        start = min(remaining)
        seen = {start}
        queue = [start]
        while queue:
            i = queue.pop()
            for j in remaining:
                if j not in seen and cartan[i - 1][j - 1] != 0:
                    seen.add(j)
                    queue.append(j)
        comps.append(tuple(sorted(seen)))
        remaining -= seen
    return comps


#: a diagram as each node's neighbours, ascending, each with the bond
#: label ``(c_uv, c_vu)``
Adjacency = dict[int, tuple[tuple[int, tuple[int, int]], ...]]


def _adjacency(rs: RootSystem, nodes: Iterable[int]) -> Adjacency:
    """The diagram of ``rs`` on ``nodes``, read off the sparse Cartan
    columns."""
    inside = set(nodes)
    return {u: tuple((i + 1, (rs.cartan[u - 1][i], c))
                     for i, c in rs._columns[u - 1]
                     if i + 1 != u and i + 1 in inside)
            for u in sorted(inside)}


def _standard_adjacency(family: str, m: int) -> Adjacency:
    """The diagram of a standard type, read off its bonds."""
    nbrs: dict[int, list] = {t: [] for t in range(1, m + 1)}
    for i, j, cij, cji in _bonds(family, m):
        nbrs[i].append((j, (cij, cji)))
        nbrs[j].append((i, (cji, cij)))
    return {t: tuple(sorted(pairs)) for t, pairs in nbrs.items()}


def _isomorphisms_onto(source: Adjacency, target: Adjacency) -> list[dict]:
    """All bijections of a connected diagram onto another preserving the
    labeled Dynkin graph.

    A target whose multiset of node signatures (sorted incident labels)
    differs from the source's is rejected at once; equal multisets give
    equal edge counts.  Each node after the least is the least one next to
    a placed node; it goes onto a neighbour of its first placed
    neighbour's image and is checked against its placed neighbours only:
    an injective map sending every edge to an edge of the same label,
    between diagrams with as many edges, sends non-edges to non-edges.
    """
    m = len(source)
    if m != len(target):
        return []
    source_sig = {u: sorted(label for _, label in nbrs)
                  for u, nbrs in source.items()}
    target_sig = {t: sorted(label for _, label in nbrs)
                  for t, nbrs in target.items()}
    if sorted(source_sig.values()) != sorted(target_sig.values()):
        return []
    first = min(source)
    order = []
    anchor = {first: None}
    waiting = {first}
    while waiting:
        u = min(waiting)
        waiting.remove(u)
        order.append(u)
        for v, _ in source[u]:
            if v not in anchor:
                anchor[v] = u
                waiting.add(v)
    results = []
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend():
        if len(image) == m:
            results.append(dict(image))
            return
        u = order[len(image)]
        placed = anchor[u]
        candidates = (target if placed is None
                      else [t for t, _ in target[image[placed]]])
        for t in candidates:
            if t in used or target_sig[t] != source_sig[u]:
                continue
            if all((image[v], label) in target[t]
                   for v, label in source[u] if v in image):
                image[u] = t
                used.add(t)
                extend()
                del image[u]
                used.discard(t)

    extend()
    return results


def _candidate_families(m: int) -> list[str]:
    """The families with a standard diagram of rank m, in FAMILIES order."""
    return [fam for fam in FAMILIES
            if _FIXED_RANK.get(fam, m) == m >= _MIN_RANK.get(fam, m)]


def diagram_isomorphisms(rs: RootSystem, comp: Iterable[int], family: str,
                         m: int) -> list[dict]:
    """All relabelings of a connected node set onto a standard diagram.

    Only Cartan data are read: no standard root system is built.
    """
    try:
        family, m = normalize_type(family, m)
    except InvalidType:
        return []
    return _isomorphisms_onto(_adjacency(rs, comp),
                              _standard_adjacency(family, m))


def diagram_automorphisms(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Graph automorphisms of the Dynkin diagram of ``rs``, identity first.

    Each permutation is a tuple whose (i-1)-th entry is the image of node i.
    Memoized on ``rs``.
    """
    if not rs._automorphisms:
        n = rs.rank
        diagram = _adjacency(rs, range(1, n + 1))
        isos = _isomorphisms_onto(diagram, diagram)
        perms = sorted(tuple(f[i] for i in range(1, n + 1)) for f in isos)
        ident = tuple(range(1, n + 1))
        rs._automorphisms.extend([ident] + [p for p in perms if p != ident])
    return tuple(rs._automorphisms)
