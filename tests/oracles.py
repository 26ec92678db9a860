"""Independent oracles used by the tests.

The Euclidean realization below constructs every root system directly from
the classical coordinate descriptions (exact rationals), then re-expresses
each root in the simple-root basis through an exact left inverse of that
basis, checking each solution by multiplying it back.  It shares no code
with the Cartan-matrix closure in the package, so agreement of the two
constructions is a meaningful check.

``close_positive_roots`` is the plain string closure: it tests every
string by building the root ``b_i + 1`` steps down, and returns the roots
alone.  The package's closure reads the one-step-down test off the nodes
by which each root was reached, yields each root's squared length, and
must return the same roots.

``knop_reduce`` is the plain form of the package's highest-weight
reduction: each step rescans every pool weight for maximality and pairs
each Levi root through ``coroot_pairing``, and the verdict compares the
``rank`` of the picked weights with their number.  The package keeps the
maximal weights incrementally, tests independence by integer elimination
and must return the same witness.

``fiber_extreme`` is the plain search for a fiber's highest or lowest
weight: the one member that no Levi simple root raises (lowers) within
the fiber.  The package reads the extremes off the ends of the sorted
fiber and must find the same members.

``degenerate``, ``check_limit_structure`` and ``delta_strings`` are the
set-based form of the package's limit construction: the limit, the
opposite nilradical and the Levi test are sets of weights, and every
weight names its own line.  The package runs the same construction on
line masks and must give the same result.  ``decompositions`` lists the
two-term sums of every restricted root of a Levi datum at once.

``luna_shape`` checks a spherical root against Luna's list (D. Luna,
Publ. Math. IHES 94, 2001): it classifies the Dynkin diagram of the
root's support by its own walk over the Cartan matrix and compares the
coefficients, in that type's standard order, with the shapes the list
allows there.  It reads no package code.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from operator import add, mul, sub
from fractions import Fraction as Q
from typing import Callable, Iterable, NamedTuple, Optional

from sphroots import rootsystem as rsmod
from sphroots.croots import LeviDatum, levi_datum
from sphroots.errors import InvariantViolation, LambdaNotActive
from sphroots.rootsystem import RootSystem, Vector, height_key
from sphroots.sphericity import (
    ReductionStep,
    ThetaWitness,
    is_spherical_and_rank,
)
from sphroots.subgroup import SubgroupDatum, make_subgroup


def _inverse(matrix):
    """Exact inverse of a positive-definite matrix, by Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [list(row) + [Q(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        lead = aug[col][col]
        assert lead > 0  # positive definite: no pivoting needed
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _unit(m, i, c=1):
    v = [Q(0)] * m
    v[i - 1] = Q(c)
    return v


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _simple_roots(family, n):
    if family == "A":
        return [_sub(_unit(n + 1, i), _unit(n + 1, i + 1)) for i in range(1, n + 1)]
    if family == "B":
        out = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(1, n)]
        return out + [_unit(n, n)]
    if family == "C":
        out = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(1, n)]
        return out + [_unit(n, n, 2)]
    if family == "D":
        out = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(1, n)]
        last = _unit(n, n - 1)
        last[n - 1] += 1
        return out + [last]
    if family == "G2":
        return [[Q(1), Q(-1), Q(0)], [Q(-2), Q(1), Q(1)]]
    if family == "F4":
        return [
            _sub(_unit(4, 2), _unit(4, 3)),
            _sub(_unit(4, 3), _unit(4, 4)),
            _unit(4, 4),
            [Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)],
        ]
    if family == "E8":
        a1 = [Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2),
              Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)]
        a2 = [Q(1), Q(1)] + [Q(0)] * 6
        chain = [_sub(_unit(8, i + 1), _unit(8, i)) for i in range(1, 8)]
        return [a1, a2] + chain[:6]
    raise ValueError(family)


def _all_roots(family, n):
    if family == "A":
        m = n + 1
        return [_sub(_unit(m, i), _unit(m, j))
                for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    if family in ("B", "C", "D"):
        out = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = _unit(n, i, si)
                        v[j - 1] = Q(sj)
                        out.append(v)
        if family == "B":
            out += [_unit(n, i, s) for i in range(1, n + 1) for s in (1, -1)]
        if family == "C":
            out += [_unit(n, i, 2 * s) for i in range(1, n + 1) for s in (1, -1)]
        return out
    if family == "G2":
        out = []
        for i, j in itertools.permutations(range(3), 2):
            v = [Q(0)] * 3
            v[i], v[j] = Q(1), Q(-1)
            out.append(v)
        for i in range(3):
            j, k = [x for x in range(3) if x != i]
            v = [Q(0)] * 3
            v[i], v[j], v[k] = Q(2), Q(-1), Q(-1)
            out.append(v)
            out.append([-x for x in v])
        return out
    if family == "F4":
        out = [_unit(4, i, s) for i in range(1, 5) for s in (1, -1)]
        for i in range(1, 5):
            for j in range(i + 1, 5):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = _unit(4, i, si)
                        v[j - 1] = Q(sj)
                        out.append(v)
        for signs in itertools.product((1, -1), repeat=4):
            out.append([Q(s, 2) for s in signs])
        return out
    if family == "E8":
        out = []
        for i in range(1, 9):
            for j in range(i + 1, 9):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = _unit(8, i, si)
                        v[j - 1] = Q(sj)
                        out.append(v)
        for signs in itertools.product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:
                out.append([Q(s, 2) for s in signs])
        return out
    raise ValueError(family)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _left_inverse(simple):
    """Rows p_j with p_j . (sum_i c_i simple_i) == c_j, through the Gram matrix."""
    inv = _inverse([[_dot(a, b) for b in simple] for a in simple])
    return [[_dot(row, column) for column in zip(*simple)] for row in inv]


def _positive_roots(family, n):
    simple = _simple_roots(family, n)
    inverse = _left_inverse(simple)
    out = set()
    for root in _all_roots(family, n):
        nonzero = [(i, x) for i, x in enumerate(root) if x]
        coeffs = [sum(p[i] * x for i, x in nonzero) for p in inverse]
        back = [Q(0)] * len(root)
        for c, s in zip(coeffs, simple):
            if c:
                for i, y in enumerate(s):
                    if y:
                        back[i] += c * y
        assert back == root, (family, n, root)
        if all(c.denominator == 1 for c in coeffs):
            ints = tuple(int(c) for c in coeffs)
            if all(c >= 0 for c in ints) and any(ints):
                out.add(ints)
    return out


@functools.cache
def _e8_positive_roots():
    return frozenset(_positive_roots("E8", 8))


def euclidean_positive_roots(family, n):
    """Positive roots as integer coefficient tuples on the simple basis."""
    if family in ("E6", "E7", "E8"):
        return {r[:n] for r in _e8_positive_roots() if not any(r[n:])}
    return _positive_roots(family, n)


def euclidean_simple_roots(family, n):
    """Simple roots in Euclidean coordinates; E6 and E7 sit inside E8."""
    if family in ("E6", "E7"):
        return _simple_roots("E8", 8)[:n]
    return _simple_roots(family, n)


def euclidean_cartan(family, n):
    """Cartan matrix recomputed from Euclidean inner products."""
    # each simple root has at most eight nonzero coordinates
    simple = [{i: x for i, x in enumerate(a) if x}
              for a in euclidean_simple_roots(family, n)]

    def dot(a, b):
        return sum(x * b.get(i, 0) for i, x in a.items())

    out = []
    for ai in simple:
        row = []
        for aj in simple:
            val = 2 * dot(ai, aj) / dot(ai, ai)
            assert val.denominator == 1
            row.append(int(val))
        out.append(tuple(row))
    return tuple(out)


def brute_force_isomorphisms(cartan, comp, target):
    """Every bijection comp -> {1..m} that keeps the labeled Dynkin graph.

    Tries all permutations; ``cartan`` is indexed by 1-based node numbers
    of ``comp``, ``target`` is an m x m Cartan matrix.
    """
    comp = tuple(comp)
    if len(comp) != len(target):
        return []
    out = []
    for images in itertools.permutations(range(1, len(comp) + 1)):
        f = dict(zip(comp, images))
        if all(cartan[a - 1][b - 1] == target[f[a] - 1][f[b] - 1]
               for a in comp for b in comp):
            out.append(f)
    return out


def rational_symmetrizer(cartan):
    """Primitive positive integers d with d_i c_ij = d_j c_ji.

    Solves over the rationals with d = 1 at the least node of each
    connected component, checks that the solution symmetrizes ``cartan``,
    then clears denominators and common factors of the whole vector.
    """
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Q(1)
        queue = [start]
        while queue:
            i = queue.pop(0)
            for j in range(n):
                if j != i and cartan[i][j] and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    queue.append(j)
    assert all(d[i] * cartan[i][j] == d[j] * cartan[j][i]
               for i in range(n) for j in range(n))
    denom = math.lcm(*(x.denominator for x in d))
    ints = [int(x * denom) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def close_positive_roots(cartan: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """Generate all positive roots from the Cartan matrix by string closure.

    Each root carries its pairings with the simple coroots, so stepping by
    the i-th simple root adds the i-th Cartan column.  A root of height h
    is known once every root of height below h is, so the strings are
    walked one height level at a time.
    """
    n = len(cartan)
    columns = [tuple(row[i] for row in cartan) for i in range(n)]
    pairings = {tuple(int(i == j) for j in range(n)): columns[i]
                for i in range(n)}
    level = list(pairings.items())
    while level:
        fresh: dict[Vector, Vector] = {}
        for beta, b in level:
            for i in range(n):
                # beta + alpha_i is a root iff more than <beta, alpha_i^vee>
                # steps down from beta stay roots; at most beta[i] can, and
                # root strings have no gaps, so the last step decides
                if b[i] >= 0:
                    if beta[i] <= b[i] or (beta[:i] + (beta[i] - b[i] - 1,)
                                           + beta[i + 1:]) not in pairings:
                        continue
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if up not in pairings and up not in fresh:
                    fresh[up] = tuple(map(add, b, columns[i]))
        pairings.update(fresh)
        level = list(fresh.items())
    return tuple(sorted(pairings, key=height_key))


def rank(vectors: Iterable[Vector]) -> int:
    """Rank over the rationals, by Gauss-Jordan elimination on fractions."""
    rows = [[Q(x) for x in v] for v in vectors]
    found = 0
    for col in range(max(map(len, rows), default=0)):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        lead = rows[found]
        for r, row in enumerate(rows):
            if r != found and row[col]:
                f = row[col] / lead[col]
                rows[r] = [x - f * y for x, y in zip(row, lead)]
        found += 1
    return found


def knop_reduce(rs: RootSystem, pi_l: Iterable[int],
                delta_l_plus: Iterable[Vector], omega: Iterable[Vector],
                choose: Optional[Callable] = None) -> ThetaWitness:
    """Run the highest-weight reduction on a weight multiset.

    ``choose`` picks among the maximal weights at each step (ascending lex
    order); the default takes the lexicographically largest.  The verdict
    and the number of picked weights are independent of this choice.
    """
    pi = tuple(sorted(set(pi_l)))
    dl = tuple(tuple(v) for v in delta_l_plus)
    pool = Counter(tuple(v) for v in omega)
    theta: list[Vector] = []
    trace: list[ReductionStep] = []
    while pool:
        steps = [a - 1 for a in pi]
        maximal = sorted(
            w for w in pool
            if all(w[:i] + (w[i] + 1,) + w[i + 1:] not in pool for i in steps))
        if not maximal:
            raise InvariantViolation(f"no maximal weight in {sorted(pool)}")
        w = choose(maximal) if choose is not None else maximal[-1]
        pairings = {gamma: rsmod.coroot_pairing(rs, gamma, w) for gamma in dl}
        if any(v < 0 for v in pairings.values()):
            raise InvariantViolation(f"picked weight {w} is not dominant")
        pi_m = tuple(a for a in pi
                     if sum(map(mul, rs.cartan[a - 1], w)) == 0)
        dropped = [gamma for gamma in dl if pairings[gamma] > 0]
        removals = [w] + [tuple(x - y for x, y in zip(w, gamma))
                          for gamma in dropped]
        removed = []
        for v in removals:
            if pool[v] > 0:
                pool[v] -= 1
                if pool[v] == 0:
                    del pool[v]
                removed.append(v)
        theta.append(w)
        trace.append(ReductionStep(w, pi_m, tuple(removed)))
        pi = pi_m
        dl = tuple(gamma for gamma in dl if pairings[gamma] == 0)
    spherical = rank(theta) == len(theta)
    return ThetaWitness(tuple(theta), spherical,
                        len(theta) if spherical else None, tuple(trace))


def fiber_extreme(L: LeviDatum, lam: Vector, sign: int) -> Vector:
    """The member of a positive C-root's fiber that no Levi simple root
    raises (``sign=+1``) or lowers (``sign=-1``) within the fiber."""
    # a Levi simple root keeps the restriction, so a raised or lowered
    # member is a root exactly when it lies in the same fiber
    fib = L.fiber(lam)
    members = frozenset(fib)
    steps = [a - 1 for a in L.levi]
    found = None
    for delta in fib:
        if all(delta[:i] + (delta[i] + sign,) + delta[i + 1:] not in members
               for i in steps):
            if found is not None:
                raise InvariantViolation(f"fiber {fib} has two extremes")
            found = delta
    if found is None:
        raise InvariantViolation(f"fiber {fib} has no extreme element")
    return found


def decompositions(L: LeviDatum) -> dict[Vector, list[tuple[Vector, Vector]]]:
    """Every positive C-root mapped to its pairs ``(a, b)``, ``a + b`` the
    root and ``a <= b``, from one double loop over the positive C-roots."""
    phi = L.phi_plus
    out: dict[Vector, list[tuple[Vector, Vector]]] = {lam: [] for lam in phi}
    for i, a in enumerate(phi):
        for b in phi[i:]:
            total = tuple(x + y for x, y in zip(a, b))
            if total in out:
                out[total].append((a, b))
    return out


# --- the set-based limit construction -------------------------------------

def _pu(L: LeviDatum) -> frozenset[Vector]:
    """Roots of the opposite nilradical: negatives of the fiber members."""
    return frozenset(_negative(beta) for lam in L.phi_plus
                     for beta in L.fiber(lam))


def _negative(beta: Vector) -> Vector:
    return tuple(-x for x in beta)


def _in_levi(L: LeviDatum, beta: Vector) -> bool:
    """Whether a root, positive or negative, restricts to zero."""
    return not any(beta[a - 1] for a in L.complement)


class DeltaString(NamedTuple):
    top: Vector
    p: int
    lines: tuple[Vector, ...]


class DegenerationResult(NamedTuple):
    source: SubgroupDatum
    lam: Vector
    delta: Vector
    target: SubgroupDatum
    pi_m: tuple[int, ...]
    u_infinity: tuple[Vector, ...]
    shift_map: dict
    limit_lines: tuple[Vector, ...]


#: each system's line weights, sorted by descending height, then
#: lexicographically, built here rather than read from ``RootSystem.lines``
_sorted_lines: dict[RootSystem, dict[Vector, Vector]] = {}


def _lines(rs: RootSystem) -> dict[Vector, Vector]:
    lines = _sorted_lines.get(rs)
    if lines is None:
        roots = set(rs.positive_roots)
        roots |= {tuple(-x for x in r) for r in rs.positive_roots}
        weights = sorted(roots | {rs.zero()}, key=lambda r: (-sum(r), r))
        lines = _sorted_lines[rs] = {w: w for w in weights}
    return lines


def delta_strings(rs: RootSystem, delta: Vector) -> tuple[DeltaString, ...]:
    """All root lines plus the Cartan line, partitioned into delta-strings;
    the lines are walked by descending height, then lexicographically."""
    if delta not in rs.positive_set:
        raise LambdaNotActive(f"{delta} is not a positive root")
    lines = _lines(rs)
    form, delta_norm = rsmod.pairing_form(rs, delta), rsmod.norm(rs, delta)
    strings = []
    seen = 0
    for alpha in lines:
        if not any(alpha) or tuple(map(add, alpha, delta)) in lines:
            continue
        p, remainder = divmod(sum(alpha[i] * x for i, x in form), delta_norm)
        if remainder:
            raise InvariantViolation(f"non-integral coroot pairing for {delta}")
        if p < 0:
            raise InvariantViolation(f"negative string length at top {alpha}")
        string = []
        line = alpha
        for i in range(p + 1):
            if i:
                line = lines.get(tuple(map(sub, line, delta)))
            if line is None:
                raise InvariantViolation(f"string through {alpha} leaves the roots")
            string.append(line)
        seen += len(string)
        strings.append(DeltaString(alpha, p, tuple(string)))
    if seen != len(lines):
        raise InvariantViolation("delta-strings do not partition the roots")
    return tuple(strings)


def degenerate(H: SubgroupDatum, lam: Vector, check: bool = True) -> DegenerationResult:
    """Degenerate a datum along one of its active roots, on sets of weights."""
    lam = tuple(lam)
    if lam not in H.psi:
        raise LambdaNotActive(f"{lam} is not active in {H!r}")
    rs, L = H.rs, H.L
    delta = L.hat(lam)
    pu = _pu(L)
    h_perp = pu | set(H.u_roots)

    shift: dict[Vector, Vector] = {}
    limit: list[Vector] = []
    for string in delta_strings(rs, delta):
        members = [i for i, w in enumerate(string.lines) if w in h_perp]
        base = string.p - len(members) + 1
        for j, i in enumerate(members):
            target_line = string.lines[base + j]
            shift[string.lines[i]] = target_line
            limit.append(target_line)

    moved = {i + 1 for i, _ in rsmod.pairing_form(rs, delta)}
    pi_m = tuple(a for a in sorted(L.levi) if a not in moved)
    u_inf = sorted(
        (w for w in limit
         if any(w) and min(w) >= 0 and not _in_levi(L, w)),
        key=height_key)

    L_target = levi_datum(rs, pi_m)
    psi_target = sorted({L_target.restrict(beta) for beta in u_inf})
    target = make_subgroup(L_target, psi_target)

    result = DegenerationResult(H, lam, delta, target, pi_m,
                                tuple(u_inf), shift, tuple(limit))
    if check:
        check_limit_structure(result, pu)
    return result


def check_limit_structure(d: DegenerationResult, pu: frozenset) -> None:
    H, rs, L = d.source, d.source.rs, d.source.L
    limit_roots = {w for w in d.limit_lines if any(w)}
    cartan_count = sum(1 for w in d.limit_lines if not any(w))
    if cartan_count != 1:
        raise InvariantViolation("limit must contain the Cartan line exactly once")
    if len(d.limit_lines) != len(pu) + len(H.u_roots):
        raise InvariantViolation("limit changed dimension")

    # the opposite nilradical survives untouched
    if not pu <= limit_roots:
        raise InvariantViolation("limit lost part of the opposite nilradical")

    # Levi part of the limit: negatives of the Levi roots moved by delta
    levi_part = {r for r in limit_roots if _in_levi(L, r)}
    expected = set()
    form = rsmod.pairing_form(rs, d.delta)
    for gamma in L.delta_l_plus:
        value = sum(gamma[i] * x for i, x in form)
        if value < 0:
            raise InvariantViolation("highest fiber weight not Levi-dominant")
        if value > 0:
            expected.add(_negative(gamma))
    if levi_part != expected:
        raise InvariantViolation("limit Levi part has the wrong shape")

    # the new module is a union of full fibers
    target = d.target
    fiber_union = set()
    for mu in target.psi:
        fiber_union.update(target.L.fiber(mu))
    if fiber_union != set(d.u_infinity):
        raise InvariantViolation("limit module is not fiber-saturated")

    # dim N = dim H + 1, in root-counting form
    dl = len(L.delta_l_plus)
    dm = len(target.L.delta_l_plus)
    total = len(rs.positive_roots)
    lhs = 2 * dl + (total - dl) - len(H.u_roots) + 1
    rhs = 2 * dm + (total - dm) - len(d.u_infinity)
    if lhs != rhs:
        raise InvariantViolation("degeneration dimension bookkeeping failed")

    spherical, rank = is_spherical_and_rank(H)
    if spherical:
        t_spherical, t_rank = is_spherical_and_rank(target)
        if not t_spherical or t_rank != rank - 1:
            raise InvariantViolation("rank did not drop by exactly one")


# --- Luna's list ---------------------------------------------------------------

def _luna_shapes(kind: str, m: int) -> set[tuple[int, ...]]:
    """The spherical roots Luna's list allows on a connected support of
    type ``kind`` and rank m, as coefficients in standard order (for G2,
    only the one shape the tables produce)."""
    if kind == "A":
        extra = {1: {(2,)}, 3: {(1, 2, 1)}}.get(m, set())
        return {(1,) * m} | extra
    if kind == "B":
        return {(1,) * m, (2,) * m} | ({(1, 2, 3)} if m == 3 else set())
    if kind == "C":
        return {(1,) + (2,) * (m - 2) + (1,)}
    if kind == "D":
        return {(2,) * (m - 2) + (1, 1)}
    return {"F": {(1, 2, 3, 2)}, "G": {(1, 1)}}[kind]


def _components(cartan, nodes: list[int]) -> list[set[int]]:
    """The node sets of the connected pieces of the diagram on ``nodes``."""
    left, out = set(nodes), []
    while left:
        piece, todo = set(), [min(left)]
        while todo:
            a = todo.pop()
            if a not in piece:
                piece.add(a)
                todo += [b for b in left if b != a and cartan[a - 1][b - 1]]
        left -= piece
        out.append(piece)
    return out


def _connected_type(cartan, nodes: list[int]):
    """The type of a connected Dynkin diagram on ``nodes`` (1-based), with
    every ordering of its nodes in that type's standard numbering; None
    unless it is a path of type A, B, C, F4 or G2 or a fork of type D."""
    def bond(a, b):
        return cartan[a - 1][b - 1] * cartan[b - 1][a - 1]

    def short(a, b):  # a is the shorter node of a double bond to b
        return cartan[a - 1][b - 1] == -2

    nbrs = {a: [b for b in nodes if b != a and bond(a, b)] for a in nodes}

    def walk(start, away):
        path = [start]
        while True:
            step = [b for b in nbrs[path[-1]] if b != away]
            if len(step) != 1:
                return tuple(path)
            away = path[-1]
            path.append(step[0])

    if len(nodes) == 1:
        return "A", [tuple(nodes)]
    forks = [a for a in nodes if len(nbrs[a]) >= 3]
    if not forks:
        path = walk(next(a for a in nodes if len(nbrs[a]) == 1), None)
        orients = [path, path[::-1]]
        bonds = {bond(a, b) for a, b in zip(path, path[1:])}
        if bonds == {1}:
            return "A", orients
        if bonds == {3}:
            return "G", orients
        found = []
        for p in orients:
            b = [bond(x, y) for x, y in zip(p, p[1:])]
            if b == [1] * (len(p) - 2) + [2]:
                found.append(("B" if short(p[-1], p[-2]) else "C", [p]))
            elif b == [1, 2, 1] and short(p[2], p[1]):
                found.append(("F", [p]))
        # a lone double bond reads as B2 = C2, whose list is B2's
        return min(found, default=None)
    if len(forks) > 1 or len(nbrs[forks[0]]) > 3 or any(
            bond(a, b) != 1 for a in nodes for b in nbrs[a]):
        return None
    centre = forks[0]
    arms = [walk(b, centre) for b in nbrs[centre]]
    orders = []
    for i, arm in enumerate(arms):
        leaves = [a for j, a in enumerate(arms) if j != i]
        if all(len(leaf) == 1 for leaf in leaves):
            orders.append(arm[::-1] + (centre,) + leaves[0] + leaves[1])
    return ("D", orders) if orders else None


def luna_shape(cartan, root: Vector) -> Optional[str]:
    """The type of a spherical root's support (``"A3"``, ``"A1xA1"``, ...)
    when the root has a shape Luna's list allows there, else None.

    ``cartan`` is the Cartan matrix of the ambient system, ``root`` the
    coefficients on its simple roots.
    """
    support = [i + 1 for i, x in enumerate(root) if x]
    if not support or min(root) < 0:
        return None
    pieces = _components(cartan, support)
    if len(pieces) == 2 and len(support) == 2:
        return "A1xA1" if {root[a - 1] for a in support} == {1} else None
    found = _connected_type(cartan, support) if len(pieces) == 1 else None
    if found is None:
        return None
    kind, orders = found
    shapes = _luna_shapes(kind, len(support))
    if any(tuple(root[a - 1] for a in order) in shapes for order in orders):
        return f"{kind}{len(support)}"
    return None
