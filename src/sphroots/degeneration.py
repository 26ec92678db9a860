"""Additive degeneration of a subgroup datum along one active root.

Conjugating the subalgebra by the one-parameter group of the lowest root
vector for delta (the highest fiber weight of the chosen active root) and
passing to the limit shifts every line of the orthogonal complement to the
bottom of its delta-string.  The normalizer of the limit is again a
Levi-split datum, with one spherical root fewer; everything here is pure
line bookkeeping on root vectors.

A torus-stable line is named by its weight: a root for a root line, and
the zero weight for the line spanned by the coroot of delta.  Strings and
limits hold lines as bits of :attr:`RootSystem.lines`; the map of each
moved line to its image is decoded only when asked for (:func:`shift_map`).
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter, mul

from . import rootsystem as rsmod
from .croots import LeviDatum, levi_datum
from .errors import InvariantViolation, LambdaNotActive
from .rootsystem import RootSystem, Vector
from .sphericity import is_spherical_and_rank
from .subgroup import SubgroupDatum, make_subgroup, sm_decomposition


DeltaString = namedtuple("DeltaString", "bits bottoms")
DeltaString.__doc__ = """The line string of one simple s(delta)-module of two
or more lines, top weight first.

``bits``, a tuple of ints, holds at ``bits[i]`` the bit, in the numbering
of :attr:`RootSystem.lines`, of the line of weight ``top - i*delta``,
``top`` being the string's top weight: a root, or the zero weight of the
Cartan line (possible only in the string topped by delta itself).
``bottoms``, a tuple of int masks, holds at ``bottoms[k]`` the OR of the
bits of its bottom k lines, so ``bottoms[-1]`` is the whole string.
"""

DeltaStrings = namedtuple("DeltaStrings", "single_mask long")
DeltaStrings.__doc__ = """The delta-string partition of a system's lines.

``single_mask``, an int, is the OR of the lines of the one-line strings,
which no limit moves, and ``long``, a tuple of :class:`DeltaString`,
holds the strings of two or more lines, by descending height of their
tops, then lexicographically.
"""


def delta_strings(rs: RootSystem, delta: Vector) -> DeltaStrings:
    """Partition all root lines plus the Cartan line into delta-strings.

    Tops are the nonzero lines that no line steps down to by delta (so
    -delta is no top: its string is the one topped by delta), and each
    string is walked from its top through the step-down map, built once
    on the integer codes of the lines (:attr:`RootSystem.code_bits`).
    Every root appears in exactly one string.  Tops are walked by
    descending height, then lexicographically (:attr:`LineNumbering.order`).
    The partition is built once per (system, delta) and memoized on the
    system.
    """
    if delta not in rs.positive_set:
        raise LambdaNotActive(f"{delta} is not a positive root")
    if delta in rs._delta_strings:
        return rs._delta_strings[delta]
    lines = rs.lines
    weights = lines.weights
    # each top is paired through the form's nonzero terms only, so the
    # cost does not grow with the rank; the form has a term, as delta
    # pairs with its own coroot, and a slice picks a single one as a tuple
    indices, coeffs = zip(*rsmod.pairing_form(rs, delta))
    pick = (itemgetter(*indices) if len(indices) > 1
            else itemgetter(slice(indices[0], indices[0] + 1)))
    delta_norm = rsmod.norm(rs, delta)
    step, code_bits = rs.codes[delta] - rs.zero_code, rs.code_bits
    down = {}
    for code, b in code_bits.items():
        c = code_bits.get(code - step)
        if c is not None:
            down[b] = c
    # delta steps down to the zero weight, so the zero weight is no top
    stepped_to = set(down.values())
    long = []
    single_mask = 0
    seen = 0
    for b in lines.order:
        if b in stepped_to:
            continue
        alpha = weights[b]
        p, remainder = divmod(sum(map(mul, pick(alpha), coeffs)),
                              delta_norm)
        if remainder:
            raise InvariantViolation(f"non-integral coroot pairing for {delta}")
        if p < 0:
            raise InvariantViolation(f"negative string length at top {alpha}")
        string = [b]
        while b in down:
            b = down[b]
            string.append(b)
        if len(string) != p + 1:
            raise InvariantViolation(
                f"string through {alpha} has {len(string)} lines, not {p + 1}")
        seen += p + 1
        if p:
            bottoms = [0]
            for c in reversed(string):
                bottoms.append(bottoms[-1] | 1 << c)
            long.append(DeltaString(tuple(string), tuple(bottoms)))
        else:
            single_mask |= 1 << b
    if seen != len(weights):
        raise InvariantViolation("delta-strings do not partition the roots")
    rs._delta_strings[delta] = DeltaStrings(single_mask, tuple(long))
    return rs._delta_strings[delta]


LeviStep = namedtuple("LeviStep", "pi_m target levi_part")
LeviStep.__doc__ = """What a degeneration along delta does to a Levi datum.

``pi_m``, a tuple of ints, holds the Levi nodes whose simple coroots
vanish on delta, ascending, and ``target`` is their :class:`LeviDatum`,
the Levi of every limit along delta.  ``levi_part``, an int, is the mask
of the Levi lines of such a limit: the negative of each positive Levi
root gamma with <gamma, delta^vee> > 0, at line ``bit[gamma] + N``.
"""


def levi_step(L: LeviDatum, delta: Vector) -> LeviStep:
    """The :class:`LeviStep` of ``L`` along ``delta``, derived on first use
    and memoized on ``L``.  Raises InvariantViolation, and memoizes
    nothing, when delta pairs negatively with a positive Levi root."""
    step = L._steps.get(delta)
    if step is None:
        rs = L.rs
        n = len(rs.positive_roots)
        bit = rs.lines.bit
        form = rsmod.pairing_form(rs, delta)
        levi_part = 0
        for gamma in L.delta_l_plus:
            value = sum(gamma[i] * x for i, x in form)
            if value < 0:
                raise InvariantViolation(
                    "highest fiber weight not Levi-dominant")
            if value > 0:
                levi_part |= 1 << (bit[gamma] + n)
        moved = {i + 1 for i, _ in form}
        pi_m = tuple(a for a in sorted(L.levi) if a not in moved)
        step = L._steps[delta] = LeviStep(pi_m, levi_datum(rs, pi_m),
                                          levi_part)
    return step


DegenerationResult = namedtuple(
    "DegenerationResult",
    "source lam delta target pi_m u_infinity limit limit_dim")
DegenerationResult.__doc__ = """Everything the limit produces: the new datum
and the limit lines.

``source`` and ``target`` are the :class:`SubgroupDatum` before and after
the limit; ``lam`` is the active root degenerated along and ``delta`` its
highest fiber weight (tuples); ``pi_m``, a tuple of ints, holds the
target's Levi nodes; ``u_infinity``, a tuple of positive roots, holds the
limit's lines outside the source's Levi, which restrict to the target's
module; ``limit``, an int, is the mask of the limit's lines and
``limit_dim``, an int, the number of lines shifted into it, one per line
of the orthogonal complement.
"""


def degenerate(H: SubgroupDatum, lam: Vector) -> DegenerationResult:
    """Degenerate a datum along one of its active roots.

    The limit is always verified against the structure the theory
    guarantees: the whole opposite nilradical survives, the Levi part
    of the limit is the expected nilpotent cone plus the Cartan line, the
    new module is a union of full fibers, dimensions grow by exactly one,
    and (for spherical sources) the rank drops by exactly one.
    """
    lam = tuple(lam)
    if lam not in H.psi:
        raise LambdaNotActive(f"{lam} is not active in {H!r}")
    rs, L = H.rs, H.L
    delta = L.hat(lam)
    h_perp = L.pu_mask | H.u_mask

    # the k lines of h_perp in a string shift to its bottom k lines; the
    # strings partition the lines, so the limit has one line per line of
    # h_perp, and a one-line string keeps its line
    partition = delta_strings(rs, delta)
    limit, dim = h_perp & partition.single_mask, h_perp.bit_count()
    for string in partition.long:
        bottoms = string.bottoms
        limit |= bottoms[(h_perp & bottoms[-1]).bit_count()]

    step = levi_step(L, delta)
    # positive bits decode in (height, lex) order
    u_inf = tuple(rs.positive_roots[b]
                  for b in rsmod.mask_bits(limit & L.outside_mask))

    restrict = step.target.restrict
    target = make_subgroup(step.target, {restrict(beta) for beta in u_inf})

    result = DegenerationResult(H, lam, delta, target, step.pi_m,
                                u_inf, limit, dim)
    _check_limit_structure(result)
    return result


def shift_map(d: DegenerationResult) -> dict[Vector, Vector]:
    """Each line of the source's orthogonal complement mapped to its line
    in the limit, by weight, rebuilt from the memoized delta-strings."""
    H = d.source
    weights = H.rs.lines.weights
    h_perp = H.L.pu_mask | H.u_mask
    partition = delta_strings(H.rs, d.delta)
    shift = {weights[b]: weights[b]
             for b in rsmod.mask_bits(h_perp & partition.single_mask)}
    for string in partition.long:
        bits = string.bits
        members = [b for b in bits if h_perp >> b & 1]
        for b, c in zip(members, bits[len(bits) - len(members):]):
            shift[weights[b]] = weights[c]
    return shift


#: count of limit-structure verifications that ran (each raises on failure)
checks_run = 0


def _check_limit_structure(d: DegenerationResult) -> None:
    """Verify a limit against the structure the theory guarantees; raise
    InvariantViolation on the first failure."""
    global checks_run
    checks_run += 1
    H, rs, L = d.source, d.source.rs, d.source.L
    limit, cartan_line = d.limit, 2 * len(rs.positive_roots)
    if not limit >> cartan_line & 1 or limit.bit_count() != d.limit_dim:
        raise InvariantViolation("limit must contain the Cartan line exactly once")
    if d.limit_dim != L.pu_mask.bit_count() + len(H.u_roots):
        raise InvariantViolation("limit changed dimension")

    # the opposite nilradical survives untouched
    if L.pu_mask & ~limit:
        raise InvariantViolation("limit lost part of the opposite nilradical")

    # Levi part: the negative of each Levi root moved by delta
    if limit & L.levi_mask != levi_step(L, d.delta).levi_part:
        raise InvariantViolation("limit Levi part has the wrong shape")

    # the new module is a union of full fibers
    target = d.target
    if target.u_mask != limit & L.outside_mask:
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


def track_component(d: DegenerationResult, i: int) -> int:
    """Follow one block of the source decomposition through the limit.

    The block must not contain the degeneration pivot.  Returns the index
    of the unique block of the target decomposition receiving the shifted
    fibers; straddling blocks or landing nowhere signals a bug.
    """
    source_blocks = sm_decomposition(d.source).components
    block = source_blocks[i]
    if d.lam in block:
        raise LambdaNotActive("cannot track the pivot's own block")
    u_inf = set(d.u_infinity)
    shift = shift_map(d)
    images = []
    for mu in block:
        for beta in d.source.L.fiber(mu):
            line = shift[beta]
            if line in u_inf:
                images.append(line)
    if not images:
        raise InvariantViolation(f"block {block} has no image in the limit")
    target_blocks = sm_decomposition(d.target).components
    landed = {
        j
        for j, tb in enumerate(target_blocks)
        for beta in images
        if d.target.L.restrict(beta) in tb
    }
    if len(landed) != 1:
        raise InvariantViolation(f"block {block} straddles target blocks {landed}")
    return landed.pop()
