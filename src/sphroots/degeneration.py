"""Additive degeneration of a subgroup datum along one active root.

Conjugating the subalgebra by the one-parameter group of the lowest root
vector for delta (the highest fiber weight of the chosen active root) and
passing to the limit shifts every line of the orthogonal complement to the
bottom of its delta-string.  The normalizer of the limit is again a
Levi-split datum, with one spherical root fewer; everything here is pure
line bookkeeping on root vectors.

A torus-stable line is named by its weight: a root for a root line, and
the zero weight for the line spanned by the coroot of delta.  Strings,
limits and blocks hold lines as bits of one mask, numbered as
:attr:`RootSystem.lines` numbers them, and a delta-string is the OR of its
lines, ordered by that numbering; weights are decoded only for output.
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


DeltaStrings = namedtuple("DeltaStrings", "single_mask long")
DeltaStrings.__doc__ = """The delta-string partition of a system's lines.

``single_mask``, an int, is the OR of the lines of the one-line strings,
which no limit moves.  ``long`` holds each string of two or more lines,
a simple s(delta)-module, as one int, the OR of its lines; the line
numbering alone orders a string from its bottom (:func:`_bottom_lines`).
Strings are listed by the bit of their tops.
"""


def delta_strings(rs: RootSystem, delta: Vector) -> DeltaStrings:
    """Partition all root lines plus the Cartan line into delta-strings.

    Tops are the nonzero lines that no line steps down to by delta (so
    -delta is no top: its string is the one topped by delta), and each
    string is walked from its top through the step-down map, built once
    on the integer codes of the lines (:attr:`RootSystem.code_bits`).
    Every root appears in exactly one string, and each walked string
    must descend in the order :func:`_bottom_lines` reads off its bits.
    Tops are walked in bit order.  The partition is built once per
    (system, delta) and memoized on the system.
    """
    if delta not in rs.positive_set:
        raise LambdaNotActive(f"{delta} is not a positive root")
    if delta in rs._delta_strings:
        return rs._delta_strings[delta]
    weights = rs.lines
    # each top is paired through the form's nonzero terms only, so the
    # cost does not grow with the rank; the form has a term, as delta
    # pairs with its own coroot, and a slice picks a single one as a tuple
    indices, coeffs = zip(*rsmod.pairing_form(rs, delta))
    pick = (itemgetter(*indices) if len(indices) > 1
            else itemgetter(slice(indices[0], indices[0] + 1)))
    delta_norm = rsmod.norm(rs, delta)
    step, code_bits = rs.codes[delta] - rs.zero_code, rs.code_bits
    n = len(rs.positive_roots)
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
    for b, alpha in enumerate(weights):
        if b in stepped_to:
            continue
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
            whole = 0
            for c in string:
                whole |= 1 << c
            # what is left below each line is the string's bottom lines
            below = whole
            for c in string[:-1]:
                below ^= 1 << c
                if _bottom_lines(whole, below.bit_count(), n) != below:
                    raise InvariantViolation(
                        f"string through {alpha} is out of line order")
            long.append(whole)
        else:
            single_mask |= 1 << b
    if seen != len(weights):
        raise InvariantViolation("delta-strings do not partition the roots")
    rs._delta_strings[delta] = DeltaStrings(single_mask, tuple(long))
    return rs._delta_strings[delta]


def _bottom_lines(string: int, k: int, n: int) -> int:
    """The OR of the bottom k lines of a delta-string, given as the OR of
    its lines, in a system of n positive roots.

    Heights fall down a string and :attr:`RootSystem.lines` numbers lines
    by height, so the bits alone order a string.  From its bottom come its
    negative lines, the deepest at the highest bit in n..2n-1, then the
    Cartan line at bit 2n, then its positive lines, the lowest at the
    lowest bit; the top lines are dropped in the reverse order.
    """
    drop = string.bit_count() - k
    while drop:
        positive = string & (1 << n) - 1
        if positive:
            string ^= 1 << positive.bit_length() - 1
        elif string >> 2 * n:
            string ^= 1 << 2 * n
        else:
            string &= string - 1
        drop -= 1
    return string


LeviStep = namedtuple("LeviStep", "target levi_part")
LeviStep.__doc__ = """What a degeneration along delta does to a Levi datum.

``target`` is the :class:`LeviDatum` of the Levi nodes whose simple
coroots vanish on delta, the Levi of every limit along delta.
``levi_part``, an int, is the mask of the Levi lines of such a limit:
the negative of each positive Levi root gamma with <gamma, delta^vee>
> 0, at line ``b + N`` for gamma at line b.
"""


def levi_step(L: LeviDatum, delta: Vector) -> LeviStep:
    """The :class:`LeviStep` of ``L`` along ``delta``, derived on first use
    and memoized on ``L``.  Raises InvariantViolation, and memoizes
    nothing, when delta pairs negatively with a positive Levi root."""
    step = L._steps.get(delta)
    if step is None:
        rs = L.rs
        n = len(rs.positive_roots)
        form = rsmod.pairing_form(rs, delta)
        levi_part = 0
        # the positive Levi lines come first in the mask, in the order of
        # delta_l_plus
        for b, gamma in zip(rsmod.mask_bits(L.levi_mask), L.delta_l_plus):
            value = sum(gamma[i] * x for i, x in form)
            if value < 0:
                raise InvariantViolation(
                    "highest fiber weight not Levi-dominant")
            if value > 0:
                levi_part |= 1 << (b + n)
        moved = {i + 1 for i, _ in form}
        target = levi_datum(rs, [a for a in L.levi if a not in moved])
        step = L._steps[delta] = LeviStep(target, levi_part)
    return step


DegenerationResult = namedtuple(
    "DegenerationResult",
    "source lam delta target u_infinity limit limit_dim")
DegenerationResult.__doc__ = """Everything the limit produces: the new datum
and the limit lines.

``source`` and ``target`` are the :class:`SubgroupDatum` before and after
the limit; ``lam`` is the active root degenerated along and ``delta`` its
highest fiber weight (tuples); ``u_infinity``, a tuple of positive
roots, holds the limit's lines outside the source's Levi, which restrict
to the target's module; ``limit``, an int, is the mask of the limit's lines and
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
    # h_perp, and a string that h_perp fills or misses keeps its lines
    partition = delta_strings(rs, delta)
    limit, dim = h_perp, h_perp.bit_count()
    n = len(rs.positive_roots)
    for string in partition.long:
        part = h_perp & string
        if part and part != string:
            limit ^= part ^ _bottom_lines(string, part.bit_count(), n)

    step = levi_step(L, delta)
    # positive bits decode in (height, lex) order
    u_inf = tuple(rs.positive_roots[b]
                  for b in rsmod.mask_bits(limit & L.outside_mask))

    restrict = step.target.restrict
    target = make_subgroup(step.target, {restrict(beta) for beta in u_inf})

    result = DegenerationResult(H, lam, delta, target, u_inf, limit, dim)
    _check_limit_structure(result)
    return result


def _shifted_lines(d: DegenerationResult, mask: int) -> list[tuple[int, int]]:
    """Each line of ``mask``, a mask inside the source's orthogonal
    complement, paired with its line in the limit, both as one-bit masks.

    The rule is :func:`degenerate`'s: the complement lines of a string
    move to its bottom, keeping their order, so a line with k complement
    lines below it moves to the line with k lines below it; a one-line
    string keeps its line.
    """
    H = d.source
    h_perp = H.L.pu_mask | H.u_mask
    partition = delta_strings(H.rs, d.delta)
    n = len(H.rs.positive_roots)
    pairs = [(1 << b, 1 << b)
             for b in rsmod.mask_bits(mask & partition.single_mask)]
    for string in partition.long:
        if mask & string:
            bottoms = [_bottom_lines(string, k, n)
                       for k in range(string.bit_count() + 1)]
            for below, upto in zip(bottoms, bottoms[1:]):
                line = upto ^ below
                if mask & line:
                    k = (h_perp & below).bit_count()
                    pairs.append((line, bottoms[k + 1] ^ bottoms[k]))
    return pairs


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
    if d.limit_dim != L.pu_mask.bit_count() + H.u_mask.bit_count():
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
    lhs = 2 * dl + (total - dl) - H.u_mask.bit_count() + 1
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
    block = sm_decomposition(d.source).components[i]
    if d.lam in block:
        raise LambdaNotActive("cannot track the pivot's own block")
    mask = 0
    for mu in block:
        mask |= d.source.L.fiber_mask(mu)
    images = 0
    for _, image in _shifted_lines(d, mask):
        images |= image
    images &= d.target.u_mask
    if not images:
        raise InvariantViolation(f"block {block} has no image in the limit")
    fiber_mask = d.target.L.fiber_mask
    landed = {j for j, tb in enumerate(sm_decomposition(d.target).components)
              if any(images & fiber_mask(mu) for mu in tb)}
    if len(landed) != 1:
        raise InvariantViolation(f"block {block} straddles target blocks {landed}")
    return landed.pop()
