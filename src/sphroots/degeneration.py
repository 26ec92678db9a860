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

from typing import NamedTuple

from . import rootsystem as rsmod
from .croots import levi_datum
from .errors import InvariantViolation, LambdaNotActive
from .rootsystem import RootSystem, Vector
from .sphericity import is_spherical_and_rank
from .subgroup import SubgroupDatum, make_subgroup, sm_decomposition


class DeltaString(NamedTuple):
    """The line string of one simple s(delta)-module, top weight first.

    ``bits[i]`` is the bit, in the numbering of :attr:`RootSystem.lines`,
    of the line of weight ``top - i*delta``, ``top`` being the string's top
    weight: a root, or the zero weight of the Cartan line (possible only in
    the string topped by delta itself).  ``mask`` is the OR of those bits.
    """

    bits: tuple[int, ...]
    mask: int


class DeltaStrings(NamedTuple):
    """The delta-string partition of a system's lines.

    ``strings`` holds every string, in the order of :func:`delta_strings`;
    ``single_mask`` is the OR of the masks of its one-line strings, whose
    lines no limit moves, and ``long`` holds its strings of two or more
    lines, in the same order.
    """

    strings: tuple[DeltaString, ...]
    single_mask: int
    long: tuple[DeltaString, ...]


def delta_strings(rs: RootSystem, delta: Vector) -> DeltaStrings:
    """Partition all root lines plus the Cartan line into delta-strings.

    Tops are the nonzero lines that no line steps down to by delta (so
    -delta is no top: its string is the one topped by delta), and each
    string is walked from its top through the step-down map, built once
    on the integer codes of the lines (:attr:`RootSystem.code_bits`).
    Every root appears in exactly one string.  Strings come by descending
    height of their tops, then lexicographically, and hold the bits of
    their lines.  The partition is built once per (system, delta) and
    memoized on the system.
    """
    if delta not in rs.positive_set:
        raise LambdaNotActive(f"{delta} is not a positive root")
    if delta in rs._delta_strings:
        return rs._delta_strings[delta]
    bit = rs.lines.bit
    form, delta_norm = rsmod.pairing_form(rs, delta), rsmod.norm(rs, delta)
    step, code_bits = rs.codes[delta] - rs.zero_code, rs.code_bits
    down = {}
    for code, b in code_bits.items():
        c = code_bits.get(code - step)
        if c is not None:
            down[b] = c
    # delta steps down to the zero weight, so the zero weight is no top
    stepped_to = set(down.values())
    strings = []
    long = []
    single_mask = 0
    seen = 0
    for alpha, b in bit.items():
        if b in stepped_to:
            continue
        p, remainder = divmod(sum(alpha[i] * x for i, x in form), delta_norm)
        if remainder:
            raise InvariantViolation(f"non-integral coroot pairing for {delta}")
        if p < 0:
            raise InvariantViolation(f"negative string length at top {alpha}")
        string = [b]
        mask = 1 << b
        while b in down:
            b = down[b]
            string.append(b)
            mask |= 1 << b
        if len(string) != p + 1:
            raise InvariantViolation(
                f"string through {alpha} has {len(string)} lines, not {p + 1}")
        seen += len(string)
        strings.append(DeltaString(tuple(string), mask))
        if p:
            long.append(strings[-1])
        else:
            single_mask |= mask
    if seen != len(bit):
        raise InvariantViolation("delta-strings do not partition the roots")
    rs._delta_strings[delta] = DeltaStrings(tuple(strings), single_mask,
                                            tuple(long))
    return rs._delta_strings[delta]


class DegenerationResult(NamedTuple):
    """Everything the limit produces: the new datum and the limit lines.

    ``limit`` is the mask of the limit's lines and ``limit_dim`` the number
    of lines shifted into it, one per line of the orthogonal complement.
    """

    source: SubgroupDatum
    lam: Vector
    delta: Vector
    target: SubgroupDatum
    pi_m: tuple[int, ...]
    u_infinity: tuple[Vector, ...]
    limit: int
    limit_dim: int


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
        k = (h_perp & string.mask).bit_count()
        if k:
            for b in string.bits[-k:]:
                limit |= 1 << b

    moved = {i + 1 for i, _ in rsmod.pairing_form(rs, delta)}
    pi_m = tuple(a for a in sorted(L.levi) if a not in moved)
    # positive bits decode in (height, lex) order
    u_inf = tuple(rs.positive_roots[b]
                  for b in rsmod.mask_bits(limit & L.outside_mask))

    L_target = levi_datum(rs, pi_m)
    psi_target = sorted({L_target.restrict(beta) for beta in u_inf})
    target = make_subgroup(L_target, psi_target)

    result = DegenerationResult(H, lam, delta, target, pi_m,
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
    bit = rs.lines.bit
    limit = d.limit
    if not limit >> bit[rs.zero()] & 1 or limit.bit_count() != d.limit_dim:
        raise InvariantViolation("limit must contain the Cartan line exactly once")
    if d.limit_dim != L.pu_mask.bit_count() + len(H.u_roots):
        raise InvariantViolation("limit changed dimension")

    # the opposite nilradical survives untouched
    if L.pu_mask & ~limit:
        raise InvariantViolation("limit lost part of the opposite nilradical")

    # Levi part: the negative of each Levi root moved by delta, line b + N
    n = len(rs.positive_roots)
    expected = 0
    form = rsmod.pairing_form(rs, d.delta)
    for gamma in L.delta_l_plus:
        value = sum(gamma[i] * x for i, x in form)
        if value < 0:
            raise InvariantViolation("highest fiber weight not Levi-dominant")
        if value > 0:
            expected |= 1 << (bit[gamma] + n)
    if limit & L.levi_mask != expected:
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
