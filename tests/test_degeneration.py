"""Delta-strings and the limit construction."""

import copy
import itertools

import pytest

import oracles
import sphroots.rootsystem as rsmod
from sphroots import degeneration
from sphroots.degeneration import degenerate, delta_strings, track_component
from sphroots.croots import levi_datum
from sphroots.errors import ClosureViolation, InvariantViolation, LambdaNotActive
from sphroots.solver import base_solve, optimized_solve
from sphroots.sphericity import is_spherical_and_rank, knop_reduce
from sphroots.subgroup import make_subgroup, sm_decomposition

from helpers import datum, system

#: the types whose degenerations are checked against the set-based reference
REFERENCE_TYPES = [("B", 4), ("C", 4), ("D", 5), ("F4", 4), ("G2", 2)]


def _lines(rs, bits):
    """The weights of a delta-string's lines, top first."""
    return [rs.lines[b] for b in bits]


def _string_bits(string, n):
    """The bits of a delta-string's lines, top first, decoded from the OR
    of its lines in a system of n positive roots: the positive lines from
    the highest bit down, then the Cartan line (bit 2n), then the negative
    lines from the lowest bit up."""
    bits = rsmod.mask_bits(string)
    return (tuple(b for b in reversed(bits) if b < n)
            + tuple(b for b in bits if b == 2 * n)
            + tuple(b for b in bits if n <= b < 2 * n))


def _strings(rs, delta):
    """The bits of every delta-string, one-line strings included, by
    descending height of their tops, then lexicographically."""
    partition = delta_strings(rs, delta)
    n = len(rs.positive_roots)
    strings = [(b,) for b in rsmod.mask_bits(partition.single_mask)]
    strings += (_string_bits(s, n) for s in partition.long)
    return sorted(strings, key=lambda s: (-sum(rs.lines[s[0]]),
                                          rs.lines[s[0]]))


def _line_bits(rs):
    """Every line weight mapped to its bit, negatives included."""
    return {w: b for b, w in enumerate(rs.lines)}


def _shift(d):
    """Each line of the source's orthogonal complement mapped to its line
    in the limit, by weight."""
    H = d.source
    weights = H.rs.lines
    return {weights[line.bit_length() - 1]: weights[image.bit_length() - 1]
            for line, image in degeneration._shifted_lines(
                d, H.L.pu_mask | H.u_mask)}


def test_delta_strings_b3_example():
    rs = rsmod.build("B", 3)
    strings = _strings(rs, (1, 1, 1))
    lengths = sorted(map(len, strings))
    assert lengths == [1, 1, 1, 1, 3, 3, 3, 3, 3]
    by_top = {_lines(rs, s)[0]: s for s in strings}
    alpha1 = by_top[(1, 0, 0)]
    assert _lines(rs, alpha1) == \
        [(1, 0, 0), (0, -1, -1), (-1, -2, -2)]
    delta_string = by_top[(1, 1, 1)]
    assert [w if any(w) else None for w in _lines(rs, delta_string)] == \
        [(1, 1, 1), None, (-1, -1, -1)]


def test_delta_strings_a2_example():
    rs = rsmod.build("A", 2)
    strings = _strings(rs, (1, 0))
    by_top = {_lines(rs, s)[0]: s for s in strings}
    assert _lines(rs, by_top[(1, 1)]) == [(1, 1), (0, 1)]


@pytest.mark.parametrize("family,n", [("B", 3), ("C", 3), ("G2", 2),
                                      ("F4", 4), ("A", 4), ("D", 4),
                                      ("E6", 6)])
def test_delta_strings_partition(family, n):
    rs = rsmod.build(family, n)
    for delta in rs.positive_roots:
        strings = _strings(rs, delta)
        lines = [w for s in strings for w in _lines(rs, s)]
        roots_seen = [w for w in lines if any(w)]
        cartans = sum(1 for w in lines if not any(w))
        assert cartans == 1
        assert len(roots_seen) == len(set(roots_seen)) == \
            2 * len(rs.positive_roots)


def test_delta_strings_built_once_per_system_and_delta():
    rs = rsmod.build("F4", 4)
    for delta in rs.positive_roots:
        assert delta_strings(rs, delta) is delta_strings(rs, delta)


def test_delta_strings_share_one_line_per_root():
    # every partition numbers its lines by the system's one line numbering
    rs = rsmod.build("C", 4)
    every_line = list(range(2 * len(rs.positive_roots) + 1))  # and Cartan
    for delta in rs.positive_roots:
        strings = _strings(rs, delta)
        assert sorted(b for s in strings for b in s) == every_line


@pytest.mark.parametrize("delta", [(0, -1, 0), (-1, -1, -1), (1, 0, 1),
                                   (0, 0, 0)])
def test_delta_strings_reject_non_positive_delta_every_time(delta):
    rs = rsmod.build("B", 3)
    for _ in range(2):
        with pytest.raises(LambdaNotActive):
            delta_strings(rs, delta)


def _corrupted(rs, **tables):
    """A copy of ``rs`` with no memoized strings and some tables replaced;
    the interned system is left alone."""
    bad = copy.copy(rs)
    bad._delta_strings = {}
    bad.__dict__.update(tables)
    return bad


def _corruptions(rs, delta):
    """Tables that break one check of the string build each (A2, delta =
    alpha_1, whose string runs alpha_1, 0, -alpha_1)."""
    form = rsmod.pairing_form(rs, delta)
    swap = {0: 2, 2: 0}
    assert rs.lines[:3] == ((0, 1), (1, 0), (1, 1))
    return [
        ({"_norms": {**rs._norms, delta: 3}}, "non-integral coroot pairing"),
        ({"_forms": {delta: tuple((i, -x) for i, x in form)}},
         "negative string length at top"),
        # the step down from alpha_1 finds no line
        ({"code_bits": {c: b for c, b in rs.code_bits.items()
                        if c != rs.zero_code}},
         r"string through \(1, 0\) has 1 lines, not 3"),
        # the Cartan line is walked but not counted
        ({"lines": rs.lines[:-1]}, "do not partition the roots"),
        # alpha_2 and alpha_1 + alpha_2 trade bits, so the string
        # alpha_1 + alpha_2, alpha_2 is walked up the line order
        ({"lines": (rs.lines[2], rs.lines[1], rs.lines[0]) + rs.lines[3:],
          "code_bits": {c: swap.get(b, b) for c, b in rs.code_bits.items()}},
         r"string through \(1, 1\) is out of line order"),
    ]


@pytest.mark.parametrize("case", range(5))
def test_delta_string_checks_catch_corrupt_tables(case):
    rs, delta = rsmod.build("A", 2), (1, 0)
    tables, message = _corruptions(rs, delta)[case]
    with pytest.raises(InvariantViolation, match=message):
        delta_strings(_corrupted(rs, **tables), delta)
    # the interned system still builds its strings
    assert [_lines(rs, s) for s in _strings(rs, delta)] == [
        [(1, 1), (0, 1)], [(1, 0), (0, 0), (-1, 0)], [(0, -1), (-1, -1)]]


def test_degenerate_first_pivot_b3():
    H = datum("B", 3, (3,), [(1,), (2,)])
    d = degenerate(H, (1,))
    assert d.delta == (1, 1, 1)
    assert d.target.L.levi == (2,)
    assert d.target.L.complement == (1, 3)
    assert d.target.psi == ((0, 1), (0, 2))
    assert d.u_infinity == ((0, 0, 1), (0, 1, 1), (0, 1, 2))


def test_checked_degeneration_computes_the_delta_form_once(monkeypatch):
    H = datum("B", 3, (3,), [(1,), (2,)])
    delta = H.L.hat((1,))
    # the strings and the Levi step along delta are memoized; drop them
    # too, so that the degeneration needs the form
    H.rs._forms.pop(delta, None)
    monkeypatch.setattr(H.rs, "_delta_strings", {})
    monkeypatch.setattr(H.L, "_steps", {})
    calls = []
    pairings = rsmod.pairings

    def counting(rs, w):
        calls.append(tuple(w))
        return pairings(rs, w)

    monkeypatch.setattr(rsmod, "pairings", counting)
    d = degenerate(H, (1,))
    assert d.delta == delta
    assert calls.count(delta) == 1


def test_degenerate_second_pivot_b3():
    H = datum("B", 3, (3,), [(1,), (2,)])
    d = degenerate(H, (2,))
    assert d.delta == (1, 2, 2)
    assert d.target.L.levi == (1,)
    assert d.target.L.complement == (2, 3)
    assert d.target.psi == ((0, 1), (1, 1))


def test_degenerate_full_fiber_shift():
    H = datum("B", 3, (2, 3), [(1, 1), (0, 1)])
    d = degenerate(H, (0, 1))
    assert d.delta == (0, 0, 1)
    assert d.target.L.levi == (1,)
    assert d.u_infinity == ((0, 1, 0), (1, 1, 0))  # the whole target fiber
    assert d.target.psi == ((1, 0),)
    # fiber lines moved by one step of delta
    shift = _shift(d)
    assert shift[(0, 1, 1)] == (0, 1, 0)
    assert shift[(1, 1, 1)] == (1, 1, 0)


def test_degenerate_to_parabolic():
    H = datum("A", 2, (1,), [(1,)])
    d = degenerate(H, (1,))
    assert d.delta == (1, 1)
    assert d.target.L.levi == ()
    assert d.u_infinity == ()
    assert d.target.psi == ()


def test_degenerate_requires_active_pivot():
    H = datum("B", 3, (3,), [(1,), (2,)])
    with pytest.raises(LambdaNotActive):
        degenerate(H, (3,))


def test_shift_monotonicity():
    # every moved line drops by a nonnegative multiple of delta
    for family, n, complement, psi in (
            ("B", 3, (3,), [(1,), (2,)]),
            ("C", 4, (1, 3), [(1, 0), (0, 1)]),
            ("F4", 4, (3,), [(1,), (3,)])):
        H = datum(family, n, complement, psi)
        for lam in H.psi:
            d = degenerate(H, lam)
            for src, line in _shift(d).items():
                if not any(line):
                    continue
                diff = tuple(a - b for a, b in zip(src, line))
                height = sum(diff)
                delta_height = sum(d.delta)
                assert height % delta_height == 0
                k = height // delta_height
                assert k >= 0
                assert diff == tuple(k * x for x in d.delta)


def test_track_component_examples():
    H = datum("B", 3, (2, 3), [(1, 1), (0, 1)])
    blocks = sm_decomposition(H).components
    assert blocks == (((0, 1),), ((1, 1),))
    d = degenerate(H, (0, 1))
    j = track_component(d, 1)
    assert sm_decomposition(d.target).components[j] == ((1, 0),)
    with pytest.raises(LambdaNotActive):
        track_component(d, 0)  # the pivot's own block

    H2 = datum("A", 2, (1, 2), [(1, 0), (0, 1)])
    d2 = degenerate(H2, (1, 0))
    j2 = track_component(d2, sm_decomposition(H2).components.index(((0, 1),)))
    assert sm_decomposition(d2.target).components[j2] == ((0, 1),)


def test_track_component_refuses_a_block_with_no_image():
    H = datum("B", 3, (2, 3), [(1, 1), (0, 1)])
    d = degenerate(H, (0, 1))
    # a limit whose module is empty receives none of block 1's lines
    empty = d._replace(u_infinity=(), target=make_subgroup(d.target.L, []))
    with pytest.raises(InvariantViolation, match="has no image in the limit"):
        track_component(empty, 1)


def test_track_component_refuses_a_block_landing_in_two_target_blocks():
    H = datum("B", 3, (2, 3), [(1, 1), (0, 1)])
    d = degenerate(H, (0, 1))
    # a target decomposition listing each block twice receives the
    # tracked block in two places
    blocks = sm_decomposition(d.target)
    target = copy.copy(d.target)
    target._blocks = blocks._replace(components=blocks.components * 2)
    with pytest.raises(InvariantViolation, match="straddles target blocks"):
        track_component(d._replace(target=target), 1)


@pytest.mark.parametrize("family,n,complement,psi", [
    ("B", 4, (4,), [(1,), (2,)]),
    ("C", 4, (1, 3), [(1, 0), (0, 1)]),
    ("D", 5, (1, 5), [(1, 0), (0, 1)]),
    ("E6", 6, (1, 6), [(1, 0), (0, 1)]),
])
def test_degeneration_checks_pass_along_full_orbits(family, n, complement, psi):
    # exercise every pivot at every level of the recursion with checks on
    H = datum(family, n, complement, psi)
    stack = [H]
    seen = set()
    while stack:
        current = stack.pop()
        if current in seen or len(current.psi) <= 1:
            continue
        seen.add(current)
        for lam in current.psi:
            d = degenerate(current, lam)
            stack.append(d.target)


def _reached(rs):
    """Every (datum, pivot) the default base-solve recursion degenerates,
    from every spherical datum with two active roots on every Levi of one
    system."""
    n = rs.rank
    stack = []
    for k in range(n):
        for levi in itertools.combinations(range(1, n + 1), k):
            L = levi_datum(rs, levi)
            for psi in itertools.combinations(L.phi_plus, 2):
                try:
                    H = make_subgroup(L, psi)
                except ClosureViolation:
                    continue
                if is_spherical_and_rank(H)[0]:
                    stack.append(H)
    seen = set()
    while stack:
        H = stack.pop()
        if H in seen or len(H.psi) <= 1:
            continue
        seen.add(H)
        for lam in H.psi[:2]:
            yield H, lam
            stack.append(degenerate(H, lam).target)


@pytest.mark.parametrize("family,n", REFERENCE_TYPES + [("E6+A1", 7)])
def test_degenerate_matches_set_based_reference(family, n):
    count = 0
    for H, lam in _reached(system(family, n)):
        got = degenerate(H, lam)
        want = oracles.degenerate(H, lam)
        assert got.target is want.target
        assert got.target.L.levi == want.pi_m
        assert got.u_infinity == want.u_infinity
        assert _shift(got) == want.shift_map
        weights = H.rs.lines
        assert sorted(weights[b] for b in rsmod.mask_bits(got.limit)) == \
            sorted(want.limit_lines)
        assert got.limit_dim == len(want.limit_lines)
        count += 1
    assert count >= 10


@pytest.mark.parametrize("family,n", REFERENCE_TYPES)
def test_delta_strings_match_set_based_reference(family, n):
    rs = rsmod.build(family, n)
    bit = _line_bits(rs)
    for delta in rs.positive_roots:
        want = [list(s.lines) for s in oracles.delta_strings(rs, delta)]
        assert [_lines(rs, s) for s in _strings(rs, delta)] == want
        # the limit reads one-line strings through one mask and walks the
        # longer ones (G2 has strings of four lines)
        partition = delta_strings(rs, delta)
        assert partition.single_mask == sum(
            1 << bit[s[0]] for s in want if len(s) == 1)
        # each long string is the OR of one of the reference's strings,
        # whose bottom k lines its bits give for every k
        long = {sum(1 << bit[w] for w in s): s for s in want if len(s) > 1}
        assert sorted(partition.long) == sorted(long)
        n = len(rs.positive_roots)
        for whole, s in long.items():
            for k in range(len(s) + 1):
                assert degeneration._bottom_lines(whole, k, n) == sum(
                    1 << bit[w] for w in s[len(s) - k:])


def test_code_table_matches_tuple_reference_at_large_rank():
    # at B32, C64 and D64 a code is a 32- or 64-byte integer; the derived
    # system E6 + A1 comes from from_cartan, with no type label
    e6a1 = system("E6+A1", 7)
    assert e6a1.type_label is None
    b32, c64, d64 = (rsmod.build(f, n) for f, n in
                     (("B", 32), ("C", 64), ("D", 64)))
    # at rank 64 the simple roots at both ends of the diagram and by its
    # branch node, and the highest root: one delta there costs about 0.1 s
    # between the reference and the package, even with the reference's
    # lines sorted once per system
    cases = [(e6a1, e6a1.positive_roots),
             (b32, (b32.simple_root(1), b32.simple_root(32),
                    b32.positive_roots[-1]))]
    cases += [(rs, tuple(map(rs.simple_root, (1, 2, 62, 63, 64)))
               + rs.positive_roots[-1:]) for rs in (c64, d64)]
    # the code table numbers the lines as :attr:`RootSystem.lines` does
    for rs in (e6a1, b32):
        assert {b: c for c, b in rs.code_bits.items()} == {
            b: int.from_bytes(bytes(x + rsmod.CODE_OFFSET for x in w), "little")
            for w, b in _line_bits(rs).items()}
    for rs, deltas in cases:
        for delta in deltas:
            assert [_lines(rs, s) for s in _strings(rs, delta)] == \
                [list(s.lines) for s in oracles.delta_strings(rs, delta)]
    # the reduction reads root weights' codes from the table at rank >= 20
    for family, n, complement, psi in (("C", 20, [20], [[1]]),
                                       ("D", 22, [1, 22], [[1, 0], [0, 1]])):
        H = datum(family, n, complement, psi)
        args = (H.rs, H.L.levi, H.L.delta_l_plus, H.u_roots)
        assert all(w in H.rs.codes for w in H.u_roots)
        assert knop_reduce(*args) == oracles.knop_reduce(*args), H


def test_base_solve_never_builds_a_shift_map(monkeypatch):
    def refuse(d, mask):
        raise AssertionError("lines shifted on the base_solve path")

    monkeypatch.setattr(degeneration, "_shifted_lines", refuse)
    H = datum("B", 5, (5,), [(1,), (2,)])
    # a choose_pair neither reads nor fills the solve memo, so this
    # recursion degenerates afresh
    result = base_solve(H, choose_pair=lambda psi: (psi[0], psi[1]))
    assert len(result.roots) == 5


@pytest.mark.parametrize("family,n,complement,psi", [
    ("B", 3, (2, 3), [(1, 1), (0, 1)]),
    ("D", 5, (2, 3), [(0, 1), (1, 2)]),
    ("E6", 6, (3, 5), [(0, 1), (1, 2)]),
])
def test_several_block_solve_reads_the_shift_map(monkeypatch, family, n,
                                                 complement, psi):
    calls = []
    shifted_lines = degeneration._shifted_lines

    def counting(d, mask):
        calls.append(d)
        return shifted_lines(d, mask)

    monkeypatch.setattr(degeneration, "_shifted_lines", counting)
    H = datum(family, n, complement, psi)
    assert not sm_decomposition(H).trivial
    want = base_solve(H).root_set
    assert optimized_solve(H, "compute").root_set == want
    assert optimized_solve(H, "table").root_set == want
    assert calls


# --- each limit-structure check, fed one corrupted limit ------------------

def _case():
    """A checked degeneration whose limit has roots of every kind, the
    line bits, and one line outside the limit."""
    H = datum("B", 4, (2, 4), [(1, 0), (0, 1)])
    d = degenerate(H, (0, 1))
    bit = _line_bits(H.rs)
    assert d.u_infinity and d.limit & H.L.levi_mask
    outside = next(w for w, b in bit.items() if not d.limit >> b & 1)
    return d, bit, outside


def _swap(d, bit, drop, add):
    """The limit with line ``drop`` exchanged for line ``add``."""
    return d._replace(limit=d.limit ^ (1 << bit[drop]) ^ (1 << bit[add]))


def _fails(d, message):
    with pytest.raises(InvariantViolation, match=message):
        degeneration._check_limit_structure(d)


def test_limit_check_passes_uncorrupted():
    d, _, _ = _case()
    degeneration._check_limit_structure(d)


def test_limit_check_catches_dropped_cartan_bit():
    d, bit, _ = _case()
    _fails(d._replace(limit=d.limit ^ (1 << bit[d.source.rs.zero()])),
           "Cartan line exactly once")


def test_limit_check_catches_lost_line():
    d, bit, _ = _case()
    lost = d.u_infinity[0]
    _fails(d._replace(limit=d.limit ^ (1 << bit[lost]),
                      limit_dim=d.limit_dim - 1),
           "limit changed dimension")


def test_limit_check_catches_dropped_pu_bit():
    d, bit, outside = _case()
    L = d.source.L
    pu_line = d.source.rs.lines[rsmod.mask_bits(L.pu_mask)[0]]
    _fails(_swap(d, bit, pu_line, outside),
           "lost part of the opposite nilradical")


def test_limit_check_catches_non_dominant_delta():
    d, _, _ = _case()
    # alpha_2 pairs negatively with the Levi root alpha_1
    _fails(d._replace(delta=d.source.rs.simple_root(2)),
           "highest fiber weight not Levi-dominant")


def test_limit_check_catches_extra_levi_bit():
    d, bit, _ = _case()
    L = d.source.L
    extra = L.delta_l_plus[0]
    assert not d.limit >> bit[extra] & 1
    _fails(_swap(d, bit, d.u_infinity[0], extra),
           "Levi part has the wrong shape")


def test_limit_check_catches_target_mask_off_by_one_bit():
    d, bit, _ = _case()
    target = copy.copy(d.target)
    target.u_mask ^= 1 << bit[d.u_infinity[0]]
    _fails(d._replace(target=target), "not fiber-saturated")


def test_limit_check_catches_dimension_off_by_one():
    d, _, _ = _case()
    _fails(d._replace(u_infinity=d.u_infinity[1:]),
           "dimension bookkeeping failed")


def test_limit_check_catches_rank_not_dropping(monkeypatch):
    d, _, _ = _case()
    verdicts = {d.source: (True, 2), d.target: (True, 2)}
    monkeypatch.setattr(degeneration, "is_spherical_and_rank",
                        verdicts.__getitem__)
    _fails(d, "rank did not drop by exactly one")
