"""Machine-readable classification tables and case matching.

Tables 1 through 9 list, per ambient simple type, the parabolic-and-active-
set data that are spherical with an indivisible factor structure, together
with the rank and the set of spherical roots.  Rows are code-level
constructors (index families are clearest as code); ``dump`` emits concrete
instantiations as JSON for external diffing.

Numbering used throughout this package:

  1  single active root, single complement node (all types)
  2  two active roots on one complement node: the B chain row and one F4 row
  3  type C, two complement nodes            (17 rows)
  4  type D, two complement nodes            (13 rows)
  5  types A and B, two complement nodes     (A: 8 rows, B: 4 rows)
  6  F4 (7 rows)   7  E6 (8 rows)   8  E7 (9 rows)   9  E8 (9 rows)

Row order inside each table follows the published order; table 5 lists the
A rows first.  Parameters are ``(k,)`` or ``(k, l)`` complement positions
where these are not forced by the rank.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator, Optional

from . import rootsystem as rsmod
from .errors import ParamsOutOfRange, UnclassifiedCase, UnclassifiedLeaf
from .rootsystem import Vector
from .subgroup import SubgroupDatum

Params = tuple[int, ...]


def _e(n: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(1, n + 1))


def _seg(n: int, i: int, j: int, c: int = 1) -> Vector:
    """c*(alpha_i + ... + alpha_j); empty ranges give the zero vector."""
    return tuple(c if i <= a <= j else 0 for a in range(1, n + 1))


def _add(*vs: Vector) -> Vector:
    return tuple(sum(col) for col in zip(*vs))


def _mk(n: int, idxs: Iterable[int]) -> Vector:
    """Vector with one unit per listed index (repeats give coefficient 2)."""
    out = [0] * n
    for i in idxs:
        out[i - 1] += 1
    return tuple(out)


def _units(n: int, lo: int, hi: int) -> list[Vector]:
    return [_e(n, i) for i in range(lo, hi + 1)]


RowSpec = namedtuple("RowSpec",
                     "table_id row_id family n_ok params_for build")
RowSpec.__doc__ = """The constructor of one table row.

``table_id`` and ``row_id`` are ints and ``family`` the type's name;
``n_ok(n)`` tells whether the row exists at rank n, ``params_for(n)``
lists its parameter tuples there, and ``build(n, params)`` returns
``(complement, psi, rank, sigma)``.
"""

RowInstance = namedtuple(
    "RowInstance",
    "table_id row_id family n params complement psi rank sigma")
RowInstance.__doc__ = """One table row at one rank and parameter tuple.

``table_id``, ``row_id``, ``n`` and ``rank`` are ints, ``family`` is the
type's name and ``params`` a tuple of ints; ``complement`` holds the
complement nodes (a tuple of ints), ``psi`` the active roots, sorted, and
``sigma`` the spherical roots, by height then lexicographically (tuples
of weights).
"""


def _instance(spec: RowSpec, n: int, params: Params) -> RowInstance:
    rsmod.normalize_type(spec.family, n)  # refuses ranks above MAX_RANK
    complement, psi, rank, sigma = spec.build(n, params)
    return RowInstance(
        spec.table_id, spec.row_id, spec.family, n, params,
        tuple(complement), tuple(sorted(psi)), rank,
        tuple(sorted(sigma, key=rsmod.height_key)))


def _no_params(n: int) -> list[Params]:
    return [()]


_ROWS: list[RowSpec] = []


def _row(table_id, row_id, family, n_ok, params_for=_no_params):
    """Register the decorated ``build(n, params)`` as one row, in order."""
    def register(build):
        _ROWS.append(RowSpec(table_id, row_id, family, n_ok, params_for, build))
        return build
    return register


# --- table 1: one active root on one complement node -----------------------

def _t1(row_id, family, n_ok, node, params_for=_no_params):
    """Register the table-1 row on node ``k = node(n, params)`` whose
    rank and roots the decorated ``fn(n, k)`` returns."""
    def wrap(fn):
        def build(n, params):
            k = node(n, params)
            rank, sigma = fn(n, k)
            return (k,), ((1,),), rank, sigma
        _row(1, row_id, family, n_ok, params_for)(build)
        return fn
    return wrap


@_t1(1, "A", lambda n: n >= 1, lambda n, p: p[0],
     lambda n: [(k,) for k in range(1, (n + 1) // 2 + 1)])
def _t1r1(n, k):  # (A_n, k), k <= (n+1)/2
    sigma = [_add(_e(n, i), _e(n, n + 1 - i)) for i in range(1, k)]
    sigma.append(_seg(n, k, n + 1 - k))
    return k, sigma


@_t1(2, "B", lambda n: n >= 3, lambda n, p: 1)
def _t1r2(n, k):  # (B_n, 1)
    return 2, [_e(n, 1), _seg(n, 2, n, 2)]


@_t1(3, "B", lambda n: n >= 3, lambda n, p: n)
def _t1r3(n, k):  # (B_n, n)
    return 1, [_seg(n, 1, n)]


@_t1(4, "C", lambda n: n >= 2, lambda n, p: 1)
def _t1r4(n, k):  # (C_n, 1)
    return 1, [_add(_e(n, 1), _seg(n, 2, n - 1, 2), _e(n, n))]


@_t1(5, "C", lambda n: n >= 4, lambda n, p: 2)
def _t1r5(n, k):  # (C_n, 2), n >= 4
    return 3, [_add(_e(n, 1), _e(n, 3)), _e(n, 2),
               _add(_e(n, 3), _seg(n, 4, n - 1, 2), _e(n, n))]


@_t1(6, "C", lambda n: n == 5, lambda n, p: 3)
def _t1r6(n, k):  # (C_5, 3)
    return 5, _units(n, 1, 5)


@_t1(7, "C", lambda n: n >= 6, lambda n, p: 3)
def _t1r7(n, k):  # (C_n, 3), n >= 6
    return 6, _units(n, 1, 5) + [_add(_e(n, 5), _seg(n, 6, n - 1, 2), _e(n, n))]


@_t1(8, "C", lambda n: n >= 6, lambda n, p: n - 2)
def _t1r8(n, k):  # (C_n, n-2), n >= 6
    return 6, _units(n, 1, 3) + [_e(n, n - 1), _e(n, n), _seg(n, 4, n - 2)]


@_t1(9, "C", lambda n: n >= 3, lambda n, p: n - 1)
def _t1r9(n, k):  # (C_n, n-1)
    return 2, [_add(_e(n, 1), _e(n, n)), _seg(n, 2, n - 1)]


@_t1(10, "C", lambda n: n >= 2, lambda n, p: n)
def _t1r10(n, k):  # (C_n, n)
    return n, [_seg(n, i, i, 2) for i in range(1, n)] + [_e(n, n)]


@_t1(11, "D", lambda n: n >= 4, lambda n, p: 1)
def _t1r11(n, k):  # (D_n, 1)
    return 2, [_e(n, 1), _add(_seg(n, 2, n - 2, 2), _e(n, n - 1), _e(n, n))]


@_t1(12, "D", lambda n: n >= 5 and n % 2 == 1, lambda n, p: n)
def _t1r12(n, k):  # (D_n, n), n odd
    m = (n - 1) // 2
    sigma = [_mk(n, (2 * i - 1, 2 * i, 2 * i, 2 * i + 1)) for i in range(1, m)]
    sigma.append(_mk(n, (n - 2, n - 1, n)))
    return m, sigma


@_t1(13, "D", lambda n: n >= 4 and n % 2 == 0, lambda n, p: n)
def _t1r13(n, k):  # (D_n, n), n even
    return n // 2, [_mk(n, (2 * i - 1, 2 * i, 2 * i, 2 * i + 1))
                    for i in range(1, n // 2)] + [_e(n, n)]


@_t1(14, "G2", lambda n: n == 2, lambda n, p: 1)
def _t1r14(n, k):  # (G_2, 1)
    return 1, [_mk(n, (1, 2))]


@_t1(15, "F4", lambda n: n == 4, lambda n, p: 3)
def _t1r15(n, k):  # (F_4, 3)
    return 2, [_mk(n, (1, 4)), _mk(n, (2, 3))]


@_t1(16, "F4", lambda n: n == 4, lambda n, p: 4)
def _t1r16(n, k):  # (F_4, 4)
    return 2, [_mk(n, (1, 2, 2, 3, 3, 3)), _e(n, 4)]


@_t1(17, "E6", lambda n: n == 6, lambda n, p: 6)
def _t1r17(n, k):  # (E_6, 6)
    return 2, [_mk(n, (1, 3, 4, 5, 6)), _mk(n, (2, 2, 3, 4, 4, 5))]


@_t1(18, "E7", lambda n: n == 7, lambda n, p: 7)
def _t1r18(n, k):  # (E_7, 7)
    return 3, [_mk(n, (1, 1, 2, 3, 3, 4, 4, 5)),
               _mk(n, (2, 3, 4, 4, 5, 5, 6, 6)), _e(n, 7)]


# --- table 2: two active roots on one complement node ----------------------

@_row(2, 1, "B", lambda n: n >= 3)
def _t2r1(n, params):  # (B_n, n, 2)
    sigma = [_mk(n, (i, i + 1)) for i in range(1, n)] + [_e(n, n)]
    return (n,), ((1,), (2,)), n, sigma


@_row(2, 2, "F4", lambda n: n == 4)
def _t2r2(n, params):  # (F_4, 3, 3)
    return (3,), ((1,), (3,)), 4, [_e(n, 1), _mk(n, (2, 3)), _e(n, 3), _e(n, 4)]


# --- tables 3-5: two complement nodes, classical types ----------------------

def _pair_row(table_id, row_id, family, n_ok, params_for, kl, pq_rs, rank_fn, sigma_fn):
    def build(n, params):
        k, l = kl(n, params)
        if not (1 <= k < l <= n):
            raise ParamsOutOfRange(f"complement ({k},{l}) out of range at n={n}")
        psi = tuple(sorted(pq_rs))
        return (k, l), psi, rank_fn(n, k, l), sigma_fn(n, k, l)
    _row(table_id, row_id, family, n_ok, params_for)(build)


def _ks(lo, hi_fn):
    return lambda n: [(k,) for k in range(lo, hi_fn(n) + 1)]


# table 3: type C
_pair_row(3, 1, "C", lambda n: n == 3, _no_params,
          lambda n, p: (1, 2), ((0, 1), (1, 1)),
          lambda n, k, l: 3, lambda n, k, l: _units(n, 1, 3))
_pair_row(3, 2, "C", lambda n: n >= 4, _no_params,
          lambda n, p: (1, 2), ((0, 1), (1, 1)),
          lambda n, k, l: 4,
          lambda n, k, l: _units(n, 1, 3) +
          [_add(_e(n, 3), _seg(n, 4, n - 1, 2), _e(n, n))])
_pair_row(3, 3, "C", lambda n: n == 4, _no_params,
          lambda n, p: (1, 3), ((1, 0), (0, 1)),
          lambda n, k, l: 4, lambda n, k, l: _units(n, 1, 4))
_pair_row(3, 4, "C", lambda n: n >= 5, _no_params,
          lambda n, p: (1, 3), ((1, 0), (0, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: _units(n, 1, 4) +
          [_add(_e(n, 4), _seg(n, 5, n - 1, 2), _e(n, n))])
_pair_row(3, 5, "C", lambda n: n >= 5, _no_params,
          lambda n, p: (1, n - 1), ((1, 0), (0, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: [_e(n, 1), _e(n, 2), _seg(n, 3, n - 2),
                           _e(n, n - 1), _e(n, n)])
_pair_row(3, 6, "C", lambda n: n >= 4, _no_params,
          lambda n, p: (1, n - 1), ((0, 1), (1, 1)),
          lambda n, k, l: 4,
          lambda n, k, l: [_e(n, 1), _e(n, 2), _seg(n, 3, n - 1), _e(n, n)])
_pair_row(3, 7, "C", lambda n: n >= 3, _no_params,
          lambda n, p: (1, n), ((1, 0), (1, 1)),
          lambda n, k, l: 3,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, n - 1), _e(n, n)])
_pair_row(3, 8, "C", lambda n: n == 4, _no_params,
          lambda n, p: (2, 3), ((1, 0), (1, 1)),
          lambda n, k, l: 4, lambda n, k, l: _units(n, 1, 4))
_pair_row(3, 9, "C", lambda n: n >= 5, _no_params,
          lambda n, p: (2, 3), ((1, 0), (1, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: _units(n, 1, 4) +
          [_add(_e(n, 4), _seg(n, 5, n - 1, 2), _e(n, n))])
_pair_row(3, 10, "C", lambda n: n >= 6, _ks(4, lambda n: n - 2),
          lambda n, p: (2, p[0]), ((1, 0), (1, 1)),
          lambda n, k, l: 6,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, l - 2), _e(n, l - 1),
                           _e(n, l), _e(n, l + 1),
                           _add(_e(n, l + 1), _seg(n, l + 2, n - 1, 2), _e(n, n))])
_pair_row(3, 11, "C", lambda n: n >= 5, _no_params,
          lambda n, p: (2, n - 1), ((1, 0), (1, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, n - 3), _e(n, n - 2),
                           _e(n, n - 1), _e(n, n)])
_pair_row(3, 12, "C", lambda n: n >= 6, _ks(2, lambda n: n - 4),
          lambda n, p: (p[0], p[0] + 2), ((1, 0), (0, 1)),
          lambda n, k, l: 6,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, k), _e(n, k + 1),
                           _e(n, k + 2), _e(n, k + 3),
                           _add(_e(n, k + 3), _seg(n, k + 4, n - 1, 2), _e(n, n))])
_pair_row(3, 13, "C", lambda n: n >= 5, _ks(2, lambda n: n - 3),
          lambda n, p: (p[0], n - 1), ((0, 1), (1, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, k), _e(n, k + 1),
                           _seg(n, k + 2, n - 1), _e(n, n)])
_pair_row(3, 14, "C", lambda n: n >= 5, _no_params,
          lambda n, p: (n - 3, n - 1), ((1, 0), (0, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, n - 3), _e(n, n - 2),
                           _e(n, n - 1), _e(n, n)])
_pair_row(3, 15, "C", lambda n: n >= 5, _no_params,
          lambda n, p: (n - 2, n - 1), ((1, 0), (1, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: [_e(n, 1), _e(n, 2), _seg(n, 3, n - 2),
                           _e(n, n - 1), _e(n, n)])
_pair_row(3, 16, "C", lambda n: n >= 4, _no_params,
          lambda n, p: (n - 2, n - 1), ((0, 1), (1, 1)),
          lambda n, k, l: 4,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, n - 2), _e(n, n - 1), _e(n, n)])
_pair_row(3, 17, "C", lambda n: n >= 3, _no_params,
          lambda n, p: (n - 1, n), ((1, 0), (1, 1)),
          lambda n, k, l: 3,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, n - 1), _e(n, n)])


# table 4: type D
def _d_chain_sigma(n, even_tail):
    if even_tail:
        return [_mk(n, (i, i + 1)) for i in range(1, n - 2)] + \
            [_mk(n, (n - 2, n)), _e(n, n - 1)]
    return [_mk(n, (i, i + 1)) for i in range(1, n - 1)] + [_e(n, n)]


_pair_row(4, 1, "D", lambda n: n >= 5 and n % 2 == 1, _no_params,
          lambda n, p: (1, n), ((1, 0), (0, 1)),
          lambda n, k, l: n - 1, lambda n, k, l: _d_chain_sigma(n, False))
_pair_row(4, 2, "D", lambda n: n >= 4 and n % 2 == 0, _no_params,
          lambda n, p: (1, n), ((1, 0), (0, 1)),
          lambda n, k, l: n - 1, lambda n, k, l: _d_chain_sigma(n, True))
_pair_row(4, 3, "D", lambda n: n >= 4, _no_params,
          lambda n, p: (1, n), ((1, 0), (1, 1)),
          lambda n, k, l: 3,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, n - 1),
                           _add(_seg(n, 2, n - 2), _e(n, n))])
_pair_row(4, 4, "D", lambda n: n >= 4, _no_params,
          lambda n, p: (1, n), ((0, 1), (1, 1)),
          lambda n, k, l: n - 1, lambda n, k, l: _d_chain_sigma(n, False))
_pair_row(4, 5, "D", lambda n: n == 5, _no_params,
          lambda n, p: (2, 5), ((1, 0), (0, 1)),
          lambda n, k, l: 5, lambda n, k, l: _units(n, 1, 5))
_pair_row(4, 6, "D", lambda n: n == 5, _no_params,
          lambda n, p: (2, 5), ((0, 1), (1, 1)),
          lambda n, k, l: 5, lambda n, k, l: _units(n, 1, 5))
_pair_row(4, 7, "D", lambda n: n == 5, _no_params,
          lambda n, p: (3, 5), ((1, 0), (2, 1)),
          lambda n, k, l: 5, lambda n, k, l: _units(n, 1, 5))
_pair_row(4, 8, "D", lambda n: n >= 6, _no_params,
          lambda n, p: (3, n), ((1, 0), (2, 1)),
          lambda n, k, l: 6,
          lambda n, k, l: [_e(n, 1), _e(n, 2), _seg(n, 3, n - 3),
                           _e(n, n - 2), _e(n, n - 1), _e(n, n)])
_pair_row(4, 9, "D", lambda n: n >= 6, _no_params,
          lambda n, p: (n - 3, n), ((1, 0), (0, 1)),
          lambda n, k, l: 6,
          lambda n, k, l: [_e(n, 1), _e(n, 2), _seg(n, 3, n - 3),
                           _e(n, n - 2), _e(n, n - 1), _e(n, n)])
_pair_row(4, 10, "D", lambda n: n >= 6, _no_params,
          lambda n, p: (n - 3, n), ((0, 1), (1, 1)),
          lambda n, k, l: 6,
          lambda n, k, l: [_e(n, 1), _e(n, 2), _seg(n, 3, n - 3),
                           _e(n, n - 2), _e(n, n - 1), _e(n, n)])
_pair_row(4, 11, "D", lambda n: n >= 4, _no_params,
          lambda n, p: (n - 1, n), ((1, 0), (0, 1)),
          lambda n, k, l: 3,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, n - 1),
                           _add(_seg(n, 2, n - 2), _e(n, n))])
_pair_row(4, 12, "D", lambda n: n >= 5 and n % 2 == 1, _no_params,
          lambda n, p: (n - 1, n), ((1, 0), (1, 1)),
          lambda n, k, l: n - 1, lambda n, k, l: _d_chain_sigma(n, False))
_pair_row(4, 13, "D", lambda n: n >= 4 and n % 2 == 0, _no_params,
          lambda n, p: (n - 1, n), ((1, 0), (1, 1)),
          lambda n, k, l: n - 1, lambda n, k, l: _d_chain_sigma(n, True))


# table 5: types A and B, rows sharing the (k, n) complement patterns
def _t5_sigma_1(n, k, l):
    return _units(n, 1, k) + [_seg(n, k + 1, n - k)] + _units(n, n - k + 1, n)


def _t5_sigma_2(n, k, l):
    return _units(n, 1, n - k - 1) + [_seg(n, n - k, k)] + _units(n, k + 1, n)


def _t5_sigma_3(n, k, l):
    return _units(n, 1, k - 1) + [_seg(n, k, n - k)] + _units(n, n - k + 1, n)


def _t5_sigma_4(n, k, l):
    return _units(n, 1, n - k) + [_seg(n, n - k + 1, k)] + _units(n, k + 1, n)


def _t5_shared_rows(family, base):
    """Rows ``base + 1`` to ``base + 4``, which types A and B share."""
    _pair_row(5, base + 1, family, lambda n: n >= 3,
              _ks(1, lambda n: (n - 1) // 2),
              lambda n, p: (p[0], n), ((1, 0), (0, 1)),
              lambda n, k, l: 2 * k + 1, _t5_sigma_1)
    _pair_row(5, base + 2, family, lambda n: n >= 3,
              lambda n: [(k,) for k in range((n + 1) // 2, n - 1) if n - k >= 2],
              lambda n, p: (p[0], n), ((1, 0), (0, 1)),
              lambda n, k, l: 2 * (n - k), _t5_sigma_2)
    _pair_row(5, base + 3, family, lambda n: n >= 3,
              lambda n: [(k,) for k in range(2, n // 2 + 1)],
              lambda n, p: (p[0], n), ((1, 0), (1, 1)),
              lambda n, k, l: 2 * k, _t5_sigma_3)
    _pair_row(5, base + 4, family, lambda n: n >= 3,
              lambda n: [(k,) for k in range(max(1, n // 2 + 1), n)
                         if k > n - k >= 1],
              lambda n, p: (p[0], n), ((1, 0), (1, 1)),
              lambda n, k, l: 2 * (n - k) + 1, _t5_sigma_4)


_t5_shared_rows("A", 0)
_pair_row(5, 5, "A", lambda n: n >= 4,
          _ks(2, lambda n: n // 2),
          lambda n, p: (p[0], p[0] + 1), ((1, 0), (1, 1)),
          lambda n, k, l: 2 * k,
          lambda n, k, l: _units(n, 1, k) + [_seg(n, k + 1, n - k + 1)] +
          _units(n, n - k + 2, n))
_pair_row(5, 6, "A", lambda n: n >= 5,
          lambda n: [(k,) for k in range(2, n - 1) if k > n - k >= 2],
          lambda n, p: (p[0], p[0] + 1), ((1, 0), (1, 1)),
          lambda n, k, l: 2 * (n - k) + 1, _t5_sigma_4)
_pair_row(5, 7, "A", lambda n: n >= 5, _ks(2, lambda n: n - 3),
          lambda n, p: (p[0], p[0] + 2), ((1, 0), (0, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, k), _e(n, k + 1),
                           _seg(n, k + 2, n - 1), _e(n, n)])
_pair_row(5, 8, "A", lambda n: n >= 5, _ks(4, lambda n: n - 1),
          lambda n, p: (2, p[0]), ((1, 0), (1, 1)),
          lambda n, k, l: 5,
          lambda n, k, l: [_e(n, 1), _seg(n, 2, l - 2), _e(n, l - 1),
                           _seg(n, l, n - 1), _e(n, n)])
_t5_shared_rows("B", 8)


# tables 6-9: exceptional types, literal rows
def _literal_rows(table_id, family, n, rows):
    for row_id, (k, l), pq, rs_, rank, sigma_idx in rows:
        sigma = tuple(_mk(n, idxs) for idxs in sigma_idx)
        psi = tuple(sorted((pq, rs_)))

        def build(_n, params, _c=(k, l), _p=psi, _r=rank, _s=sigma):
            return _c, _p, _r, _s
        _row(table_id, row_id, family, lambda m, _n=n: m == _n)(build)


_UNITS4 = [(1,), (2,), (3,), (4,)]
_literal_rows(6, "F4", 4, [
    (1, (1, 3), (1, 0), (0, 1), 4, _UNITS4),
    (2, (1, 3), (0, 1), (1, 1), 4, _UNITS4),
    (3, (1, 4), (0, 1), (1, 1), 4, [(1, 2), (2, 3), (3,), (4,)]),
    (4, (2, 3), (1, 0), (1, 1), 4, _UNITS4),
    (5, (2, 3), (0, 1), (1, 1), 4, _UNITS4),
    (6, (2, 4), (0, 1), (1, 1), 4, _UNITS4),
    (7, (3, 4), (1, 0), (1, 1), 3, [(1,), (2, 3), (4,)]),
])

_literal_rows(7, "E6", 6, [
    (1, (1, 2), (1, 0), (0, 1), 5, [(1,), (2,), (3, 4), (4, 5), (5, 6)]),
    (2, (1, 2), (1, 0), (1, 1), 5, [(1, 3), (2,), (3, 4), (4, 5), (6,)]),
    (3, (1, 3), (0, 1), (1, 2), 5, [(1,), (2,), (3, 4), (4, 5), (5, 6)]),
    (4, (1, 5), (1, 0), (1, 1), 5, [(1,), (3,), (2, 4), (4, 5), (6,)]),
    (5, (1, 6), (1, 0), (0, 1), 5,
     [(1,), (2, 3, 4), (2, 4, 5), (3, 4, 5), (6,)]),
    (6, (1, 6), (1, 0), (1, 1), 5,
     [(1,), (2, 3, 4), (2, 4, 5), (3, 4, 5), (6,)]),
    (7, (2, 3), (1, 0), (0, 1), 5, [(1,), (2, 4), (3, 4), (5,), (6,)]),
    (8, (2, 3), (0, 1), (1, 2), 5, [(1,), (2, 4), (3,), (4, 5), (6,)]),
])

_E7_CHAIN = [(1, 3), (2,), (3, 4), (4, 5), (5, 6), (6, 7)]
_E7_FIVE = [(1,), (2, 4, 5), (3, 4, 5), (6,), (7,)]
_UNITS7 = [(i,) for i in range(1, 8)]
_literal_rows(8, "E7", 7, [
    (1, (1, 2), (1, 0), (0, 1), 6, _E7_CHAIN),
    (2, (1, 2), (0, 1), (1, 2), 6, _E7_CHAIN),
    (3, (1, 5), (1, 0), (1, 1), 7, _UNITS7),
    (4, (2, 3), (1, 0), (0, 1), 5, _E7_FIVE),
    (5, (2, 4), (0, 1), (1, 3), 7, _UNITS7),
    (6, (2, 5), (1, 0), (0, 1), 7, _UNITS7),
    (7, (2, 6), (0, 1), (1, 2), 5, _E7_FIVE),
    (8, (2, 7), (0, 1), (1, 1), 6, _E7_CHAIN),
    (9, (3, 7), (0, 1), (1, 1), 5, _E7_FIVE),
])

_E8_CHAIN = [(1,), (2,), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
_E8_FIVE = [(1,), (2, 4, 5, 6), (3, 4, 5, 6), (7,), (8,)]
_UNITS8 = [(i,) for i in range(1, 9)]
_literal_rows(9, "E8", 8, [
    (1, (1, 2), (1, 0), (0, 1), 7, _E8_CHAIN),
    (2, (1, 3), (0, 1), (1, 3), 7, _E8_CHAIN),
    (3, (1, 5), (1, 0), (1, 1), 8, _UNITS8),
    (4, (2, 3), (1, 0), (0, 1), 5, _E8_FIVE),
    (5, (2, 5), (1, 0), (0, 1), 8, _UNITS8),
    (6, (2, 5), (0, 1), (1, 3), 8, _UNITS8),
    (7, (2, 7), (0, 1), (1, 2), 5, _E8_FIVE),
    (8, (2, 8), (0, 1), (1, 1), 7, _E8_CHAIN),
    (9, (3, 8), (0, 1), (1, 1), 5, _E8_FIVE),
])


TABLE_IDS = tuple(range(1, 10))


def row_specs(table_id: Optional[int] = None) -> list[RowSpec]:
    return [r for r in _ROWS if table_id is None or r.table_id == table_id]


def instantiate_row(table_id: int, row_id: int, n: int,
                    params: Params = ()) -> RowInstance:
    """Concrete rank and spherical-root set of one table row."""
    for spec in _ROWS:
        if spec.table_id == table_id and spec.row_id == row_id:
            if not spec.n_ok(n):
                raise ParamsOutOfRange(f"table {table_id} row {row_id}: bad n={n}")
            if tuple(params) not in {tuple(p) for p in spec.params_for(n)}:
                raise ParamsOutOfRange(
                    f"table {table_id} row {row_id}: bad params {params} at n={n}")
            return _instance(spec, n, tuple(params))
    raise ParamsOutOfRange(f"no row {row_id} in table {table_id}")


def iter_instances(family: str, n: int,
                   tables: tuple[int, ...] = TABLE_IDS) -> Iterator[RowInstance]:
    """All concrete rows of a family at a given rank, in table order."""
    for spec in _ROWS:
        if spec.family == family and spec.table_id in tables and spec.n_ok(n):
            for params in spec.params_for(n):
                yield _instance(spec, n, tuple(params))


# --- matching a reduced datum against the tables ----------------------------


MatchResult = namedtuple(
    "MatchResult", "table_id row_id family n params iso rank sigma")
MatchResult.__doc__ = """The table row a datum matched.

``table_id``, ``row_id``, ``n`` and ``rank`` are ints, ``family`` is the
type's name and ``params`` a tuple of ints; ``iso``, a dict, sends the
datum's nodes to the row's standard nodes, and ``sigma``, a tuple of
weights, holds the row's spherical roots pulled back to the datum's
nodes.
"""


def _transform_datum(perm: tuple[int, ...], complement, psi):
    """Push a (complement, psi) pair through a node relabeling.

    ``perm[a - 1]`` is the image of node a.
    """
    new_nodes = sorted(perm[c - 1] for c in complement)
    out_psi = []
    for lam in psi:
        weights = {perm[c - 1]: x for c, x in zip(complement, lam)}
        out_psi.append(tuple(weights.get(a, 0) for a in new_nodes))
    return tuple(new_nodes), tuple(sorted(out_psi))


def row_index(rs: rsmod.RootSystem, size: int) -> dict:
    """Every table row equal to a datum on ``rs`` up to diagram relabeling.

    Maps each ``(complement, psi)`` in ``rs``'s own numbering to the rows
    that relabel onto it, as ``(instance, iso)`` references: the row's
    :class:`RowInstance` at ``rs``'s rank, and ``iso``, which sends
    ``rs``'s nodes to the row's standard nodes.  A datum with one active
    root (``size`` 1) is looked up in table 1, two in tables 2-9.  Built
    once per system and table set, memoized on ``rs``.
    """
    tables = (1,) if size <= 1 else TABLE_IDS[1:]
    if tables in rs._row_index:
        return rs._row_index[tables]
    n = rs.rank
    nodes = tuple(range(1, n + 1))
    index: dict = {}
    for family in rsmod._candidate_families(n):
        isos = rsmod.diagram_isomorphisms(rs, nodes, family, n)
        if not isos:
            continue
        inverses = [tuple(sorted(nodes, key=iso.__getitem__)) for iso in isos]
        for inst in iter_instances(family, n, tables):
            for iso, inverse in zip(isos, inverses):
                key = _transform_datum(inverse, inst.complement, inst.psi)
                index.setdefault(key, []).append((inst, iso))
    rs._row_index[tables] = index
    return index


def lookup(rs: rsmod.RootSystem, complement: tuple[int, ...],
           psi: tuple[Vector, ...]) -> Optional[MatchResult]:
    """The least ``(table, row, iso)`` row matching a datum on ``rs``.

    Each row found under the datum's key has its root set pulled back to
    ``rs``'s numbering; the rows must agree on the rank and the root set,
    else UnclassifiedCase.  None when no row matches.  The answer is
    memoized on ``rs`` per ``(complement, psi)``.
    """
    key = (complement, psi)
    if key in rs._matches:
        return rs._matches[key]
    refs = row_index(rs, len(psi)).get(key, ())
    n = rs.rank
    matches: list[MatchResult] = []
    for inst, iso in sorted(refs, key=lambda r: (
            r[0].table_id, r[0].row_id, tuple(sorted(r[1].items())))):
        perm = tuple(iso[a] for a in range(1, n + 1))
        sigma = tuple(sorted((tuple(s[t - 1] for t in perm) for s in inst.sigma),
                             key=rsmod.height_key))
        matches.append(MatchResult(inst.table_id, inst.row_id, inst.family, n,
                                   inst.params, iso, inst.rank, sigma))
    if len({(m.rank, frozenset(m.sigma)) for m in matches}) > 1:
        raise UnclassifiedCase(
            f"inconsistent table matches for complement {complement}, psi "
            f"{psi}: {[(m.table_id, m.row_id) for m in matches]}")
    rs._matches[key] = matches[0] if matches else None
    return rs._matches[key]


def match_datum(H: SubgroupDatum) -> MatchResult:
    """Find the table row equal to a reduced datum up to diagram relabeling.

    The datum must already be ambient-reduced with a connected diagram,
    so its system is the :func:`rootsystem.build` system of its type and
    shares its row index and matches.  More than two active roots raise
    UnclassifiedCase; otherwise the datum is looked up in the row index
    of that system (:func:`lookup`).
    """
    if len(H.psi) > 2:
        raise UnclassifiedCase(f"isolated block has {len(H.psi)} active roots")
    match = lookup(H.rs, H.L.complement, H.psi)
    if match is None:
        kind = UnclassifiedLeaf if len(H.psi) <= 1 else UnclassifiedCase
        raise kind(f"no table row matches {H!r}")
    return match


def dump_rows(table_id: int, n: Optional[int] = None,
              params: Optional[Params] = None) -> list[dict]:
    """Concrete row instantiations as JSON-ready dicts (CLI backend).

    Raises ParamsOutOfRange, naming the reason, when no row matches.
    """
    out = []
    instantiable = False
    for spec in row_specs(table_id):
        m = rsmod._FIXED_RANK.get(spec.family) if n is None else n
        if m is None or not spec.n_ok(m):
            continue  # parametric rows need an explicit rank
        for p in spec.params_for(m):
            instantiable = True
            if params is not None and tuple(params) != tuple(p):
                continue
            inst = _instance(spec, m, tuple(p))
            out.append({
                "table": inst.table_id,
                "row": inst.row_id,
                "family": inst.family,
                "n": inst.n,
                "params": list(inst.params),
                "complement": list(inst.complement),
                "psi": [list(v) for v in inst.psi],
                "rank": inst.rank,
                "sigma": [list(v) for v in inst.sigma],
            })
    if not out:
        if instantiable:
            at = "" if n is None else f" at n={n}"
            raise ParamsOutOfRange(
                f"table {table_id} has no row with params {list(params)}{at}")
        if n is None:
            raise ParamsOutOfRange(f"table {table_id} rows are parametric: give --n")
        raise ParamsOutOfRange(f"table {table_id} has no row at n={n}")
    return out
