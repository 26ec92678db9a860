"""Every spherical root the package produces is on Luna's list.

Each spherical root lies in Luna's finite list, and its possible shapes
depend only on the Dynkin type of its support (D. Luna, Publ. Math. IHES
94, 2001).  ``oracles.luna_shape`` classifies the support on the Cartan
matrix of the Euclidean model and compares the coefficients with the
list; nothing here reads the package's Cartan data.  The roots checked
are those of every table row at large rank and those ``base_solve``
computes on every datum of ``helpers.every_datum_sweep``.
"""

import functools

import pytest

from sphroots.tables import iter_instances

from helpers import every_datum_sweep
from oracles import euclidean_cartan, luna_shape

cartan = functools.cache(euclidean_cartan)

ROW_TYPES = ([(family, n) for family in "ABCD" for n in (12, 24, 64)]
             + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


@pytest.mark.parametrize("family,n", ROW_TYPES)
def test_every_row_root_is_on_lunas_list(family, n):
    off = [(inst.table_id, inst.row_id, inst.params, root)
           for inst in iter_instances(family, n) for root in inst.sigma
           if luna_shape(cartan(family, n), root) is None]
    assert off == []


def test_every_computed_root_is_on_lunas_list():
    roots = every_datum_sweep().roots
    off = [(family, n, root) for (family, n), found in roots.items()
           for root in sorted(found)
           if luna_shape(cartan(family, n), root) is None]
    assert off == []
    assert sum(map(len, roots.values())) > 100


@pytest.mark.parametrize("family,n,root,shape", [
    ("A", 1, (2,), "A1"),
    ("A", 3, (1, 2, 1), "A3"),
    ("A", 3, (1, 0, 1), "A1xA1"),
    ("B", 3, (1, 2, 3), "B3"),
    ("B", 4, (0, 2, 2, 2), "B3"),
    ("B", 2, (2, 2), "B2"),
    ("C", 4, (1, 2, 2, 1), "C4"),
    ("D", 4, (1, 2, 1, 2), "D4"),
    ("D", 5, (2, 2, 2, 1, 1), "D5"),
    ("F4", 4, (1, 2, 3, 2), "F4"),
    ("F4", 4, (1, 2, 3, 0), "B3"),
    ("G2", 2, (1, 1), "G2"),
    ("E6", 6, (0, 2, 1, 2, 1, 0), "D4"),
    # shapes the list does not allow
    ("A", 1, (3,), None),
    ("A", 2, (1, 2), None),
    ("A", 5, (1, 0, 1, 0, 1), None),
    ("A", 3, (2, 0, 1), None),
    ("B", 3, (3, 2, 1), None),
    ("B", 3, (1, 2, 1), None),
    ("C", 3, (1, 1, 1), None),
    ("D", 4, (1, 2, 1, 1), None),
    ("D", 5, (1, 2, 2, 1, 1), None),
    ("F4", 4, (2, 3, 2, 1), None),
    ("G2", 2, (1, 2), None),
    ("E6", 6, (1, 2, 2, 3, 2, 1), None),
])
def test_luna_shape_names_the_support(family, n, root, shape):
    assert luna_shape(cartan(family, n), root) == shape
