"""Hermite normal form, sublattice index, and the minimal-volume shrink."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import poly, random_polygon, seeded
from lattice_equiv import (
    LatticePolytope,
    attains_minimal_volume,
    dilate,
    hnf,
    normalized_volume,
    shrink_to_minimal_volume,
    sublattice_info,
)

UNIT = poly((0, 0), (1, 0), (0, 1))
SQUARE = poly((0, 0), (1, 0), (1, 1), (0, 1))


def test_hnf_examples():
    assert hnf([[2, 0], [0, 2]]).h == ((2, 0), (0, 2))
    assert hnf([[1, 2], [3, 4]]).h == ((1, 0), (0, 2))
    r = hnf([[1, 1], [1, 1]])
    assert r.h == ((1, 1), (0, 0))
    assert r.rank == 1


def test_hnf_transform_is_exact():
    m = [[1, 2], [3, 4]]
    r = hnf(m)
    u = r.u
    assert u[0][0] * u[1][1] - u[0][1] * u[1][0] in (-1, 1)
    for i in range(2):
        for j in range(2):
            assert sum(u[i][k] * m[k][j] for k in range(2)) == r.h[i][j]


entry = st.integers(min_value=-9, max_value=9)


@given(st.lists(st.tuples(entry, entry, entry), min_size=1, max_size=4))
def test_hnf_shape_properties(rows):
    r = hnf([list(row) for row in rows])
    # pivots positive, entries above each pivot reduced into [0, pivot)
    for i, col in enumerate(r.pivot_columns):
        pivot = r.h[i][col]
        assert pivot > 0
        for k in range(i):
            assert 0 <= r.h[k][col] < pivot
        assert all(r.h[i][c] == 0 for c in range(col))
    for i in range(r.rank, len(rows)):
        assert not any(r.h[i])
    # U is unimodular and U * M = H
    for i in range(len(rows)):
        for j in range(3):
            got = sum(r.u[i][k] * rows[k][j] for k in range(len(rows)))
            assert got == r.h[i][j]


def test_sublattice_index_examples():
    assert sublattice_info(poly((0, 0), (2, 0), (0, 2))).index == 4
    assert sublattice_info(UNIT).index == 1
    assert sublattice_info(SQUARE).index == 1
    assert sublattice_info(poly((0, 0), (9, 0), (0, 10))).index == 90


def test_sublattice_basis_determinant():
    info = sublattice_info(poly((0, 0), (2, 0), (0, 2)))
    b = info.basis
    assert abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) == info.index


def test_sublattice_from_lattice_points():
    # the vertices alone generate an index-4 lattice, although the
    # triangle's boundary lattice points generate all of Z^2
    wide = poly((0, 0), (2, 0), (0, 2))
    assert sublattice_info(wide).index == 4


def test_attains_minimal_volume():
    assert attains_minimal_volume(UNIT)
    assert not attains_minimal_volume(poly((0, 0), (2, 0), (0, 2)))
    # index is 90 here, so the class minimum (the unit triangle) is missed
    assert not attains_minimal_volume(poly((0, 0), (9, 0), (0, 10)))


def test_shrink_examples():
    img, m = shrink_to_minimal_volume(poly((0, 0), (2, 0), (0, 2)))
    assert img == UNIT
    assert m.determinant == Fraction(1, 4)

    img, m = shrink_to_minimal_volume(UNIT)
    assert img == UNIT
    assert m.matrix == ((1, 0), (0, 1))
    assert m.translation == (0, 0)

    big = dilate(SQUARE, 3)
    img, m = shrink_to_minimal_volume(big)
    assert normalized_volume(img) == 2
    assert sublattice_info(big).index == 9
    assert m.determinant == Fraction(1, 9)


def test_shrink_moves_vertices():
    p = poly((4, 7), (6, 7), (4, 9))
    img, m = shrink_to_minimal_volume(p)
    assert tuple(sorted(m.apply(v) for v in p.vertices)) == \
        tuple(sorted(img.vertices))
    assert attains_minimal_volume(img)


def test_shrink_idempotent_and_bookkeeping():
    rng = seeded(31)
    for _ in range(150):
        p = random_polygon(rng)
        info = sublattice_info(p)
        img, m = shrink_to_minimal_volume(p)
        assert normalized_volume(p) == info.index * normalized_volume(img)
        assert m.determinant == Fraction(1, info.index)
        assert attains_minimal_volume(img)
        again, m2 = shrink_to_minimal_volume(img)
        assert again == img
        assert m2.matrix == ((1, 0), (0, 1)) and m2.translation == (0, 0)


SIMPLEX_3D = LatticePolytope(3, ((1, -1, 0), (3, -1, 0), (2, 0, 0),
                                 (2, -1, 3)))
PRISM_3D = LatticePolytope(3, SIMPLEX_3D.vertices[:3] + tuple(
    (x + 1, y, z + 3) for x, y, z in SIMPLEX_3D.vertices[:3]))


@pytest.mark.parametrize("p, basis", [
    (dilate(LatticePolytope(3, tuple(product((0, 1), repeat=3))), 2),
     ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
    (SIMPLEX_3D, ((1, 0, 3), (0, 1, 3), (0, 0, 6))),
    (PRISM_3D, ((1, 0, 3), (0, 1, 3), (0, 0, 6))),
], ids=["dilated-cube", "simplex", "prism"])
def test_shrink_in_three_dimensions(p, basis):
    # The integer image is the map's image, the volume drops by exactly the
    # index, and the image is its own shrink under the identity map; two of
    # the difference-lattice bases are not diagonal.
    info = sublattice_info(p)
    assert info.basis == basis
    img, move = shrink_to_minimal_volume(p)
    assert img == move.apply_polytope(p)
    assert move.determinant == Fraction(1, info.index)
    assert normalized_volume(p) == info.index * normalized_volume(img)
    assert attains_minimal_volume(img)
    again, m2 = shrink_to_minimal_volume(img)
    assert again == img
    assert m2.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert m2.translation == (0, 0, 0)


def test_unimodular_differences_give_index_one():
    rng = seeded(37)
    checked = 0
    for _ in range(300):
        p = random_polygon(rng)
        v = p.vertices
        diffs = [tuple(a - b for a, b in zip(w, u)) for i, u in enumerate(v)
                 for w in v[i + 1:]]
        has_unimodular_pair = any(
            abs(a[0] * b[1] - a[1] * b[0]) == 1
            for i, a in enumerate(diffs) for b in diffs[i + 1:])
        if has_unimodular_pair:
            checked += 1
            assert sublattice_info(p).index == 1
    assert checked > 50


def test_degenerate_inputs_cannot_be_built():
    # full-dimensionality is enforced by the polytope type itself, so the
    # index computation never sees a rank-deficient difference set
    from lattice_equiv import DegenerateInput
    with pytest.raises(DegenerateInput):
        LatticePolytope(2, ((0, 0), (1, 1), (2, 2)))
