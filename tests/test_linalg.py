"""Exact linear algebra helpers."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from conftest import permutation_det, seeded
from lattice_equiv import RationalAffineMap, linalg

ints = st.integers(min_value=-50, max_value=50)
fractions = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=12))


def square(n, entries=ints):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda m: tuple(map(tuple, m)))


@given(ints, ints)
def test_egcd(a, b):
    g, x, y = linalg.egcd(a, b)
    assert g == gcd(a, b)
    assert a * x + b * y == g


@given(square(3))
def test_int_det_matches_fraction_elimination(m):
    assert linalg.int_det(m) == permutation_det(m)


@given(square(4))
def test_int_det_4x4(m):
    assert linalg.int_det(m) == permutation_det(m)


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: square(n, fractions)))
def test_affine_map_determinant_matches_permutation_expansion(m):
    det = RationalAffineMap(m, (0,) * len(m)).determinant
    assert isinstance(det, Fraction)
    assert det == permutation_det(m)


@given(square(3))
def test_adjugate_identity(m):
    det = linalg.int_det(m)
    adj = linalg.int_adjugate(m)
    prod = linalg.mat_mul(adj, m)
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (det if i == j else 0)


def test_adjugate_2x2():
    assert linalg.int_adjugate(((3, 1), (4, 2))) == ((2, -1), (-4, 3))


def test_adjugate_closed_forms_match_the_cofactor_loop():
    # int_adjugate has closed forms up to 3x3 and runs the cofactor loop
    # beyond.  On seeded 1x1 to 4x4 matrices, singular ones included (a
    # repeated row), it must equal that loop and satisfy
    # adj(M) @ M == det(M) * I.
    rng = seeded(307)
    for n in range(1, 5):
        for trial in range(150):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 10 == 0:
                m[-1] = list(m[0])
            m = tuple(map(tuple, m))
            adj = linalg.int_adjugate(m)
            assert adj == linalg._cofactor_adjugate(m)
            det = linalg.int_det(m)
            assert linalg.mat_mul(adj, m) == tuple(
                tuple(det * (i == j) for j in range(n)) for i in range(n))


def rank(rows):
    """The rank of the rows, read off the one elimination."""
    return linalg._echelon(list(rows), len(rows[0]))[0]


def test_rank():
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(0, 0)]) == 0
    assert rank([(2, 4, 6), (1, 2, 3), (0, 0, 1)]) == 2


@st.composite
def hyperplane_diffs(draw):
    """d - 1 integer rows in Z^d for d = 1..4; for d >= 3 the last row is
    sometimes an integer multiple of the first, so dependent sets occur."""
    d = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(*[st.integers(min_value=-6, max_value=6)] * d)
    rows = draw(st.lists(row, min_size=d - 1, max_size=d - 1))
    if d >= 3 and draw(st.booleans()):
        k = draw(st.integers(min_value=-2, max_value=2))
        rows[-1] = tuple(k * c for c in rows[0])
    return d, rows


@given(hyperplane_diffs())
def test_primitive_normal(case):
    d, rows = case
    normal = linalg.primitive_normal(rows)
    if linalg._echelon(list(rows), d)[0] < d - 1:
        assert normal is None
        return
    assert len(normal) == d
    assert all(linalg.vec_dot(normal, row) == 0 for row in rows)
    assert gcd(*normal) == 1
    assert next(c for c in normal if c) > 0


def test_row_times_matrix():
    assert linalg.row_times_matrix((1, 2), ((1, 0), (3, 1))) == (7, 2)


@pytest.mark.parametrize("a,b", [(0, 0), (0, 5), (-4, 6), (12, -18)])
def test_egcd_edge_signs(a, b):
    g, x, y = linalg.egcd(a, b)
    assert g >= 0
    assert a * x + b * y == g
