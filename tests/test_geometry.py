"""Hulls, volumes, lattice point enumeration, regions."""

import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from conftest import cross, poly, strict_hull
from lattice_equiv import (
    DegenerateInput,
    DimensionMismatch,
    LatticePolytope,
    RationalAffineMap,
    Region,
    affine_equivalent,
    convex_hull_2d,
    dilate,
    lattice_points,
    normalized_volume,
    simplex_determinant,
)
from lattice_equiv.geometry import _ccw_lex_least, _hull_cycle

coord = st.integers(min_value=-8, max_value=8)
point = st.tuples(coord, coord)


def test_hull_square():
    hull = convex_hull_2d([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert hull.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_hull_drops_edge_point():
    hull = convex_hull_2d([(0, 0), (2, 0), (0, 2), (1, 1)])
    assert hull.vertices == ((0, 0), (2, 0), (0, 2))


def test_hull_drops_interior_point():
    hull = convex_hull_2d([(0, 0), (3, 0), (0, 3), (1, 1)])
    assert set(hull.vertices) == {(0, 0), (3, 0), (0, 3)}


def test_hull_collinear_raises():
    with pytest.raises(DegenerateInput):
        convex_hull_2d([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(DegenerateInput):
        convex_hull_2d([(0, 0), (1, 1)])


@given(st.lists(point, min_size=3, max_size=12))
def test_hull_idempotent_and_minimal(pts):
    try:
        hull = convex_hull_2d(pts)
    except (DegenerateInput, DimensionMismatch):
        return
    again = convex_hull_2d(hull.vertices)
    assert again.vertices == hull.vertices
    # every input point is inside the hull
    for p in pts:
        assert hull.contains(p)


NOT_CONVEX = "vertices are not in strictly convex position"
BAD_ORDER = "vertex order is not a convex cycle"


def test_polytope_rejects_bad_cycles():
    with pytest.raises(DegenerateInput, match=NOT_CONVEX):
        LatticePolytope(2, ((0, 0), (1, 0), (1, 1), (0, 1), (2, 2)))
    with pytest.raises(DegenerateInput, match=BAD_ORDER):
        LatticePolytope(2, ((0, 0), (1, 1), (1, 0), (0, 1)))  # crossing order
    with pytest.raises(DegenerateInput):
        LatticePolytope(2, ((0, 0), (1, 0), (0, 0)))


def test_segment_is_exactly_two_endpoints():
    # A third point on the segment would be stored as a vertex and make
    # equal segments compare as differing in vertex count.
    for points in (((0,), (1,), (2,)), ((0,), (2,), (1,), (5,))):
        with pytest.raises(DegenerateInput, match="segment"):
            LatticePolytope(1, points)
    with pytest.raises(DegenerateInput):
        LatticePolytope(1, ((3,),))
    segment = LatticePolytope(1, ((5,), (3,)))
    assert normalized_volume(segment) == 2
    assert affine_equivalent(segment, LatticePolytope(1, ((0,), (2,))))


def test_segment_stores_lesser_endpoint_first():
    forward = LatticePolytope(1, ((3,), (5,)))
    backward = LatticePolytope(1, ((5,), (3,)))
    assert backward.vertices == forward.vertices == ((3,), (5,))
    assert backward == forward
    assert hash(backward) == hash(forward)


def test_polytope_accepts_any_rotation_and_reversal():
    base = poly((0, 0), (1, 0), (1, 1), (0, 1))
    rotated = LatticePolytope(2, ((1, 0), (1, 1), (0, 1), (0, 0)))
    reversed_ = LatticePolytope(2, ((0, 0), (0, 1), (1, 1), (1, 0)))
    assert rotated.vertices == base.vertices
    assert reversed_.vertices == base.vertices
    # Of all 120 orderings of a convex pentagon, exactly its 5 rotations
    # and their 5 reversals are accepted, each stored as the same cycle.
    pentagon = ((-1, 1), (0, 0), (2, 0), (3, 2), (1, 3))
    cycles = {pentagon[i:] + pentagon[:i] for i in range(5)}
    cycles |= {c[::-1] for c in cycles}
    assert len(cycles) == 10
    for order in permutations(pentagon):
        if order in cycles:
            assert LatticePolytope(2, order).vertices == pentagon
        else:
            with pytest.raises(DegenerateInput):
                LatticePolytope(2, order)


def reference_stored_cycle(verts):
    """The 2D cycle rule as a hull comparison, kept as the reference for
    the constructor's linear-time check: the strict hull must keep every
    vertex, and the vertices in stored order must be the hull cycle."""
    cycle = tuple(_hull_cycle(verts))
    if len(cycle) != len(verts):
        raise DegenerateInput(NOT_CONVEX)
    if _ccw_lex_least(verts) != cycle:
        raise DegenerateInput(BAD_ORDER)
    return cycle


def outcome(build, verts):
    """Stored vertices, or the exception's class and message."""
    try:
        return build(verts)
    except DegenerateInput as exc:
        return type(exc), str(exc)


@st.composite
def vertex_lists(draw):
    """Distinct points as drawn, or their strict hull cycle rotated and
    possibly reversed, or that cycle in any order, or the doubled cycle
    with one edge's midpoint inserted."""
    pts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                        min_size=3, max_size=7, unique=True))
    hull = strict_hull(pts)
    how = draw(st.sampled_from(["points", "cycle", "permuted", "edge point"]))
    if hull is None or how == "points":
        return tuple(pts)
    if how == "permuted":
        return tuple(draw(st.permutations(hull)))
    k = draw(st.integers(0, len(hull) - 1))
    if how == "edge point":
        (x, y), (u, v) = hull[k - 1], hull[k]
        hull = [(2 * a, 2 * b) for a, b in hull]
        hull.insert(k, (x + u, y + v))
    cycle = tuple(hull[k:] + hull[:k])
    return cycle[::-1] if draw(st.booleans()) else cycle


@given(vertex_lists())
def test_polytope_cycle_check_matches_hull_rule(verts):
    got = outcome(lambda v: LatticePolytope(2, v).vertices, verts)
    assert got == outcome(reference_stored_cycle, verts)


def test_polytope_cycle_check_explicit_cases():
    pentagon = ((-1, 1), (0, 0), (2, 0), (3, 2), (1, 3))
    # The pentagram order turns strictly left at every vertex; only the
    # fan from the lex-least vertex shows that it winds twice.
    star = _ccw_lex_least(pentagon[::2] + pentagon[1::2])
    assert all(cross(star[i - 2], star[i - 1], star[i]) > 0 for i in range(5))
    cases = [
        (star, BAD_ORDER),
        # a vertex on an edge, next to the lex-least vertex or away from it
        (((0, 0), (1, 0), (2, 0), (1, 1)), NOT_CONVEX),
        (((0, 0), (2, 0), (2, 2), (1, 2), (0, 2)), NOT_CONVEX),
        (((0, 0), (1, 1), (2, 2)), "points are collinear"),
        (((0, 0), (1, 0), (0, 1), (1, 0)), "duplicate vertices"),
    ]
    for verts, message in cases:
        with pytest.raises(DegenerateInput, match=f"^{message}$"):
            LatticePolytope(2, verts)


class Coordinate(int):
    pass


def test_polytope_coordinate_types():
    one = Coordinate(1)
    square = LatticePolytope(2, ((0, 0), (0, one), (one, one), (one, 0)))
    assert square.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert type(square.vertices[2][0]) is Coordinate
    for bad in (True, 1.0, Fraction(1)):
        with pytest.raises(DegenerateInput,
                           match=f"^coordinates must be plain integers, "
                                 f"got {re.escape(repr(bad))}$"):
            LatticePolytope(2, ((0, 0), (bad, 0), (0, 1)))
    # The dimension must be a plain int, as a Region's: True would pass
    # as 1 and 2.0 as 2.
    for dim, verts in ((True, ((0,), (1,))),
                       (2.0, ((0, 0), (1, 0), (0, 1))),
                       (Coordinate(2), ((0, 0), (1, 0), (0, 1))),
                       ("2", ((0, 0), (1, 0), (0, 1)))):
        with pytest.raises(DegenerateInput,
                           match="^dimension must be an integer >= 1$"):
            LatticePolytope(dim, verts)


def test_polytope_rejects_non_sequence_vertices():
    for bad in (((0, 0), 5, (1, 1)), None, 5):
        with pytest.raises(DegenerateInput,
                           match=f"^vertices {re.escape(repr(bad))} are not "
                                 f"a sequence of coordinate sequences$"):
            LatticePolytope(2, bad)


def test_normalized_volume_examples():
    assert normalized_volume(poly((0, 0), (1, 0), (0, 1))) == 1
    assert normalized_volume(poly((0, 0), (9, 0), (0, 10))) == 90
    assert normalized_volume(poly((0, 0), (1, 0), (1, 1), (0, 1))) == 2


def test_simplex_determinant_examples():
    assert simplex_determinant([(0, 0), (1, 0), (0, 1)]) == 1
    assert simplex_determinant([(0, 0), (0, 1), (1, 0)]) == -1
    assert simplex_determinant([(0, 0), (1, 1), (2, 2)]) == 0


@given(st.permutations([(0, 0), (3, 1), (1, 4)]))
def test_simplex_determinant_alternating(pts):
    ref = simplex_determinant([(0, 0), (3, 1), (1, 4)])
    got = simplex_determinant(pts)
    assert abs(got) == abs(ref)


def test_simplex_determinant_3d():
    assert simplex_determinant([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


def test_simplex_determinant_rejects_empty_input():
    with pytest.raises(DegenerateInput, match="^empty point set$"):
        simplex_determinant([])


def test_point_set_functions_reject_non_sequence_points():
    for fn in (simplex_determinant, convex_hull_2d):
        with pytest.raises(DegenerateInput,
                           match=r"^points \[1, 2, 3\] are not a sequence "
                                 r"of coordinate sequences$"):
            fn([1, 2, 3])


def test_lattice_points_ball():
    assert lattice_points(Region.ball(1)) == [
        (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert lattice_points(Region.ball(0)) == [(0, 0)]


def test_lattice_points_orthant_and_box():
    assert lattice_points(Region.orthant_ball(1)) == [(0, 0), (0, 1), (1, 0)]
    assert len(lattice_points(Region.box(1))) == 4


def test_lattice_points_fractional_radius():
    # sqrt(2): corners of the unit square all make it in
    assert lattice_points(Region.ball(radius_sq=Fraction(2))) == sorted(
        (x, y) for x in (-1, 0, 1) for y in (-1, 0, 1))


def test_lattice_points_of_polytope():
    tri = poly((0, 0), (2, 0), (0, 2))
    assert lattice_points(tri) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_dilate():
    tri = poly((0, 0), (1, 0), (0, 1))
    assert dilate(tri, 2).vertices == ((0, 0), (2, 0), (0, 2))
    assert dilate(tri, 1) == tri
    assert normalized_volume(dilate(tri, 3)) == 9
    with pytest.raises(DegenerateInput):
        dilate(tri, 0)


def test_region_validation_and_labels():
    assert Region.ball(2).label() == "ball:2"
    assert Region.ball(radius_sq=Fraction(2)).label() == "ball:sqrt(2)"
    assert Region.box(3).label() == "box:3"
    assert Region.orthant_ball(1).label() == "orthant-ball:1"
    with pytest.raises(DegenerateInput):
        Region.ball(1, radius_sq=1)
    with pytest.raises(DegenerateInput):
        Region("ball", -1)


def test_region_rejects_what_it_cannot_read_exactly():
    bad = [
        lambda: Region.box(2, dim=2.5),
        lambda: Region.box(2, dim=True),
        lambda: Region.box(2, dim=0),
        lambda: Region("box", 2, dim="2"),
        lambda: Region.box(None),
        lambda: Region.box(float("nan")),
        lambda: Region.box(float("inf")),
        lambda: Region.ball("x"),
        lambda: Region.ball(radius_sq=[2]),
        lambda: Region.orthant_ball(object()),
        # A float is read at its binary value, a bool as 0 or 1.
        lambda: Region.box(0.1),
        lambda: Region.box(2.0),
        lambda: Region.box(True),
        lambda: Region("box", False),
        lambda: Region.ball(1.0),
        lambda: Region.ball(True),
        lambda: Region.ball(radius_sq=True),
        lambda: Region.orthant_ball(radius_sq=2.0),
    ]
    for make in bad:
        with pytest.raises(DegenerateInput):
            make()
    # Rational sizes and squared radii still read exactly.
    box = Region.box(Fraction(5, 2))
    assert box.size == Fraction(5, 2) and len(lattice_points(box)) == 9
    assert Region.ball(radius_sq=Fraction(8)).label() == "ball:sqrt(8)"
    assert Region.box(2, dim=3).dim == 3


def test_affine_map_apply():
    move = RationalAffineMap(((0, 1), (1, 0)), (1, 0))
    assert move.apply((2, 3)) == (4, 2)
    tri = poly((0, 0), (2, 0), (0, 2))
    image = move.apply_polytope(tri)
    assert set(image.vertices) == {(1, 0), (1, 2), (3, 0)}
    assert move.is_unimodular


def test_affine_map_rejects_fractional_image():
    half = RationalAffineMap(((Fraction(1, 2), 0), (0, 1)), (0, 0))
    with pytest.raises(DegenerateInput):
        half.apply_polytope(poly((0, 0), (1, 0), (0, 1)))


def test_affine_map_compose():
    a = RationalAffineMap(((1, 0), (0, 1)), (1, 2))
    b = RationalAffineMap(((2, 0), (0, 2)), (0, 0))
    assert a.then(b).apply((0, 0)) == (2, 4)
    assert b.then(a).apply((0, 0)) == (1, 2)


def test_volume_3d_prism():
    # unit cube: 3! * 1
    cube = LatticePolytope(3, tuple(
        (x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)))
    assert normalized_volume(cube) == 6
    # square pyramid: 3! * (1/3 * 1 * 1)
    pyramid = LatticePolytope(3, (
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert normalized_volume(pyramid) == 2


def test_contains_3d():
    cube = LatticePolytope(3, tuple(
        (x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)))
    assert cube.contains((1, 1, 1))
    assert cube.contains((0, 0, 2))
    assert not cube.contains((3, 0, 0))
    assert len(lattice_points(cube)) == 27


def test_strict_hull_oracle_agrees_with_hull():
    pts = [(0, 0), (4, 1), (2, 3), (1, 1), (3, 2), (0, 3)]
    assert tuple(strict_hull(pts)) == convex_hull_2d(pts).vertices
