"""Hulls, volumes, lattice point enumeration, regions."""

import copy
import json
import pickle
import re
import sys
import time
import weakref
from collections import Counter
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from importlib import import_module
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from conftest import (
    CUBE as UNIT_CUBE, FRUSTUM, OCTAHEDRON, PRISM, SIMPLEX, apply_int_map,
    cross, permutation_det, poly, random_polygon, random_unimodular,
    random_unimodular_3d, reference_facet_inequalities,
    reference_polytope_points, reference_vertices, reference_volume_3d,
    seeded, strict_hull)
from lattice_equiv import (
    CanonicalTriangle,
    CapExceeded,
    Caps,
    DegenerateInput,
    DimensionMismatch,
    LatticePolytope,
    NotEquivalent,
    ParseError,
    RationalAffineMap,
    Region,
    RegionTooLarge,
    affine_equivalent,
    affine_map_census,
    build_volume_representatives,
    census,
    classes_by_volume,
    convex_hull_2d,
    dilate,
    enumerate_convex_polygons,
    hnf,
    lattice_height_vector,
    lattice_points,
    normalized_volume,
    orthant_hull_construction,
    primitive_decomposition,
    primitive_hyperplane,
    primitivity_scan,
    shave,
    simplex_determinant,
    sublattice_info,
    volume_vector,
)
from lattice_equiv.cli import parse_polytope
from lattice_equiv.geometry import (
    _Value, _ccw_lex_least, _hull_cycle, _polygon_point_count,
    _stored_polygon)

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
    # A 0-dimensional "simplex" is no simplex: not a determinant of 1.
    with pytest.raises(DegenerateInput,
                       match="^dimension must be an integer >= 1$"):
        simplex_determinant([()])


def test_point_set_functions_reject_non_sequence_points():
    for fn in (simplex_determinant, convex_hull_2d):
        with pytest.raises(DegenerateInput,
                           match=r"^points \[1, 2, 3\] are not a sequence "
                                 r"of coordinate sequences$"):
            fn([1, 2, 3])


def _parse(pts, dim):
    # JSON holds no Fraction: json.dumps writes one as its str.
    return parse_polytope(json.dumps({"dim": dim, "points": pts}, default=str))


# Every public entry that takes a point list from outside, called as
# entry(points, dim).
POINT_LIST_ENTRIES = {
    "LatticePolytope": lambda pts, dim: LatticePolytope(dim, pts),
    "convex_hull_2d": lambda pts, dim: convex_hull_2d(pts),
    "simplex_determinant": lambda pts, dim: simplex_determinant(pts),
    "volume_vector": volume_vector,
    "lattice_height_vector": lattice_height_vector,
    "primitive_hyperplane": lambda pts, dim: primitive_hyperplane(pts),
    "parse_polytope": _parse,
}
TAKE_DIM = ("LatticePolytope", "volume_vector", "lattice_height_vector",
            "parse_polytope")
TRIANGLE = [(0, 0), (1, 0), (0, 1)]


@pytest.mark.parametrize("points, dim, error, entries", [
    ([(0, 0), (True, 0), (0, 1)], 2, DegenerateInput, POINT_LIST_ENTRIES),
    ([(0, 0), (1.0, 0), (0, 1)], 2, DegenerateInput, POINT_LIST_ENTRIES),
    ([(0, 0), (Fraction(1), 0), (0, 1)], 2, DegenerateInput,
     POINT_LIST_ENTRIES),
    ([(0, 0), ("1", 0), (0, 1)], 2, DegenerateInput, POINT_LIST_ENTRIES),
    (5, 2, DegenerateInput, POINT_LIST_ENTRIES),
    ([(0, 0), 5, (0, 1)], 2, DegenerateInput, POINT_LIST_ENTRIES),
    ([(0, 0), (1, 0, 0), (0, 1)], 2, DimensionMismatch, POINT_LIST_ENTRIES),
    (TRIANGLE, 2.0, DegenerateInput, TAKE_DIM),
    (TRIANGLE, "2", DegenerateInput, TAKE_DIM),
    (TRIANGLE, True, DegenerateInput, TAKE_DIM),
    (TRIANGLE, 0, DegenerateInput, TAKE_DIM),
], ids=["bool", "float", "Fraction", "str", "non-sequence list",
        "non-sequence point", "wrong length", "dim 2.0", "dim '2'",
        "dim True", "dim 0"])
def test_point_list_entries_share_one_check(points, dim, error, entries):
    # An integer call first fills the invariants' index caches, which a
    # bad dim must not reach either way.
    lattice_height_vector(TRIANGLE, 2)
    for name in entries:
        expected = ParseError if name == "parse_polytope" else error
        with pytest.raises(expected):
            POINT_LIST_ENTRIES[name](points, dim)


# Every public count parameter, as id: (name in its message, least value,
# entry called with the count).  Each is checked by geometry._whole.
COUNT_PARAMETERS = {
    "max_vertices": ("max_vertices", 3, lambda n: enumerate_convex_polygons(
        Region.box(1), max_vertices=n)),
    "census": ("workers", 1, lambda n: census(Region.box(1), workers=n)),
    "primitivity_scan": ("workers", 1, lambda n: primitivity_scan(
        Region.box(1), workers=n)),
    "classes_by_volume": ("volume", 1, classes_by_volume),
    "build_volume_representatives": ("volume", 1,
                                     build_volume_representatives),
    "dilate": ("dilation factor", 1,
               lambda n: dilate(poly((0, 0), (1, 0), (0, 1)), n)),
    "Region": ("region dimension", 1, lambda n: Region.box(1, dim=n)),
    "LatticePolytope": ("dimension", 1,
                        lambda n: LatticePolytope(n, ((0,), (1,)))),
    "parse_polytope": ("'dim'", 1, lambda n: _parse([[0], [1]], n)),
    "CanonicalTriangle.g": ("g", 1, lambda n: CanonicalTriangle(n, 0, 1)),
    "CanonicalTriangle.a": ("a", 0, lambda n: CanonicalTriangle(1, n, 2)),
    "CanonicalTriangle.b": ("b", 1, lambda n: CanonicalTriangle(1, 0, n)),
} | {f"Caps.{name}": (f"caps.{name}", 1,
                      lambda n, name=name: Caps(**{name: n}))
     for name in Caps._fields}


@pytest.mark.parametrize("entry", COUNT_PARAMETERS)
def test_count_parameters_share_one_rule(entry):
    # A count is a plain int of at least its least value: a bool, a
    # float, a string or an int subclass is refused even where its value
    # would pass, so nothing is read as 1 or rounded.  JSON holds no int
    # subclass, so parse_polytope's 'dim' is not given one.
    name, least, call = COUNT_PARAMETERS[entry]
    bad = [True, float(least), str(least), least - 1]
    if entry != "parse_polytope":
        bad.append(IntEnum("Count", {"LEAST": least}).LEAST)
    error = ParseError if entry == "parse_polytope" else DegenerateInput
    for value in bad:
        with pytest.raises(error, match=f"^{re.escape(name)} must be an "
                                        f"integer >= {least}$"):
            call(value)
    call(least)


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


def test_lattice_points_are_capped_before_they_are_listed(monkeypatch):
    # The environment's caps.hull_points (1000 by default) bounds every
    # listing: a region and a 3d polytope are refused at their 1001st
    # point, a polygon by Pick's theorem before any of its points is
    # listed.
    big_box = Region.box(300)
    big_triangle = dilate(poly((0, 0), (1, 0), (0, 1)), 100)
    big_cube = dilate(
        LatticePolytope(3, tuple(product((0, 1), repeat=3))), 40)
    with pytest.raises(RegionTooLarge,
                       match="^box:300 has more lattice points than the cap "
                             "1000$"):
        lattice_points(big_box)
    with pytest.raises(CapExceeded,
                       match="has 5151 lattice points, above the cap 1000$"):
        lattice_points(big_triangle)
    with pytest.raises(CapExceeded, match="5151 lattice points"):
        shave(big_triangle, ((100, 0),))
    with pytest.raises(CapExceeded,
                       match="^the polytope has more lattice points than "
                             "the cap 1000$"):
        lattice_points(big_cube)
    # Pick's count refuses a polygon exactly above its cap.
    assert _polygon_point_count(big_triangle, 5151) == 5151
    with pytest.raises(CapExceeded, match="above the cap 5150$"):
        _polygon_point_count(big_triangle, 5150)
    monkeypatch.setenv("LATTICE_EQUIV_CAPS", "hull_points=100000")
    assert len(lattice_points(big_box)) == 301 ** 2
    assert len(lattice_points(big_triangle)) == 5151
    assert normalized_volume(shave(big_triangle, ((100, 0),))[0]) == 9999
    assert len(lattice_points(big_cube)) == 41 ** 3 == 68921


def test_thin_triangle_is_listed_by_columns():
    # The triangle (0, 0), (n, n - 1), (n + 1, n) is unimodular, so its
    # vertices are its only lattice points, while its bounding box holds
    # (n + 2)^2 points.  The listing takes its rows above the first edge,
    # two here, not the columns of that box.
    n = 10 ** 6
    vertices = ((0, 0), (n, n - 1), (n + 1, n))
    start = time.perf_counter()
    assert lattice_points(poly(*vertices)) == list(vertices)
    assert time.perf_counter() - start < 0.5


def test_polygon_rows_above_an_oblique_edge_match_the_box_filter():
    # Seeded polygons under seeded unimodular shears, so the first edge
    # is oblique and the rows above it cross the axes: the listing
    # equals the bounding-box filter, sorted, and is refused under a cap
    # one below its count.
    listing = import_module("lattice_equiv.geometry")._polytope_points
    rng = seeded(37)
    oblique = 0
    for _ in range(300):
        base = random_polygon(rng, span=3)
        p = poly(*apply_int_map(base.vertices, random_unimodular(rng, 2),
                                (rng.randint(-5, 5), rng.randint(-5, 5))))
        (x0, y0), (x1, y1) = p.vertices[:2]
        oblique += x1 != x0 and y1 != y0
        expected = reference_polytope_points(p)
        assert listing(p, len(expected)) == expected, p
        with pytest.raises(CapExceeded,
                           match=f"than the cap {len(expected) - 1}$"):
            listing(p, len(expected) - 1)
    assert oblique == 281


def test_thin_tetrahedron_is_listed_over_its_shadow(monkeypatch):
    # The tetrahedron (0,0,0), (1,0,0), (0,1,0), (300,300,1) is unimodular,
    # so its vertices are its only lattice points, while its bounding box
    # has 301^2 (x, y) columns.  Its (x, y) shadow holds 303 lattice
    # points, so listing it takes one interval per shadow row and one per
    # shadow point: 604 in all.
    geometry = import_module("lattice_equiv.geometry")
    calls = []

    def counted(*args, _interval=geometry._interval):
        calls.append(args)
        return _interval(*args)

    monkeypatch.setattr(geometry, "_interval", counted)
    vertices = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (300, 300, 1))
    assert lattice_points(LatticePolytope(3, vertices)) == sorted(vertices)
    assert len(calls) < 1000


def test_lattice_points_3d_match_the_box_filter():
    # Seeded point sets, prisms over seeded polygons (their side facets
    # are vertical, with normal z-component 0, and project onto edges of
    # the (x, y) shadow whose columns are listed) and unimodular images of
    # both, listed by columns against the bounding-box filter; each is
    # also refused under a cap one below its count.
    listing = import_module("lattice_equiv.geometry")._polytope_points
    rng = seeded(31)
    shapes = []
    while len(shapes) < 20:
        points = {tuple(rng.randint(-2, 2) for _ in range(3))
                  for _ in range(rng.randint(4, 7))}
        try:
            shapes.append(LatticePolytope(3, tuple(points)))
        except DegenerateInput:
            continue
    for _ in range(20):
        base, h = random_polygon(rng, span=2), rng.randint(1, 3)
        shapes.append(LatticePolytope(3, tuple(
            (x, y, z) for z in (0, h) for x, y in base.vertices)))
    for p in shapes[:]:
        matrix = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(2):
            i, j = rng.sample(range(3), 2)
            k = rng.choice((-2, -1, 1, 2))
            matrix[i] = [a + k * b for a, b in zip(matrix[i], matrix[j])]
        shift = tuple(rng.randint(-3, 3) for _ in range(3))
        shapes.append(LatticePolytope(3, tuple(
            apply_int_map(p.vertices, matrix, shift))))
    vertical = 0
    for p in shapes:
        vertical += any(normal[2] == 0
                        for normal, _ in reference_facet_inequalities(
                            p.vertices))
        expected = reference_polytope_points(p)
        assert listing(p, len(expected)) == expected, p
        with pytest.raises(CapExceeded,
                           match=f"than the cap {len(expected) - 1}$"):
            listing(p, len(expected) - 1)
    assert vertical >= 20


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
    # An exact rational radius is shown as such.
    assert Region.ball(Fraction(3, 2)).label() == "ball:3/2"
    assert Region.orthant_ball(
        radius_sq=Fraction(8, 2)).label() == "orthant-ball:2"
    assert Region.ball(radius_sq=Fraction(1, 2)).label() == "ball:sqrt(1/2)"
    assert Region.ball(0).label() == "ball:0"
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


def test_affine_map_converts_and_checks_its_entries():
    # The public constructor's work, which the library's own maps skip by
    # being built through geometry._map_over: int entries read back as
    # Fractions, and the sizes must agree.
    move = RationalAffineMap(((0, 1), (1, 0)), (1, 0))
    assert all(type(x) is Fraction
               for row in move.matrix + (move.translation,) for x in row)
    assert move == RationalAffineMap(
        ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        (Fraction(1), Fraction(0)))
    for matrix, translation in ((((1, 0), (0, 1)), (0, 0, 0)),
                                (((1, 0), (0,)), (0, 0))):
        with pytest.raises(DimensionMismatch):
            RationalAffineMap(matrix, translation)


@pytest.mark.parametrize("entry", [
    0.1, 1.0, True, False, "1/2", "1", None, Decimal("0.5")])
def test_affine_map_rejects_inexact_entries(entry):
    # An entry must be an int (not a bool) or a Fraction.  A float would be
    # stored at its binary value, a bool as 0 or 1 and a string as parsed,
    # so each is refused, in the matrix and in the translation alike.
    for matrix, translation in ((((entry, 0), (0, 1)), (0, 0)),
                                (((1, 0), (0, 1)), (0, entry))):
        with pytest.raises(DegenerateInput):
            RationalAffineMap(matrix, translation)
    # A region's size and radius follow the same rule.
    for make in (Region.box, Region.ball,
                 lambda x: Region.ball(radius_sq=x)):
        with pytest.raises(DegenerateInput):
            make(entry)


def test_affine_map_rejects_fractional_image():
    half = RationalAffineMap(((Fraction(1, 2), 0), (0, 1)), (0, 0))
    with pytest.raises(DegenerateInput):
        half.apply_polytope(poly((0, 0), (1, 0), (0, 1)))


def test_affine_map_compose():
    a = RationalAffineMap(((1, 0), (0, 1)), (1, 2))
    b = RationalAffineMap(((2, 0), (0, 2)), (0, 0))
    assert a.then(b).apply((0, 0)) == (2, 4)
    assert b.then(a).apply((0, 0)) == (1, 2)


def test_affine_map_refuses_another_dimension():
    # A map composes only with a map of its own dimension and maps only a
    # polytope of its own dimension; the error names both dimensions.
    flat = RationalAffineMap(((1, 0), (0, 1)), (1, 2))
    solid = RationalAffineMap(((0, 1, 0), (1, 0, 0), (0, 0, 2)), (1, 0, 0))
    square = poly((0, 0), (1, 0), (1, 1), (0, 1))
    cube = LatticePolytope(3, tuple(product((0, 1), repeat=3)))
    for call in (lambda: flat.then(solid), lambda: solid.then(flat),
                 lambda: flat.apply_polytope(cube),
                 lambda: solid.apply_polytope(square)):
        with pytest.raises(DimensionMismatch) as caught:
            call()
        assert "dimension 2" in str(caught.value)
        assert "dimension 3" in str(caught.value)


def _fraction_image(matrix, translation, point):
    """point @ matrix + translation over Fractions."""
    return tuple(sum((p * row[c] for p, row in zip(point, matrix)),
                     Fraction(0)) + translation[c]
                 for c in range(len(translation)))


def test_integer_map_form_agrees_with_fraction_arithmetic():
    # A map is held as ints over one positive denominator in lowest terms,
    # so _map_over(k * rows, k * shift, k * den), for any k != 0, equals
    # and hashes as the map built from the Fractions rows / den and
    # shift / den.  Each operation must agree with the same operation done
    # here on those Fractions: matrix, translation, determinant, apply,
    # apply_polytope (which refuses a fractional image), is_integral,
    # is_unimodular and then.
    geometry = import_module("lattice_equiv.geometry")
    rng = seeded(331)
    bodies = {2: poly((0, 0), (2, 0), (1, 3)),
              3: LatticePolytope(3, ((0, 0, 0), (2, 0, 0), (0, 3, 0),
                                     (1, 1, 2)))}
    seen = Counter()
    for trial in range(400):
        d = 2 + trial % 2
        den = rng.choice((1, 2, 3, 4, 6)) * rng.choice((1, -1))
        if trial % 4 < 2:
            # den times a unimodular matrix and an integer shift.
            unit = (random_unimodular(rng) if d == 2
                    else random_unimodular_3d(rng))
            rows = [[den * x for x in row] for row in unit]
            shift = [den * rng.randint(-3, 3) for _ in range(d)]
        else:
            rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
            shift = [rng.randint(-6, 6) for _ in range(d)]
        k = rng.choice((1, -1, 2, 3))
        built = geometry._map_over(
            tuple(tuple(k * x for x in row) for row in rows),
            tuple(k * s for s in shift), k * den)
        matrix = tuple(tuple(Fraction(x, den) for x in row) for row in rows)
        translation = tuple(Fraction(s, den) for s in shift)
        public = RationalAffineMap(matrix, translation)
        det = permutation_det(matrix)
        for amap in (built, public):
            # The Fraction fields are computed on each read and kept
            # nowhere, so equality, hashing and pickling see the ints only.
            for _ in range(2):
                assert amap.matrix == matrix
                assert amap.translation == translation
                assert amap.determinant == det
            assert not hasattr(amap, "__dict__")
            assert type(amap).__slots__ == ("rows", "shift", "den")
        assert built == public and hash(built) == hash(public)
        assert built.den > 0 and gcd(
            built.den, *built.shift, *sum(built.rows, ())) == 1
        integral = all(x.denominator == 1
                       for x in translation + sum(matrix, ()))
        assert built.is_integral == integral
        assert built.is_unimodular == (integral and abs(det) == 1)
        seen["integral"] += integral
        seen["unimodular"] += built.is_unimodular
        point = tuple(rng.randint(-5, 5) for _ in range(d))
        assert built.apply(point) == _fraction_image(
            matrix, translation, point)
        image = [_fraction_image(matrix, translation, v)
                 for v in bodies[d].vertices]
        if any(x.denominator != 1 for v in image for x in v):
            seen["refused"] += 1
            with pytest.raises(DegenerateInput):
                built.apply_polytope(bodies[d])
        elif det:
            seen["mapped"] += 1
            assert built.apply_polytope(bodies[d]) == LatticePolytope(
                d, tuple(tuple(map(int, v)) for v in image))
        other = RationalAffineMap(
            tuple(tuple(rng.randint(-4, 4) for _ in range(d))
                  for _ in range(d)),
            tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5)))
                  for _ in range(d)))
        both = built.then(other)
        assert both.matrix == tuple(
            tuple(sum((a * b for a, b in zip(row, col)), Fraction(0))
                  for col in zip(*other.matrix)) for row in matrix)
        assert both.translation == _fraction_image(
            other.matrix, other.translation, translation)
        assert both == RationalAffineMap(both.matrix, both.translation)
    assert min(seen[key] for key in (
        "integral", "unimodular", "refused", "mapped")) >= 40, seen


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


def test_span_check_in_dimension_3_and_up():
    # The differences from the first vertex must have full rank, all of
    # them and not the first d: the lex-ordered unit cube's first three
    # differences lie in the plane x = 0.
    for dim, points in (
            (3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))),
            (3, ((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (1, 1, 0))),
            (4, ((0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 0),
                 (1, 1, 1, 2), (2, 0, 0, 2)))):
        with pytest.raises(DegenerateInput,
                           match="^vertices do not span the ambient space$"):
            LatticePolytope(dim, points)
    assert UNIT_CUBE == tuple(sorted(UNIT_CUBE))
    assert LatticePolytope(3, UNIT_CUBE).vertices == UNIT_CUBE
    simplex = ((0, 0, 0, 0),) + tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4))
    assert LatticePolytope(4, simplex).vertices == simplex


def seeded_point_sets_3d(rng, count, span):
    """`count` seeded tuples of 4 to 9 distinct points of [-span, span]^3
    that span space (their volume vector is not zero), in random order:
    many hold points inside their hull, on a facet or on an edge."""
    grid = list(product(range(-span, span + 1), repeat=3))
    sets = []
    while len(sets) < count:
        points = tuple(rng.sample(grid, rng.randint(4, 9)))
        try:
            volume_vector(points)
        except DegenerateInput:
            continue
        sets.append(points)
    return sets


def test_3d_facets_match_the_triple_loop_on_seeded_point_sets():
    # On 2,000 seeded point sets, a unimodular image of each and the named
    # shapes (the side-2 cube with its centre, a facet centre and an edge
    # midpoint among them), the vertices by the meet rule of `_hull_of`
    # are exactly the points that lie in no simplex of the others
    # (Caratheodory).  The polytope of those vertices has the frozen
    # projection volume of all the points, and the half-spaces of the
    # frozen triple loop on all the points, as sets (taken once per set,
    # for the volume and the half-spaces).  A unimodular image keeps the
    # volume and the point order, so its volume and vertex indices are the
    # set's.
    rng = seeded(281)
    doubled = tuple(product((0, 2), repeat=3))
    named = [UNIT_CUBE, FRUSTUM, OCTAHEDRON, PRISM, SIMPLEX,
             doubled + ((1, 1, 1), (1, 1, 0), (1, 0, 0))]
    geometry = import_module("lattice_equiv.geometry")
    inside = 0
    for points in named + seeded_point_sets_3d(rng, 2000, 3):
        facets = reference_facet_inequalities(points)
        volume = reference_volume_3d(points, facets)
        vertices = geometry._hull_of(points, 3)[2]
        assert vertices == reference_vertices(points, 3), points
        inside += len(points) - len(vertices)
        image = tuple(apply_int_map(
            points, random_unimodular_3d(rng),
            tuple(rng.randint(-3, 3) for _ in range(3))))
        assert geometry._hull_of(image, 3)[2] == vertices, points
        for raw, halves in ((points, facets),
                            (image, reference_facet_inequalities(image))):
            q = LatticePolytope(3, tuple(raw[i] for i in sorted(vertices)))
            assert normalized_volume(q) == volume, raw
            assert sorted(geometry._half_spaces(q)) == sorted(halves), raw
    assert inside == 897


def test_meet_rule_matches_caratheodory_on_seeded_point_sets():
    # By Caratheodory's theorem a point is not a vertex of the hull of a
    # point set exactly when it lies in a simplex of d + 1 of the other
    # points (conftest.reference_vertices).  The meet rule agrees on
    # seeded 3d and 4d sets, many of them with points that are not
    # vertices.
    geometry = import_module("lattice_equiv.geometry")
    rng = seeded(293)
    seen = Counter()
    for d, count, span, most in ((3, 300, 2, 9), (4, 300, 1, 8)):
        grid = list(product(range(-span, span + 1), repeat=d))
        checked = 0
        while checked < count:
            points = tuple(rng.sample(grid, rng.randint(d + 1, most)))
            try:
                volume_vector(points)
            except DegenerateInput:
                continue
            expect = reference_vertices(points, d)
            assert geometry._hull_of(points, d)[2] == expect, points
            seen[d, len(expect) < len(points)] += 1
            checked += 1
    assert seen == {(3, True): 126, (3, False): 174,
                    (4, True): 43, (4, False): 257}


def test_hull_polytope_reads_the_kept_vertices_off_the_first_hull():
    # A raw point set with points that are not vertices takes one hull:
    # `_hull_polytope` reads the kept vertices' volume vector and facets
    # off it, and they are what the constructor computes on those
    # vertices anew: the same polytope, the same entries, the same facets
    # as point sets, and in 3d the same half-spaces.
    geometry = import_module("lattice_equiv.geometry")
    rng = seeded(307)
    checked = Counter()
    for d, count, span, most in ((3, 60, 2, 10), (4, 30, 1, 8)):
        grid = list(product(range(-span, span + 1), repeat=d))
        while checked[d] < count:
            points = tuple(rng.sample(grid, rng.randint(d + 2, most)))
            try:
                corners = geometry._hull_of(points, d)[2]
            except DegenerateInput:
                continue
            if len(corners) == len(points):
                continue
            p = geometry._hull_polytope(points, d)
            q = LatticePolytope(d, tuple(points[i] for i in sorted(corners)))
            assert p == q and p.vertices == q.vertices, points
            assert p._record[0] == q._record[0], points
            assert set(p._record[1]) == set(q._record[1]), points
            assert len(p._record[1]) == len(q._record[1]), points
            if d == 3:
                assert sorted(geometry._half_spaces(p)) \
                    == sorted(geometry._half_spaces(q)), points
            checked[d] += 1


def test_3d_volume_reads_entries_by_lex_rank_without_a_table():
    # The 3d normalized volume reads each volume-vector entry at the lex
    # rank of its sorted index quadruple, a sum of binomial coefficients:
    # it equals the frozen projection volume on seeded point sets (hulled
    # to their vertices), and on a polytope of a vertex count the process
    # has not seen, it adds no index_positions entry to those the
    # constructor's volume vector made.
    geometry = import_module("lattice_equiv.geometry")
    invariants = import_module("lattice_equiv.invariants")
    rng = seeded(331)
    for points in seeded_point_sets_3d(rng, 300, 3):
        corners = geometry._hull_of(points, 3)[2]
        q = LatticePolytope(3, tuple(points[i] for i in sorted(corners)))
        assert normalized_volume(q) == reference_volume_3d(points), points
    ring = tuple((x, y, z) for x, y in ((3, 0), (2, 2), (0, 3), (-2, 2),
                                        (-3, 0), (-2, -2), (0, -3), (2, -2))
                 for z in (0, 1))
    invariants.index_positions.cache_clear()
    prism = LatticePolytope(3, ring)
    made = invariants.index_positions.cache_info().currsize
    assert normalized_volume(prism) == reference_volume_3d(ring) == 6 * 24
    assert invariants.index_positions.cache_info().currsize == made


def test_unchecked_builds_match_the_checked_constructor():
    # `_stored_polygon` and `_hull_polytope` set the slots through their
    # descriptors' setters, without the constructor's check.  What they
    # build equals and hashes as the checked polytope, survives a pickle
    # round trip, refuses every assignment, and keeps the record the
    # constructor would: none for a polygon, the hull's in 3d.
    geometry = import_module("lattice_equiv.geometry")
    rng = seeded(337)
    built = []
    for p in rng.sample(enumerate_convex_polygons(Region.box(3)), 200):
        stored = _stored_polygon(p.vertices)
        assert not hasattr(stored, "_record")
        built.append((stored, LatticePolytope(2, p.vertices[::-1])))
    for points in seeded_point_sets_3d(rng, 100, 2):
        corners = geometry._hull_of(points, 3)[2]
        hulled = geometry._hull_polytope(points, 3)
        checked = LatticePolytope(3, tuple(points[i] for i in sorted(corners)))
        assert hulled._record[0] == checked._record[0], points
        assert sorted(hulled._record[1]) == sorted(checked._record[1])
        built.append((hulled, checked))
    for unchecked, checked in built:
        assert type(unchecked) is LatticePolytope
        assert unchecked == checked and hash(unchecked) == hash(checked)
        assert unchecked.vertices == checked.vertices
        clone = pickle.loads(pickle.dumps(unchecked))
        assert clone == checked and clone.vertices == checked.vertices
        for name in ("dim", "vertices", "_record"):
            with pytest.raises(AttributeError):
                setattr(unchecked, name, None)
        assert unchecked == checked


def test_the_hull_is_certified_in_the_library():
    # Points that are not all vertices are refused in every dimension from
    # 3 on, so none of these is stored, nor compared by the vertex counts
    # of a wrong vertex set: the side-2 cube plus its centre, 2 * unit
    # simplex plus (1, 0, 0) on an edge, and the 4d unit simplex plus
    # (1, 1, 1, 1) and (0, 0, 0, 2), which puts (0, 0, 0, 1) on an edge.
    simplex_4d = ((0, 0, 0, 0),) + tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4))
    for dim, points in (
            (3, tuple(product((0, 2), repeat=3)) + ((1, 1, 1),)),
            (3, ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 0))),
            (4, simplex_4d + ((1, 1, 1, 1), (0, 0, 0, 2)))):
        with pytest.raises(
                DegenerateInput,
                match="^vertices are not in strictly convex position$"):
            LatticePolytope(dim, points)
    hull = simplex_4d[:4] + ((1, 1, 1, 1), (0, 0, 0, 2))
    assert LatticePolytope(4, hull).vertices == hull


def test_contains_3d_matches_the_box_filter_with_non_vertex_points():
    # Seeded point sets that hold points inside their hull, on a facet or
    # on an edge, each stored as the polytope of its hull's vertices: over
    # the points' bounding box grown by one, `contains` holds exactly the
    # points that every facet inequality of the frozen triple loop on all
    # the points holds.
    hull_of = import_module("lattice_equiv.geometry")._hull_of
    shapes = [points for points in seeded_point_sets_3d(seeded(283), 60, 2)
              if len(hull_of(points, 3)[2]) < len(points)][:20]
    assert len(shapes) == 20
    for points in shapes:
        p = LatticePolytope(3, tuple(
            points[i] for i in sorted(hull_of(points, 3)[2])))
        facets = reference_facet_inequalities(points)
        for pt in product(*(range(min(c) - 1, max(c) + 2)
                            for c in zip(*points))):
            assert p.contains(pt) == all(
                sum(a * b for a, b in zip(normal, pt)) + offset <= 0
                for normal, offset in facets), (p, pt)


def counted_facets(monkeypatch):
    """The list of the (entries, n, d) that `invariants.facets` is called
    with from now on, and the unpatched `invariants.volume_vector`."""
    module = import_module("lattice_equiv.invariants")
    facets = module.facets
    calls = []

    def counted(entries, n, d):
        calls.append((entries, n, d))
        return facets(entries, n, d)

    monkeypatch.setattr(module, "facets", counted)
    return calls


def test_lattice_points_3d_match_brute_force_with_one_facet_list(
        monkeypatch):
    # The constructor reads the facets once, from one volume vector of the
    # polytope's vertices, and keeps them: the listing reads them no more.
    # Cubes of side 2 and 4 hold 27 and 125 points; the corner simplex
    # x/4 + y/3 + z/2 <= 1 is counted by its inequality, and a unimodular
    # image of it holds the images of those points.
    calls = counted_facets(monkeypatch)

    def listed(verts):
        calls.clear()
        p = LatticePolytope(3, tuple(verts))
        assert calls == [(volume_vector(p.vertices).entries,
                          len(p.vertices), 3)]
        calls.clear()
        points = lattice_points(p)
        assert calls == []
        return points

    for side, count in ((2, 27), (4, 125)):
        points = listed(product((0, side), repeat=3))
        assert len(points) == count
        assert points == list(product(range(side + 1), repeat=3))
    corner = ((0, 0, 0), (4, 0, 0), (0, 3, 0), (0, 0, 2))
    brute = [pt for pt in product(range(5), range(4), range(3))
             if 6 * pt[0] + 8 * pt[1] + 12 * pt[2] <= 24]
    assert listed(corner) == brute
    matrix, shift = ((0, 1, -1), (1, 2, 0), (0, 0, 1)), (1, -2, 3)
    assert listed(apply_int_map(corner, matrix, shift)) \
        == sorted(apply_int_map(brute, matrix, shift))


def test_contains_reads_the_facets_once_per_polytope(monkeypatch):
    # 1,000 `contains` calls on the side-2 cube, 2 of them inside, read
    # the facets of the one volume vector its constructor built, once.
    calls = counted_facets(monkeypatch)
    cube = LatticePolytope(3, tuple(product((0, 2), repeat=3)))
    inside = sum(cube.contains((x, x - 1, 2 - x)) for x in range(-499, 501))
    assert inside == 2
    assert calls == [(volume_vector(cube.vertices).entries, 8, 3)]


BIG_TRIANGLE = poly((0, 0), (2, 0), (0, 2))
CUBE = LatticePolytope(3, tuple(
    (x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)))
IDENTITY = RationalAffineMap(((1, 0), (0, 1)), (0, 0))
SWAP_3D = RationalAffineMap(((0, 1, 0), (1, 0, 0), (0, 0, 2)),
                            (1, 0, Fraction(1, 2)))


@pytest.mark.parametrize("door, short, long, answers", [
    (BIG_TRIANGLE.contains, (1,), (0, 0, 5),
     {(0, 0): True, (1, 1): True, (2, 1): False, (-1, 0): False}),
    (CUBE.contains, (1, 1), (1, 1, 1, 1),
     {(1, 1, 1): True, (0, 0, 2): True, (3, 0, 0): False}),
    (IDENTITY.apply, (1,), (1, 2, 3),
     {(1, 2): (1, 2), (-3, 0): (-3, 0)}),
    (SWAP_3D.apply, (1, 2), (1, 2, 3, 4),
     {(1, 2, 3): (3, 1, Fraction(13, 2)), (0, 0, 0): (1, 0, Fraction(1, 2))}),
], ids=["contains-2d", "contains-3d", "apply-2d", "apply-3d"])
def test_a_single_point_passes_the_point_check(door, short, long, answers):
    # contains and apply give a point from outside the check a vertex list
    # gets: as many coordinates as the dimension, each a plain int.  A
    # rational point is refused too, on purpose: a map acts on lattice
    # points.  Valid points keep their answers.
    dim = len(short) + 1
    for point in (short, long, ()):
        with pytest.raises(DimensionMismatch):
            door(point)
    for c in (True, 1.0, Fraction(1, 2), Fraction(1)):
        with pytest.raises(DegenerateInput):
            door((0,) * (dim - 1) + (c,))
    with pytest.raises(DegenerateInput):
        door(5)
    assert {point: door(point) for point in answers} == answers


def test_strict_hull_oracle_agrees_with_hull():
    pts = [(0, 0), (4, 1), (2, 3), (1, 1), (3, 2), (0, 3)]
    assert tuple(strict_hull(pts)) == convex_hull_2d(pts).vertices


# One call per value class of the library, each building equal values on
# every call.
VALUES = [
    lambda: LatticePolytope(3, UNIT_CUBE),
    lambda: RationalAffineMap(((2, Fraction(1, 3)), (0, 1)), (Fraction(1, 2), 4)),
    lambda: Region.ball(radius_sq=5),
    Caps,
    lambda: volume_vector(UNIT_CUBE),
    lambda: primitive_decomposition((2, -4, 6)),
    lambda: primitive_hyperplane(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    lambda: lattice_height_vector(SIMPLEX),
    lambda: hnf([[2, 4], [1, 3]]),
    lambda: sublattice_info(poly((0, 0), (2, 0), (0, 2))),
    lambda: NotEquivalent("vertex counts differ"),
    lambda: affine_equivalent(poly((0, 0), (1, 0), (0, 1)),
                              poly((0, 0), (2, 0), (0, 1))),
    lambda: CanonicalTriangle(2, 1, 3),
    lambda: census(Region.box(1)),
    lambda: primitivity_scan(Region.box(1)),
    lambda: affine_map_census(Region.ball(1), 10),
    lambda: orthant_hull_construction(2),
]


def test_values_compare_hash_print_and_copy_by_their_fields():
    """Each of the 17 value classes, built on geometry._Value, keeps what
    frozen dataclasses gave: equal fields make equal values whose hash is
    that of the field tuple; an instance of another class, even with the
    same fields and values, is not equal; the repr lists the fields in
    order; no field can be assigned or deleted; copy, deepcopy and pickle
    give an equal value; and no value has a __dict__.  A slot that is not
    a field (a polytope's `_record`, a weak reference) is in none of
    these."""
    built = [(make(), make()) for make in VALUES]
    library = {cls for cls in _Value.__subclasses__()
               if cls.__module__.startswith("lattice_equiv.")}
    assert {type(x) for x, _ in built} == library and len(library) == 17
    for x, y in built:
        cls, fields = type(x), type(x)._fields
        values = tuple(getattr(x, name) for name in fields)
        twin = type("Twin", (_Value,), {"__slots__": fields})(*values)
        assert x is not y and x == y and not x != y
        assert hash(x) == hash(y) == hash(values)
        assert x != twin and twin != x and x != values
        assert repr(x) == "{}({})".format(cls.__name__, ", ".join(
            f"{name}={value!r}" for name, value in zip(fields, values)))
        for name, value in zip(fields, values):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == y
        for clone in (copy.copy(x), copy.deepcopy(x),
                      pickle.loads(pickle.dumps(x))):
            assert type(clone) is cls and clone == x
        assert not hasattr(x, "__dict__")
    cube = built[0][0]
    assert cube._record and "_record" not in repr(cube)
    assert repr(Region.box(3)) \
        == "Region(kind='box', size=Fraction(3, 1), dim=2)"


def test_values_take_their_fields_by_position_or_keyword():
    # Every field can be named, the last ones have their defaults, and a
    # missing or unknown argument is refused as by any Python function.
    assert CanonicalTriangle(g=2, b=3, a=1) == CanonicalTriangle(2, 1, 3)
    assert Region("box", 3) == Region(kind="box", size=3, dim=2)
    assert NotEquivalent() == NotEquivalent(reason="")
    assert Caps(max_volume=20) == Caps(40, 8, 20, 1000)
    assert Caps().hull_points == 1000
    for call in (lambda: CanonicalTriangle(2, 1), lambda: Caps(cap=3),
                 lambda: NotEquivalent("a", "b")):
        with pytest.raises(TypeError):
            call()


def test_polytopes_are_slotted():
    """A polytope has no __dict__ and cannot be weakly referenced, at the
    size it had with a weak-reference slot in place of `_record`.  The
    census's unchecked _stored_polygon and the checked constructor build
    equal polygons with equal hashes, pickle and copy rebuild any
    polytope, and a polygon keeps no record, even once decided."""
    equivalence = import_module("lattice_equiv.equivalence")
    cycle = ((203, 11), (206, 11), (207, 13), (203, 12))
    stored = _stored_polygon(cycle)
    checked = LatticePolytope(2, cycle[2:] + cycle[:2])
    assert not hasattr(stored, "__dict__")
    assert stored == checked and hash(stored) == hash(checked)
    assert LatticePolytope.__slots__ == ("dim", "vertices", "_record")
    assert LatticePolytope._fields == ("dim", "vertices")
    with pytest.raises(TypeError):
        weakref.ref(checked)
    weak = type("Weak", (), {"__slots__": ("dim", "vertices", "__weakref__")})
    assert sys.getsizeof(stored) == sys.getsizeof(weak())
    cube = LatticePolytope(3, tuple(product((0, 1), repeat=3)))
    segment = LatticePolytope(1, ((4,), (2,)))
    for p in (stored, cube, segment):
        for clone in (copy.copy(p), copy.deepcopy(p),
                      pickle.loads(pickle.dumps(p))):
            assert clone == p and clone.vertices == p.vertices
            assert type(clone) is LatticePolytope
    for mode in equivalence.MODES:
        assert equivalence.decide(stored, checked, mode)
        assert equivalence.decide(segment, segment, mode)
    assert not any(hasattr(p, "_record") for p in (stored, checked, segment))
