"""The capped quarter-ball construction and vertex shaving."""

import time
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import poly, random_polygon, seeded
from lattice_equiv import (
    CapExceeded,
    Caps,
    DegenerateInput,
    DegenerateResult,
    DimensionMismatch,
    LatticePolytope,
    Region,
    RegionTooLarge,
    census,
    convex_hull_2d,
    lattice_points,
    normalized_volume,
    orthant_hull_construction,
    shave,
)


def test_radius_one():
    rep = orthant_hull_construction(1)
    assert rep.p == 1
    assert rep.case == 1
    assert rep.base.vertices == ((0, 0), (2, 0), (0, 2))
    assert rep.augmented.vertices == ((0, 0), (2, 0), (2, 1), (0, 2))
    assert rep.b == ((2, 0), (2, 1))
    assert rep.added_points == ((2, 1),)
    assert rep.volume_delta == 2
    assert rep.identity_holds


def test_radius_two_worked_values():
    rep = orthant_hull_construction(2)
    assert rep.p == 2
    assert rep.case == 1
    # (2,2) lies on the edge from (4,0) to (0,4), so the polytope equals
    # the hull of the four listed corners
    assert rep.base == convex_hull_2d([(0, 0), (4, 0), (2, 2), (0, 4)])
    assert rep.augmented.vertices == ((0, 0), (4, 0), (4, 1), (0, 4))
    assert rep.b == ((4, 0), (4, 1))
    assert rep.added_points == ((4, 1),)
    assert rep.volume_delta == 4


def test_integer_radii_are_case_one():
    # (p, y) with y >= 1 cannot satisfy p^2 + y^2 <= p^2, so the column
    # at x = p holds a single point and the cap sits at x = 2p
    for r in range(1, 11):
        rep = orthant_hull_construction(r)
        assert rep.case == 1
        assert rep.p == r
        assert rep.b == ((2 * r, 0), (2 * r, 1))
        assert rep.added_points == ((2 * r, 1),)
        assert rep.identity_holds
        assert rep.volume_delta >= 0
        for v in rep.base.vertices:
            assert rep.augmented.contains(v)


def test_fractional_radius_case_two():
    rep = orthant_hull_construction(radius_sq=2)
    assert rep.p == 1
    assert rep.case == 2
    assert rep.base.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))
    assert rep.b == ((3, 0), (3, 1))
    # the whole cap column is new: (3, 0) is added as well as (3, 1)
    assert rep.added_points == ((3, 0), (3, 1))
    assert not rep.identity_holds
    assert rep.augmented.vertices == ((0, 0), (3, 0), (3, 1), (2, 2), (0, 2))

    rep5 = orthant_hull_construction(radius_sq=5)
    assert (rep5.p, rep5.case) == (2, 2)
    assert rep5.b == ((5, 0), (5, 1))


def test_volume_accounting():
    for kwargs in ({"r": 3}, {"r": 7}, {"radius_sq": 2}, {"radius_sq": 10}):
        rep = orthant_hull_construction(
            kwargs.get("r"), radius_sq=kwargs.get("radius_sq"))
        assert normalized_volume(rep.augmented) == \
            normalized_volume(rep.base) + rep.volume_delta
        base_pts = set(lattice_points(rep.base))
        aug_pts = set(lattice_points(rep.augmented))
        assert base_pts <= aug_pts
        assert tuple(sorted(aug_pts - base_pts)) == rep.added_points


def test_shaving_undoes_the_cap():
    for r in range(1, 11):
        rep = orthant_hull_construction(r)
        back, removed = shave(rep.augmented, rep.added_points)
        assert back == rep.base
        assert removed == rep.volume_delta


def test_construction_validation():
    with pytest.raises(DegenerateInput):
        orthant_hull_construction(0)
    with pytest.raises(DegenerateInput):
        orthant_hull_construction(-1)
    with pytest.raises(DegenerateInput):
        orthant_hull_construction(2, radius_sq=4)
    with pytest.raises(DegenerateInput):
        orthant_hull_construction()


def test_hull_points_are_capped_before_they_are_listed():
    # The quarter disc of radius 10**6 holds about 7.9e11 lattice points;
    # it is refused at its first rows, without listing a point.
    start = time.monotonic()
    with pytest.raises(RegionTooLarge) as hull:
        orthant_hull_construction(10 ** 6)
    # The census refuses the same region at the same cap in the same words.
    with pytest.raises(RegionTooLarge) as region:
        census(Region.orthant_ball(10 ** 6), caps=Caps(region_points=1000))
    assert str(hull.value) == str(region.value)
    with pytest.raises(CapExceeded):
        orthant_hull_construction(radius_sq=10 ** 12 + 1)
    assert time.monotonic() - start < 5
    # The quarter disc of radius 6 has 35 points, within a cap of 100,
    # but its augmented hull has 122 (Pick), so the hull check refuses it.
    small = Caps(hull_points=100)
    assert len(lattice_points(orthant_hull_construction(
        5, caps=small).augmented)) == 89
    with pytest.raises(CapExceeded, match="122 lattice points"):
        orthant_hull_construction(6, caps=small)


def test_shave_examples():
    tri = poly((0, 0), (2, 0), (0, 2))
    img, removed = shave(tri, ((2, 0),))
    assert img.vertices == ((0, 0), (1, 0), (1, 1), (0, 2))
    assert removed == 1

    unchanged, zero = shave(tri, ())
    assert unchanged == tri and zero == 0

    with pytest.raises(DegenerateResult):
        shave(poly((0, 0), (1, 0), (0, 1)), ((1, 0),))


def test_shave_requires_vertices():
    tri = poly((0, 0), (2, 0), (0, 2))
    with pytest.raises(DegenerateInput):
        shave(tri, ((1, 0),))  # edge midpoint, not a vertex
    with pytest.raises(DimensionMismatch):
        shave(LatticePolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0),
                                  (0, 0, 1))), ((1, 0, 0),))


def test_shave_takes_only_integer_points():
    # Each row equals the vertex (2, 0) under ==, but is not a lattice
    # point of plain ints: shave refuses it as contains does, instead of
    # shaving (2, 0).  A point of the wrong length is a DimensionMismatch.
    tri = poly((0, 0), (2, 0), (0, 2))
    for row in ((2.0, 0), (2, False), (Fraction(2), 0), (Decimal(2), 0)):
        for call in (lambda: shave(tri, [row]), lambda: tri.contains(row)):
            with pytest.raises(DegenerateInput,
                               match="^coordinates must be plain integers"):
                call()
    with pytest.raises(DimensionMismatch):
        shave(tri, [(2, 0, 0)])


def test_shave_order_independent():
    rng = seeded(73)
    for _ in range(60):
        p = random_polygon(rng, span=3)
        verts = list(p.vertices)
        count = rng.randint(1, min(2, len(verts)))
        doomed = rng.sample(verts, count)
        try:
            direct, removed = shave(p, doomed)
        except DegenerateResult:
            continue
        order = doomed[:]
        rng.shuffle(order)
        step = p
        total = 0
        try:
            for v in order:
                step, gone = shave(step, (v,))
                total += gone
        except DegenerateResult:
            continue
        assert step == direct
        assert total == removed
