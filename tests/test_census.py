"""Polygon enumeration, class censuses, by-volume counts, and scans."""

import concurrent.futures
import inspect
import json
import sys
from collections import Counter
from fractions import Fraction
from importlib import import_module
from itertools import product

import pytest

from conftest import (
    SMALL_REGIONS, apply_int_map, brute_polygon_sets, budgeted_root_polygons,
    cross, oracle_class_count, poly, random_unimodular,
    reference_one_point_growths, reference_polytope_points,
    reference_sublattice, run_in_small_address_space, seeded, strict_hull,
    volume_forms)
from lattice_equiv import (
    Caps,
    CapExceeded,
    DegenerateInput,
    DegenerateResult,
    LatticePolytope,
    Region,
    RegionTooLarge,
    affine_equivalent,
    affine_key,
    affine_map_census,
    build_volume_representatives,
    canonical_polygon,
    census,
    classes_by_volume,
    dilate,
    enumerate_convex_polygons,
    lattice_points,
    normalized_volume,
    oracle_equivalent,
    orthant_hull_construction,
    primitive_decomposition,
    primitivity_scan,
    shave,
    shrink_to_minimal_volume,
    attains_minimal_volume,
    sublattice_info,
    unimodular_equivalent,
    volume_vector,
)
from lattice_equiv.cli import run_command

UNIT = poly((0, 0), (1, 0), (0, 1))


def test_enumerate_ball_one():
    polys = enumerate_convex_polygons(Region.ball(1))
    assert len(polys) == 9
    sizes = sorted(len(p.vertices) for p in polys)
    assert sizes == [3] * 8 + [4]


def test_enumerate_unit_box():
    polys = enumerate_convex_polygons(Region.box(1))
    assert len(polys) == 5
    assert sorted(len(p.vertices) for p in polys) == [3, 3, 3, 3, 4]


def test_enumerate_empty_region():
    assert list(enumerate_convex_polygons(Region.ball(0))) == []


def test_enumerate_matches_subset_scan():
    for region in (Region.ball(1), Region.box(2), Region.ball(2)):
        sets = brute_polygon_sets(lattice_points(region))
        for max_vertices in (3, 4, None):
            polys = enumerate_convex_polygons(region, max_vertices)
            got = {frozenset(p.vertices) for p in polys}
            assert len(got) == len(polys)
            assert got == {s for s in sets if max_vertices is None
                           or len(s) <= max_vertices}


def test_enumerate_deterministic():
    assert enumerate_convex_polygons(Region.ball(2)) == \
        enumerate_convex_polygons(Region.ball(2))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool, under the name the census's pool branch
    imports, by one that maps inline; return the list of the max_workers
    each pool was asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_census_starts_at_most_one_worker_per_lattice_point(pool_sizes):
    # Each census or scan starts one pool, for the canonicalization, of
    # at most one worker per lattice point, however many are asked for.
    region = Region.ball(2)  # 13 lattice points
    assert census(region, workers=10**6) == census(region)
    assert primitivity_scan(region, workers=10**6) == primitivity_scan(region)
    assert pool_sizes == [13, 13]
    pool_sizes.clear()
    assert census(Region.ball(0), workers=10**6).h == 0
    assert primitivity_scan(Region.ball(0), workers=10**6).examined == 0
    assert pool_sizes == []


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")


@pytest.fixture
def no_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)


def test_one_worker_and_enumeration_start_no_pool(no_pool):
    region = Region.ball(2)
    assert len(enumerate_convex_polygons(region)) == 861
    with pytest.raises(TypeError):  # the enumeration has no workers knob
        enumerate_convex_polygons(region, workers=2)
    assert census(region, workers=1).h == 861
    assert primitivity_scan(region, workers=1).examined == 550


def test_only_a_pooled_census_loads_the_pool_modules():
    # A fresh interpreter that imports the package, runs a one-worker
    # census, decides a 2d and a 3d pair and builds the volume
    # representatives has loaded no pool module; its first pooled census
    # loads them.
    result = run_in_small_address_space(
        "import sys\n"
        "from lattice_equiv import (LatticePolytope, Region,"
        " affine_equivalent, build_volume_representatives, census)\n"
        "POOL = ('concurrent.futures.process', 'multiprocessing')\n"
        "def loaded():\n"
        "    return [m for m in POOL if m in sys.modules]\n"
        "assert census(Region.box(2), workers=1).h == 168\n"
        "cube = tuple((x, y, z) for x in (0, 1) for y in (0, 1)"
        " for z in (0, 1))\n"
        "assert affine_equivalent(LatticePolytope(3, cube), LatticePolytope("
        "3, tuple((x + y, y, z) for x, y, z in cube)))\n"
        "assert affine_equivalent(LatticePolytope(2, ((0, 0), (1, 0), "
        "(0, 1))), LatticePolytope(2, ((0, 0), (2, 0), (0, 1))))\n"
        "assert len(build_volume_representatives(6)) == 9\n"
        "assert loaded() == [], loaded()\n"
        "assert census(Region.box(2), workers=2).h == 168\n"
        "assert loaded() == list(POOL), loaded()\n")
    assert result.returncode == 0, result.stderr


def test_workers_validation(no_pool):
    for workers in ("2", -3, 0, True, False, 2.0):
        with pytest.raises(DegenerateInput):
            census(Region.ball(1), workers=workers)
        with pytest.raises(DegenerateInput):
            primitivity_scan(Region.ball(1), workers=workers)
    assert census(Region.ball(1), workers=1).h == 9


def test_root_search_emits_cycles_in_stored_order():
    # The census stores these cycles without the constructor's check, and
    # the box-search reference canonicalizes its cycles as they are, so
    # each must already be the constructor's stored order.
    root_polygons = import_module("lattice_equiv.census")._root_polygons
    searches = [(Region.ball(2), None), (Region.box(3), None)]
    searches += [(Region.box(v), v) for v in range(1, 6)]
    for region, volume in searches:
        pts = lattice_points(region)
        cycles = [c for i in range(len(pts)) for c in (
            root_polygons(pts, i, None) if volume is None
            else budgeted_root_polygons(pts, i, None, volume))]
        assert cycles
        for cycle in cycles:
            p = LatticePolytope(2, cycle)
            assert p.vertices == cycle
            assert volume is None or normalized_volume(p) == volume


def test_root_search_matches_reference_in_order():
    # The library search against the budgeted box-search reference summed
    # over every volume these regions hold, cycle for cycle in stored
    # order.  Its cycles must also come out strictly increasing:
    # enumerate_convex_polygons sorts them only by vertex count.
    root_polygons = import_module("lattice_equiv.census")._root_polygons
    for region in (Region.box(2), Region.ball(2), Region.box(3)):
        pts = lattice_points(region)
        for i in range(len(pts)):
            cycles = root_polygons(pts, i, None)
            assert cycles == sorted(
                c for v in range(1, 40)
                for c in budgeted_root_polygons(pts, i, None, v))
            assert all(a < b for a, b in zip(cycles, cycles[1:]))


def twice_area(vertex_set):
    hull = strict_hull(vertex_set)
    return abs(sum(cross(hull[0], a, b) for a, b in zip(hull[1:], hull[2:])))


def test_budgeted_root_search_matches_subset_scan():
    # The budgeted box-search reference cuts each tip's scan at the volume
    # budget; the subset scan is the reference it must still agree with,
    # cycle for cycle, at every volume and vertex bound.
    for region in (Region.box(2), Region.ball(2), Region.box(3)):
        pts = lattice_points(region)
        by_volume = {}
        for vertex_set in brute_polygon_sets(pts):
            by_volume.setdefault(twice_area(vertex_set), []).append(vertex_set)
        for v, sets in by_volume.items():
            for max_vertices in (3, 4, None):
                cycles = [c for i in range(len(pts)) for c in
                          budgeted_root_polygons(pts, i, max_vertices, v)]
                got = {frozenset(c) for c in cycles}
                assert len(got) == len(cycles)
                assert got == {s for s in sets if max_vertices is None
                               or len(s) <= max_vertices}


def test_volume_forms_match_all_roots_search():
    # The box search behind volume_forms, before its two reductions: every
    # box point is a root, and every cycle is canonicalized as emitted.
    canonical_cycle = import_module("lattice_equiv.census")._canonical_cycle
    for v in range(1, 8):
        for side in range(1, v + 2):
            pts = lattice_points(Region.box(side))
            cycles = [c for i in range(len(pts))
                      for c in budgeted_root_polygons(pts, i, None, v)]
            expected = {canonical_cycle(c) for c in cycles}
            assert volume_forms(side, v) == expected
            # Translating a cycle's first vertex to the origin keeps it in
            # the constructor's stored order.
            moved = {tuple((x - c[0][0], y - c[0][1]) for x, y in c)
                     for c in cycles}
            for cycle in moved:
                assert LatticePolytope(2, cycle).vertices == cycle


@pytest.fixture(scope="module")
def growth_levels():
    """The forms of volume <= 12 (the default cap), grown one lattice
    point at a time; levels[k] holds the forms with k + 3 points."""
    return import_module("lattice_equiv.census")._growth_levels(12)


def test_volume_forms_default_box_is_large_enough(growth_levels):
    # The doubled box [0, 2v]^2 must find no class of volume v that the
    # growth misses, a check that does not rest on the box [0, v]^2.
    for v in range(1, 8):
        assert {cycle for level in growth_levels
                for cycle, w in level.items() if w == v} == \
            volume_forms(2 * v, v)


def test_growth_matches_box_search_per_volume(growth_levels):
    module = import_module("lattice_equiv.census")
    grown = {cycle: v for level in growth_levels for cycle, v in level.items()}
    assert len(grown) == sum(len(level) for level in growth_levels) == 268
    for v in range(1, 11):
        assert module._growth_levels(v) == [
            {cycle: w for cycle, w in level.items() if w <= v}
            for level in growth_levels if any(w <= v for w in level.values())]
        assert {cycle for cycle, w in grown.items() if w == v} == \
            volume_forms(v, v)


def test_grown_forms_pass_the_check(growth_levels):
    # The by-volume counts, _form_index and build_volume_representatives
    # read grown cycles as canonical forms: each must be a polygon in
    # stored order, starting at the origin, of the volume recorded for it.
    for level in growth_levels:
        for cycle, v in level.items():
            p = LatticePolytope(2, cycle)
            assert p.vertices == cycle
            assert cycle[0] == (0, 0)
            assert all(type(c) is int for pt in cycle for c in pt)
            assert normalized_volume(p) == v


def test_grown_levels_count_their_lattice_points(growth_levels):
    assert [len(level) for level in growth_levels][:6] == [1, 3, 6, 13, 21, 41]
    for k, level in enumerate(growth_levels):
        for cycle in level:
            assert len(lattice_points(LatticePolytope(2, cycle))) == k + 3


def test_grown_forms_shave_to_the_previous_level(growth_levels):
    # The lemma behind the growth: every form with m >= 4 lattice points
    # loses one of them at some vertex and stays a polygon of level m - 1.
    for k, level in enumerate(growth_levels[1:], 1):
        below = growth_levels[k - 1]
        for cycle in level:
            p = LatticePolytope(2, cycle)
            shaved = []
            for w in cycle:
                try:
                    shaved.append(shave(p, (w,))[0])
                except DegenerateResult:
                    continue
            assert shaved
            assert any(canonical_polygon(q).vertices in below for q in shaved)


def test_polygon_listing_matches_the_box_filter(growth_levels):
    # The column listing, one _interval per column, against the bounding
    # box filter it replaced, on the 268 grown forms and the census forms
    # of every SMALL_REGIONS region; each is also refused under a cap one
    # below its count.
    listing = import_module("lattice_equiv.geometry")._polytope_points
    forms = {cycle for level in growth_levels for cycle in level}
    assert len(forms) == 268
    for region, _, _ in SMALL_REGIONS:
        forms.update(canonical_polygon(p).vertices
                     for p in enumerate_convex_polygons(region))
    assert len(forms) > 268
    for cycle in forms:
        p = LatticePolytope(2, cycle)
        expected = reference_polytope_points(p)
        assert listing(p, len(expected)) == expected, cycle
        with pytest.raises(CapExceeded,
                           match=f"than the cap {len(expected) - 1}$"):
            listing(p, len(expected) - 1)


@pytest.fixture(scope="module")
def reference_levels():
    """The forms of volume <= 12 grown with the reference step, so that a
    step that loops or drops forms cannot hide the forms it is checked
    on."""
    module = import_module("lattice_equiv.census")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_one_point_growths",
                      reference_one_point_growths)
        return module._growth_levels(12)


def test_growth_step_matches_the_reference_step(reference_levels):
    # Every form to volume 12 under every budget it can grow in: the same
    # yields, in the same order, as the per-point scan of a box.
    grow = import_module("lattice_equiv.census")._one_point_growths
    for k, level in enumerate(reference_levels):
        for cycle, volume in level.items():
            for max_volume in range(volume + 1, 13):
                args = (cycle, volume, k + 3, max_volume)
                assert list(grow(*args)) == \
                    list(reference_one_point_growths(*args))


def test_growth_levels_match_the_reference_growth():
    module = import_module("lattice_equiv.census")
    for v in range(1, 17):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "_one_point_growths",
                          reference_one_point_growths)
            expected = module._growth_levels(v)
        assert module._growth_levels(v) == expected


@pytest.fixture(scope="module")
def levels_to_twenty():
    """The forms of volume <= 20, grown once for the tests that count
    them; levels[k] holds the forms with k + 3 lattice points."""
    return import_module("lattice_equiv.census")._growth_levels(20)


def test_growth_counts_the_classes_of_each_volume_to_twenty(levels_to_twenty):
    # K(v), the unimodular classes of normalized volume v, for v = 1..20:
    # past the volumes the reference growth is run to.
    counts = Counter(v for level in levels_to_twenty for v in level.values())
    assert [counts[v] for v in range(1, 21)] == [
        1, 2, 3, 7, 6, 13, 13, 27, 26, 44,
        43, 83, 81, 122, 136, 208, 215, 317, 341, 490]


def test_growth_counts_the_classes_of_each_genus(levels_to_twenty):
    """The classes of the growth to volume 20, split by their number g of
    interior lattice points, against counts from the literature, which
    no search of this repository produced.  A form of level k has
    m = k + 3 lattice points, so by Pick (v = 2g + b - 2, m = g + b)
    g = v - m + 2.

    - g = 1..4: 16, 45, 120 and 211 classes, the numbers of lattice
      polygons of genus g up to unimodular equivalence in W. Castryck,
      "Moving out the edges of a lattice polygon", Discrete Comput. Geom.
      47 (2012).  They are complete at volume 20: P. R. Scott, "On convex
      lattice polygons", Bull. Austral. Math. Soc. 15 (1976), bounds
      b <= 2g + 6 for g >= 2, so v <= 4g + 4, and b <= 9 for g = 1, so
      v <= 9 (3 times the unit triangle).
    - g = 0, each volume V = 1..20: floor(V / 2) + 1 + [V = 4] classes,
      the classical list of hollow polygons: twice the unit triangle, and
      the trapezoids of height 1 whose parallel sides a >= b >= 0 have
      a + b = V.
    """
    genus = Counter()
    hollow = Counter()
    for k, level in enumerate(levels_to_twenty):
        for v in level.values():
            g = v - (k + 3) + 2
            genus[g] += 1
            if g == 0:
                hollow[v] += 1
    assert [genus[g] for g in range(1, 5)] == [16, 45, 120, 211]
    assert [hollow[v] for v in range(1, 21)] == [
        v // 2 + 1 + (v == 4) for v in range(1, 21)]


def test_growth_counts_the_classes_of_each_cardinality(levels_to_twenty):
    # Zong's axis: the classes with m = 3..8 lattice points.  By Pick a
    # class with m points has volume m + g - 2 <= 2m - 5 (g <= m - 3),
    # at most 11 here, so the growth to volume 20 holds all of them.  K
    # counts the unimodular classes (the forms of a level), A the affine
    # ones, by affine key and by a pairwise affine_equivalent search.
    levels = levels_to_twenty[:6]
    assert [len(level) for level in levels] == [1, 3, 6, 13, 21, 41]
    affine = []
    for level in levels:
        forms = [LatticePolytope(2, cycle) for cycle in level]
        reps = []
        for p in forms:
            if not any(affine_equivalent(p, q) for q in reps):
                reps.append(p)
        assert len({affine_key(p) for p in forms}) == len(reps)
        affine.append(len(reps))
    assert affine == [1, 2, 4, 8, 17, 31]


def test_growth_holds_the_box_census_forms(levels_to_twenty):
    # Every form of the box:4 census with at most 8 lattice points lies
    # in the growth's level for its number of points.
    forms = {canonical_polygon(p).vertices
             for p in enumerate_convex_polygons(Region.box(4))}
    points = {cycle: len(lattice_points(LatticePolytope(2, cycle)))
              for cycle in forms}
    small = [cycle for cycle in forms if points[cycle] <= 8]
    assert len(small) == 73
    for cycle in small:
        assert cycle in levels_to_twenty[points[cycle] - 3]


def test_growth_holds_the_box_5_census_forms(levels_to_twenty):
    # The box:5 census's forms with m = 3..8 lattice points number 1, 3,
    # 6, 13, 21 and 39, each in the growth's level for its m: box:5 holds
    # every class with m <= 7 and 39 of the 41 with m = 8.  By Pick a
    # form with m points has volume at most 2m - 5, so only the forms of
    # volume <= 11 have their points listed.
    forms = import_module("lattice_equiv.census")._form_counts(
        Region.box(5), None, 2)
    points = {p.vertices: len(lattice_points(p))
              for p in forms if normalized_volume(p) <= 11}
    small = [cycle for cycle in points if points[cycle] <= 8]
    assert sorted(Counter(points[cycle] for cycle in small).items()) == [
        (3, 1), (4, 3), (5, 6), (6, 13), (7, 21), (8, 39)]
    for cycle in small:
        assert cycle in levels_to_twenty[points[cycle] - 3]


def traced_visits(cycle, volume, points, max_volume):
    """The points (x, y) that census._one_point_growths visits, in order:
    a point is visited when the line that takes its cross products runs.
    A visit that does not come after the last one in (y, x) order raises,
    so a walk that stops advancing fails instead of looping."""
    grow = import_module("lattice_equiv.census")._one_point_growths
    code = grow.__code__
    lines, first = inspect.getsourcelines(code)
    line = first + next(i for i, text in enumerate(lines)
                        if text.lstrip().startswith("crosses = "))
    visits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            point = frame.f_locals["y"], frame.f_locals["x"]
            if visits and point <= visits[-1]:
                raise AssertionError(f"the walk went back to {point[::-1]}")
            visits.append(point)
        return local

    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        for _ in grow(cycle, volume, points, max_volume):
            pass
    finally:
        sys.settrace(None)
    return [(x, y) for y, x in visits]


def test_growth_walk_visits_only_its_row_intervals(reference_levels):
    # Independently of the walk's arithmetic: with t_e(u) = -cross_e(u)
    # and f(u) the sum of the positive t_e, every visit lies in the strip
    # max_e t_e <= B; each row with a point in budget (f <= B) is entered
    # at the strip's left end; every u with 0 < f(u) <= B is visited;
    # and a row visits at most one point of Q (f = 0), at most n points
    # over budget before its first point in budget, and at most one
    # after, as its last.  The points in budget are listed from the
    # reference step's box, |g*y| and |x*b - y*a| at most max_volume.
    for k, level in enumerate(reference_levels):
        for cycle, volume in level.items():
            if volume >= 9:
                continue
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            (g, _), (a, b) = cycle[1], cycle[-1]

            def terms(x, y):
                return [-cross(p, q, (x, y)) for p, q in edges]

            def added(x, y):
                return sum(t for t in terms(x, y) if t > 0)

            for max_volume in range(volume + 1, 10):
                budget = max_volume - volume
                visits = traced_visits(cycle, volume, k + 3, max_volume)
                assert all(max(terms(x, y)) <= budget for x, y in visits)
                rows = {}
                for x, y in visits:
                    rows.setdefault(y, []).append(x)
                for y in range(-(max_volume // g), max_volume // g + 1):
                    xs = range((y * a - max_volume) // b,
                               (y * a + max_volume) // b + 1)
                    in_budget = [x for x in xs if added(x, y) <= budget]
                    row = rows.pop(y, [])
                    assert {x for x in in_budget if added(x, y)} <= set(row)
                    if in_budget:
                        assert max(terms(row[0] - 1, y)) > budget
                    over = [x for x in row if added(x, y) > budget]
                    before = [x for x in over if not in_budget
                              or x < in_budget[0]]
                    assert len(before) <= len(cycle)
                    assert over == before or over[len(before):] == row[-1:]
                    assert sum(not added(x, y) for x in row) <= 1
                assert not rows  # no visit outside the reference's rows


def test_by_volume_paths_run_no_box_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the by-volume path searched a box")

    monkeypatch.setattr(import_module("lattice_equiv.census"),
                        "_root_polygons", refuse)
    counts = [classes_by_volume(v) for v in range(1, 13)]
    assert counts == [1, 2, 3, 7, 6, 13, 13, 27, 26, 44, 43, 83]
    reps = [len(build_volume_representatives(v)) for v in range(1, 13)]
    assert reps == [1, 2, 2, 4, 5, 9, 11, 17, 21, 34, 41, 55]
    # The box search is no longer a library option.
    with pytest.raises(TypeError):
        classes_by_volume(6, search_box_side=6)
    with pytest.raises(TypeError):
        classes_by_volume(6, "all", 6)


def test_enumerate_max_vertices():
    polys = enumerate_convex_polygons(Region.ball(1), max_vertices=3)
    assert len(polys) == 8
    assert all(len(p.vertices) == 3 for p in polys)


def test_enumerate_max_vertices_validation():
    for k in (2, 0, -1, True, 3.0):
        with pytest.raises(DegenerateInput):
            enumerate_convex_polygons(Region.ball(1), max_vertices=k)
    assert len(enumerate_convex_polygons(Region.ball(1), max_vertices=4)) == 9


def test_region_point_count_matches_listing():
    # The one listing of a region, which is also its count, against the
    # product of a range wide enough for every kind (size + 1 bounds a
    # side and a radius), filtered and sorted.
    listing = import_module("lattice_equiv.geometry")._region_points

    def brute(region):
        bound = int(region.size) + 1
        low = -bound if region.kind == "ball" else 0
        points = product(range(low, bound + 1), repeat=region.dim)
        if region.kind == "box":
            return sorted(p for p in points if max(p) <= region.size)
        return sorted(p for p in points
                      if sum(c * c for c in p) <= region.size)

    regions = []
    for dim in (1, 2, 3):
        regions += [Region.box(s, dim) for s in (0, 1, 4, Fraction(7, 2))]
        for make in (Region.ball, Region.orthant_ball):
            regions += [make(r, dim=dim) for r in (0, 1, 2, 3, Fraction(5, 2))]
            regions += [make(radius_sq=q, dim=dim)
                        for q in (2, 8, Fraction(17, 3))]
    for region in regions:
        expected = brute(region)
        assert listing(region, 10 ** 6) == expected, region
        # Under a cap of 4 the listing refuses exactly the regions with
        # more points, and lists the others in full.
        if len(expected) > 4:
            with pytest.raises(RegionTooLarge, match="than the cap 4$"):
                listing(region, 4)
        else:
            assert listing(region, 4) == expected, region


def test_region_cap_is_checked_before_listing():
    # Listing any of these regions would take gigabytes; under a 256 MiB
    # address space the cap must reject them before their points exist.
    proc = run_in_small_address_space("""
from lattice_equiv import (Region, RegionTooLarge, affine_map_census, census,
                           enumerate_convex_polygons, lattice_points,
                           primitivity_scan)
regions = [Region.box(5000), Region.ball(3000), Region.orthant_ball(5000),
           Region.ball(radius_sq=10 ** 40)]
calls = [(census, 40), (primitivity_scan, 40), (enumerate_convex_polygons, 40),
         (lambda region: affine_map_census(region, 10), 40),
         (lattice_points, 1000)]
for region in regions:
    for call, cap in calls:
        try:
            call(region)
        except RegionTooLarge as exc:
            assert f"more lattice points than the cap {cap}" in str(exc), exc
        else:
            raise AssertionError(region)
print("ok")
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_enumerate_region_cap():
    with pytest.raises(RegionTooLarge):
        enumerate_convex_polygons(Region.ball(4))
    # raised cap admits the same region
    polys = enumerate_convex_polygons(Region.ball(4), max_vertices=3,
                                      caps=Caps(region_points=60))
    assert polys


def test_census_ball_one():
    c = census(Region.ball(1))
    assert (c.h, c.k, c.a) == (9, 3, 2)
    assert c.volume_histogram == ((1, 4), (2, 4), (4, 1))


def test_census_unit_box():
    c = census(Region.box(1))
    assert (c.h, c.k, c.a) == (5, 2, 2)
    assert c.volume_histogram == ((1, 4), (2, 1))


def test_census_empty():
    c = census(Region.ball(0))
    assert (c.h, c.k, c.a) == (0, 0, 0)
    assert c.volume_histogram == ()


def test_census_chain_and_histogram_total():
    for region in (Region.ball(1), Region.box(2), Region.ball(2)):
        c = census(region)
        assert c.h >= c.k >= c.a
        if c.h:
            assert c.a >= 1
        assert sum(n for _, n in c.volume_histogram) == c.h


def test_census_counts_match_oracle():
    polys = enumerate_convex_polygons(Region.box(2))
    c = census(Region.box(2))
    assert c.h == len(polys) == 168
    assert c.k == oracle_class_count(polys, "unimodular") == 17
    assert c.a == oracle_class_count(polys, "affine") == 9


def pairwise_affine_class_count(polys):
    """Reference A: one canonical form per unimodular class, merged by
    calling the affine decider on pairs."""
    forms = sorted({canonical_polygon(p) for p in polys},
                   key=LatticePolytope.serialize)
    classes = []
    for form in forms:
        if not any(affine_equivalent(form, seen) for seen in classes):
            classes.append(form)
    return len(classes)


@pytest.mark.parametrize("region, expected",
                         [(region, a) for region, a, _ in SMALL_REGIONS])
def test_census_affine_count_matches_pairwise_decider(region, expected):
    polys = enumerate_convex_polygons(region)
    assert census(region).a == pairwise_affine_class_count(polys) == expected


@pytest.mark.parametrize("region, expected",
                         [(region, k) for region, _, k in SMALL_REGIONS])
def test_census_unimodular_count_matches_pairwise_decider(region, expected):
    """Reference K: every polygon is unimodularly equivalent to its
    canonical form, and the distinct forms are pairwise inequivalent."""
    forms = set()
    for p in enumerate_convex_polygons(region):
        form = canonical_polygon(p)
        assert unimodular_equivalent(p, form), p
        forms.add(form)
    forms = sorted(forms, key=LatticePolytope.serialize)
    for i, form in enumerate(forms):
        for other in forms[i + 1:]:
            assert not unimodular_equivalent(form, other), (form, other)
    assert census(region).k == len(forms) == expected


def per_polygon_primitivity_scan(polys):
    """Reference scan: the index and the content of every polygon.  On
    the way it checks, on every polygon, the theorem the per-form scan
    rests on: |content| equals the index."""
    examined = 0
    bad = []
    for poly in polys:
        index = sublattice_info(poly).index
        content = primitive_decomposition(
            volume_vector(poly.vertices, 2)).content
        assert abs(content) == index, poly
        if index != 1:
            continue
        examined += 1
        if abs(content) > 1:
            bad.append(poly)
    return examined, tuple(bad)


def test_volume_vector_content_is_the_form_index():
    """The fact that leaves primitivity_scan nothing to find, on every
    grown form of volume at most 12: |content| of the volume vector
    equals the index of the lattice the vertex differences generate."""
    module = import_module("lattice_equiv.census")
    forms = [cycle for level in module._growth_levels(12) for cycle in level]
    assert len(forms) == 268
    indices = []
    for cycle in forms:
        content = primitive_decomposition(volume_vector(cycle, 2)).content
        index = sublattice_info(LatticePolytope(2, cycle)).index
        assert abs(content) == module._form_index(cycle) == index, cycle
        indices.append(index)
    assert max(indices) > 1


# scan-primitivity's examined count on each SMALL_REGIONS region.
SCAN_EXAMINED = {"ball:0": 0, "ball:1": 4, "ball:2": 550, "box:1": 5,
                 "box:2": 106, "box:3": 2012, "orthant-ball:1": 1,
                 "orthant-ball:2": 16, "orthant-ball:3": 215}
REGION_FLAGS = {"ball": "--ball-r", "box": "--box-side",
                "orthant-ball": "--orthant-ball-r"}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("region", [region for region, _, _ in SMALL_REGIONS])
def test_scan_primitivity_command_finds_nothing(region, workers, capsys):
    """The scan cannot find a counterexample, so the command prints an
    empty list and exits 1, for any worker count."""
    kind, size = region.label().split(":")
    code = run_command(["scan-primitivity", REGION_FLAGS[kind], size,
                        "--workers", workers])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc == {"region": region.label(),
                   "examined": SCAN_EXAMINED[region.label()],
                   "counterexamples": []}


@pytest.mark.parametrize("region", [region for region, _, _ in SMALL_REGIONS])
def test_weighted_forms_match_per_polygon_loops(region):
    """census and primitivity_scan take their invariants once per form;
    the references take them once per polygon."""
    polys = enumerate_convex_polygons(region)
    c = census(region)
    assert c.h == len(polys)
    assert c.volume_histogram == tuple(sorted(Counter(
        normalized_volume(p) for p in polys).items()))
    report = primitivity_scan(region)
    assert (report.examined, report.counterexamples) == \
        per_polygon_primitivity_scan(polys)


@pytest.mark.parametrize("region", [region for region, _, _ in SMALL_REGIONS])
def test_pooled_form_counts_match_per_polygon_forms(region):
    """The pooled stage deals first-edge vectors into shares, searches
    and canonicalizes each share's translation classes in a worker and
    merges their Counters; the reference canonicalizes each enumerated
    polygon."""
    form_counts = import_module("lattice_equiv.census")._form_counts
    expected = Counter(canonical_polygon(p)
                       for p in enumerate_convex_polygons(region))
    censuses, reports = [], []
    for workers in (1, 2, 3):
        assert form_counts(region, None, workers) == expected
        censuses.append(census(region, workers=workers))
        reports.append(primitivity_scan(region, workers=workers))
    assert censuses == [censuses[0]] * 3
    assert reports == [reports[0]] * 3


def difference_vectors(points):
    """The sorted lex-positive differences q - p of a sorted point list."""
    return sorted({(qx - px, qy - py) for i, (px, py) in enumerate(points)
                   for qx, qy in points[i + 1:]})


@pytest.mark.parametrize("region", [region for region, _, _ in SMALL_REGIONS])
def test_share_forms_split_the_translation_classes(region):
    """For 1 to 4 strided shares of the difference vectors, the pool
    tasks' Counters add up to the per-polygon forms, and the shares'
    root-relative classes are disjoint and are the enumerated polygons
    moved to the origin."""
    module = import_module("lattice_equiv.census")
    polys = enumerate_convex_polygons(region)
    expected = Counter(canonical_polygon(p).vertices for p in polys)
    moved = {tuple((x - p.vertices[0][0], y - p.vertices[0][1])
                   for x, y in p.vertices) for p in polys}
    points = tuple(lattice_points(region))
    vectors = difference_vectors(points)
    for count in range(1, 5):
        shares = [tuple(vectors[k::count]) for k in range(count)]
        assert sum((module._share_forms((points, share)) for share in shares),
                   Counter()) == expected
        classes = [{cycle for i, (rx, ry) in enumerate(points)
                    for cycle in module._root_polygons(
                        tuple((x - rx, y - ry) for x, y in points[i:]),
                        0, None, set(share))}
                   for share in shares]
        assert sum(map(len, classes)) == len(set().union(*classes))
        assert set().union(*classes) == moved


def test_two_worker_census_of_box_4():
    c = census(Region.box(4), workers=2)
    assert (c.h, c.k, c.a) == (33041, 1517, 1264)


def test_pool_tasks_hold_only_the_points_and_a_share(pool_sizes, monkeypatch):
    """A pooled census or scan neither enumerates nor canonicalizes in
    the parent: the census module's names for both are never called,
    and each task is the point tuple and its share of the vectors."""
    module = import_module("lattice_equiv.census")

    def refuse(*args, **kwargs):
        raise AssertionError("the parent enumerated or canonicalized")

    tasks = []
    share_forms = module._share_forms

    def recorded(task):
        tasks.append(task)
        return share_forms(task)

    for name in ("enumerate_convex_polygons", "canonical_polygon"):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(module, "_share_forms", recorded)
    region = Region.box(3)
    assert census(region, workers=2).k == 148
    assert primitivity_scan(region, workers=2).examined == 2012
    assert pool_sizes == [2, 2]
    points = tuple(lattice_points(region))
    vectors = difference_vectors(points)
    assert tasks == [(points, tuple(vectors[0::2])),
                     (points, tuple(vectors[1::2]))] * 2


def test_form_index_matches_sublattice_index():
    # The census index-tests its box forms, build_volume_representatives
    # the grown forms; the closed form must give the index of the frozen
    # two-list Hermite form of the vertex differences.
    module = import_module("lattice_equiv.census")
    box_forms = list(module._form_counts(Region.box(4), None, 1))
    grown_forms = [LatticePolytope(2, cycle)
                   for level in module._growth_levels(8) for cycle in level]
    for forms in (box_forms, grown_forms):
        assert [module._form_index(form.vertices) for form in forms] == \
            [reference_sublattice(form).index for form in forms]
    assert sum(module._form_index(form.vertices) > 1
               for form in box_forms) == 253


def test_census_keys_equal_affine_key_on_the_box_forms():
    # The census keys its canonical forms through equivalence._form_key,
    # which takes an index-1 form as its own key; on every form of box:4
    # and box:5 that must be affine_key's key, forms of index > 1
    # included, and give census's A.
    module = import_module("lattice_equiv.census")
    form_key = import_module("lattice_equiv.equivalence")._form_key
    for region, k, a, shrunk in ((Region.box(4), 1517, 1264, 253),
                                 (Region.box(5), 15359, 14453, 906)):
        forms = list(module._form_counts(region, None, 2))
        keys = [form_key(form) for form in forms]
        assert keys == [affine_key(form) for form in forms]
        framed = [key is not form for key, form in zip(keys, forms)]
        assert framed == [module._form_index(form.vertices) > 1
                          for form in forms]
        assert sum(framed) == shrunk
        assert (len(forms), len(set(keys))) == (k, a)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("region", [region for region, _, _ in SMALL_REGIONS])
def test_census_path_polygons_pass_the_check(region, workers):
    """enumerate_convex_polygons, canonical_polygon, affine_key and
    _form_counts store the cycles they build without LatticePolytope's
    check.  The check must accept each of them, and leave it as it is,
    plain ints included; the framed cycle is also checked from a
    unimodular image of every polygon, the forms also after a trip
    through the pool, and the affine key of every form, those of index
    above 1 (framed from their shrink images) included."""
    rng = seeded(15)
    for p in enumerate_convex_polygons(region):
        image = LatticePolytope(2, tuple(apply_int_map(
            p.vertices, random_unimodular(rng),
            (rng.randint(-9, 9), rng.randint(-9, 9)))))
        form = canonical_polygon(p)
        assert canonical_polygon(image) == form
        for q in (p, form):
            assert LatticePolytope(2, q.vertices) == q
            assert all(type(c) is int for v in q.vertices for c in v)
    form_counts = import_module("lattice_equiv.census")._form_counts
    shrunk = 0
    for form in form_counts(region, None, workers):
        key = affine_key(form)
        shrunk += not attains_minimal_volume(form)
        for q in (form, key):
            assert LatticePolytope(2, q.vertices) == q
            assert all(type(c) is int for v in q.vertices for c in v)
    assert shrunk == {"ball:2": 31, "box:3": 39, "ball:1": 2, "box:2": 8,
                      "orthant-ball:2": 2, "orthant-ball:3": 18,
                      }.get(region.label(), 0)


def test_census_path_builds_no_checked_polytope(monkeypatch):
    """No checked polytope at all: the census and primitivity scan build
    none through the census, equivalence and lattices modules' names;
    the census keys (equivalence._form_key) frame the integer image of
    _shrink, so the 39 index > 1 forms of box:3 get no
    shrink_to_minimal_volume polytope either."""
    def refuse(*args):
        raise AssertionError("the census path built a checked polytope")

    for name in ("census", "equivalence", "lattices"):
        # the package re-exports the census() function under the module's name
        monkeypatch.setattr(import_module("lattice_equiv." + name),
                            "LatticePolytope", refuse)
    assert census(Region.box(3)).k == 148
    assert primitivity_scan(Region.ball(2)).counterexamples == ()


def test_one_worker_census_canonicalizes_each_polygon_without_rewrap(
        monkeypatch):
    """A one-worker census hands each enumerated polygon straight to
    canonical_polygon: box:3's 2,719 polygons take one call each, and
    _stored_polygon is called once per polygon (by the enumeration) and
    once per form (the 148 canonical forms), with no unwrap and re-wrap."""
    module = import_module("lattice_equiv.census")
    calls = Counter()

    def counted(name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted("canonical_polygon")
    counted("_stored_polygon")
    assert census(Region.box(3), workers=1).h == 2719
    assert calls == {"canonical_polygon": 2719,
                     "_stored_polygon": 2719 + 148}


@pytest.mark.parametrize("region", [region for region, _, _ in SMALL_REGIONS])
def test_enumeration_order_is_serialized_order(region):
    """With or without a vertex cap, the enumeration is ordered by
    (vertex count, flattened coordinates), though it sorts only by
    vertex count."""
    for max_vertices in (None, 3):
        polys = enumerate_convex_polygons(region, max_vertices)
        assert polys == sorted(polys, key=lambda p: (len(p.vertices),
                                                     p.serialize()))


def test_census_parallel_reproducible():
    serial = census(Region.ball(2))
    threaded = census(Region.ball(2), workers=4)
    assert (serial.h, serial.k, serial.a) == (threaded.h, threaded.k,
                                              threaded.a) == (861, 75, 44)
    assert serial.volume_histogram == threaded.volume_histogram


def test_classes_by_volume_triangles():
    got = [classes_by_volume(v, shape="triangles") for v in range(1, 9)]
    assert got == [1, 1, 2, 3, 2, 3, 3, 5]


def test_classes_by_volume_all_shapes():
    got = [classes_by_volume(v, shape="all") for v in range(1, 11)]
    assert got == [1, 2, 3, 7, 6, 13, 13, 27, 26, 44]
    # triangle counts never exceed the all-shape counts
    for v in range(1, 11):
        assert classes_by_volume(v, shape="triangles") <= got[v - 1]


def test_classes_by_volume_separates_rescaled_pair():
    # two triangles of volume 90 that are affinely but not unimodularly
    # equivalent force at least two classes
    assert classes_by_volume(90, shape="triangles",
                             caps=Caps(max_volume=90)) >= 2
    assert not unimodular_equivalent(poly((0, 0), (9, 0), (0, 10)),
                                     poly((0, 0), (6, 0), (0, 15)))


def test_classes_by_volume_validation():
    with pytest.raises(CapExceeded):
        classes_by_volume(13)
    with pytest.raises(DegenerateInput):
        classes_by_volume(0)
    with pytest.raises(DegenerateInput):
        classes_by_volume(2, shape="pentagons")


def test_by_volume_searches_require_plain_ints():
    for volume in (2.5, 6.0, True):
        with pytest.raises(DegenerateInput, match="volume must be"):
            classes_by_volume(volume)
        with pytest.raises(DegenerateInput, match="volume must be"):
            build_volume_representatives(volume)
    # No box side is taken any more, valid or not.
    for side in (2.5, 2.0, True, 6, 13):
        with pytest.raises(TypeError):
            classes_by_volume(6, search_box_side=side)


def test_volume_representatives_examples():
    assert [p.vertices for p in build_volume_representatives(1)] == \
        [((0, 0), (1, 0), (0, 1))]
    reps = build_volume_representatives(2)
    assert [p.vertices for p in reps] == \
        [((0, 0), (1, 0), (1, 1), (0, 1)), ((0, 0), (2, 0), (0, 1))]


def test_volume_representatives_properties():
    for v in range(1, 7):
        reps = build_volume_representatives(v)
        assert reps
        for p in reps:
            assert normalized_volume(p) == v
            img, _ = shrink_to_minimal_volume(p)
            assert attains_minimal_volume(img)
        for i, p in enumerate(reps):
            for q in reps[i + 1:]:
                assert not unimodular_equivalent(p, q)
                assert not affine_equivalent(p, q)


def test_volume_representatives_counts_beyond_eight():
    # Volumes 1..8 are counted, with pairwise checks, in test_07.
    assert [len(build_volume_representatives(v)) for v in (9, 10)] == [21, 34]


def test_volume_representatives_cap():
    with pytest.raises(CapExceeded):
        build_volume_representatives(13)


def test_primitivity_scan_small_balls():
    r1 = primitivity_scan(Region.ball(1))
    assert (r1.examined, r1.counterexamples) == (4, ())
    r2 = primitivity_scan(Region.ball(2))
    assert (r2.examined, r2.counterexamples) == (550, ())
    again = primitivity_scan(Region.ball(2), workers=3)
    assert (again.examined, again.counterexamples) == (550, ())


def test_affine_map_census_counts():
    am = affine_map_census(Region.ball(1), 81)
    assert am.examined_pairs == 81
    assert am.distinct_maps == 39
    assert am.max_row_norm_sq == 4
    assert am.normalized_constant_sq == 4
    assert am.distinct_maps <= am.examined_pairs


def test_affine_map_census_identity_only():
    am = affine_map_census(Region.ball(1), 1)
    assert (am.examined_pairs, am.distinct_maps, am.max_row_norm_sq) == \
        (1, 1, 1)


def test_affine_map_census_validation():
    for budget in (0, -1, 2.5, 3.0, "5", None, True):
        with pytest.raises(DegenerateInput,
                           match="budget must be an integer >= 1"):
            affine_map_census(Region.ball(1), budget)


def test_dilated_triangle_witness_in_ball_two():
    doubled = dilate(UNIT, 2)
    polys = enumerate_convex_polygons(Region.ball(2))
    assert UNIT in polys and doubled in polys
    w = affine_equivalent(UNIT, doubled)
    assert w.map.matrix == ((2, 0), (0, 2))


def test_caps_env_parsing(monkeypatch):
    monkeypatch.setenv("LATTICE_EQUIV_CAPS", "region_points=60,max_volume=20")
    caps = Caps.from_env()
    assert caps == Caps(region_points=60, oracle_vertices=8, max_volume=20)
    # raise-only: lowering below a default is ignored
    monkeypatch.setenv("LATTICE_EQUIV_CAPS", "region_points=10")
    assert Caps.from_env().region_points == 40
    monkeypatch.setenv("LATTICE_EQUIV_CAPS", "bogus=1")
    with pytest.raises(ValueError):
        Caps.from_env()
    monkeypatch.setenv("LATTICE_EQUIV_CAPS", "max_volume=abc")
    with pytest.raises(ValueError):
        Caps.from_env()
    # A superscript digit passes str.isdigit but not int: it is a bad
    # entry, named with the variable, not int's own error.
    monkeypatch.setenv("LATTICE_EQUIV_CAPS", "max_volume=\u00b2")
    with pytest.raises(ValueError,
                       match="bad LATTICE_EQUIV_CAPS entry: 'max_volume=\u00b2'"):
        Caps.from_env()
    monkeypatch.delenv("LATTICE_EQUIV_CAPS")
    # Unset, every call shares one default (the caps are frozen).
    assert Caps.from_env() is Caps.from_env() == Caps()


def test_caps_argument_must_be_a_caps():
    # Every caps= reads its fields through caps.resolve, which takes only
    # None or a Caps: a mapping or a number is refused, not read as one.
    entries = [
        lambda caps: census(Region.box(1), caps=caps),
        lambda caps: enumerate_convex_polygons(Region.box(1), caps=caps),
        lambda caps: classes_by_volume(1, caps=caps),
        lambda caps: build_volume_representatives(1, caps=caps),
        lambda caps: oracle_equivalent(UNIT, UNIT, caps=caps),
        lambda caps: orthant_hull_construction(1, caps=caps),
    ]
    for bad in ({"region_points": 60}, 60, "caps"):
        for entry in entries:
            with pytest.raises(DegenerateInput,
                               match="^caps must be None or a Caps"):
                entry(bad)


def test_every_emitted_polytope_has_integer_volume():
    for p in enumerate_convex_polygons(Region.ball(2)):
        assert isinstance(normalized_volume(p), int)
