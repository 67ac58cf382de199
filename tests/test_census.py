"""Polygon enumeration, class censuses, by-volume counts, and scans."""

import json
from collections import Counter
from importlib import import_module

import pytest

from conftest import (
    apply_int_map, brute_polygon_sets, cross, oracle_class_count, poly,
    random_unimodular, seeded, strict_hull)
from lattice_equiv import (
    Caps,
    CapExceeded,
    DegenerateInput,
    DegenerateResult,
    LatticePolytope,
    Region,
    RegionTooLarge,
    affine_equivalent,
    affine_map_census,
    build_volume_representatives,
    canonical_polygon,
    census,
    classes_by_volume,
    dilate,
    enumerate_convex_polygons,
    lattice_points,
    normalized_volume,
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
from lattice_equiv.invariants import PrimitiveVolumeVector

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
        expected = brute_polygon_sets(lattice_points(region))
        got = {frozenset(p.vertices) for p in
               enumerate_convex_polygons(region)}
        assert got == expected


def test_enumerate_deterministic():
    assert enumerate_convex_polygons(Region.ball(2)) == \
        enumerate_convex_polygons(Region.ball(2))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the census module's process pool by one that maps inline;
    return the list of the max_workers each pool was asked for."""
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

    # the package re-exports the census() function under the module's name
    monkeypatch.setattr(import_module("lattice_equiv.census"),
                        "ProcessPoolExecutor", InlinePool)
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
    monkeypatch.setattr(import_module("lattice_equiv.census"),
                        "ProcessPoolExecutor", NoPool)


def test_one_worker_and_enumeration_start_no_pool(no_pool):
    region = Region.ball(2)
    assert len(enumerate_convex_polygons(region)) == 861
    with pytest.raises(TypeError):  # the enumeration has no workers knob
        enumerate_convex_polygons(region, workers=2)
    assert census(region, workers=1).h == 861
    assert primitivity_scan(region, workers=1).examined == 550


def test_workers_validation(no_pool):
    for workers in ("2", -3, 0, True, False, 2.0):
        with pytest.raises(DegenerateInput):
            census(Region.ball(1), workers=workers)
        with pytest.raises(DegenerateInput):
            primitivity_scan(Region.ball(1), workers=workers)
    assert census(Region.ball(1), workers=1).h == 9


def test_root_search_emits_cycles_in_stored_order():
    # The by-volume searches canonicalize these cycles without building
    # a polytope, so each must already be the constructor's stored order.
    root_polygons = import_module("lattice_equiv.census")._root_polygons
    searches = [(Region.ball(2), None), (Region.box(3), None)]
    searches += [(Region.box(v), v) for v in range(1, 6)]
    for region, volume in searches:
        pts = lattice_points(region)
        cycles = [c for i in range(len(pts))
                  for c in root_polygons(pts, i, None, volume)]
        assert cycles
        for cycle in cycles:
            p = LatticePolytope(2, cycle)
            assert p.vertices == cycle
            assert volume is None or normalized_volume(p) == volume


def twice_area(vertex_set):
    hull = strict_hull(vertex_set)
    return abs(sum(cross(hull[0], a, b) for a, b in zip(hull[1:], hull[2:])))


def test_budgeted_root_search_matches_subset_scan():
    # The budgeted search cuts each tip's scan at the volume budget; the
    # subset scan is the reference it must still agree with, cycle for
    # cycle, at every volume and vertex bound.
    root_polygons = import_module("lattice_equiv.census")._root_polygons
    for region in (Region.box(2), Region.ball(2), Region.box(3)):
        pts = lattice_points(region)
        by_volume = {}
        for vertex_set in brute_polygon_sets(pts):
            by_volume.setdefault(twice_area(vertex_set), []).append(vertex_set)
        for v, sets in by_volume.items():
            for max_vertices in (3, 4, None):
                cycles = [c for i in range(len(pts))
                          for c in root_polygons(pts, i, max_vertices, v)]
                got = {frozenset(c) for c in cycles}
                assert len(got) == len(cycles)
                assert got == {s for s in sets if max_vertices is None
                               or len(s) <= max_vertices}


def test_volume_forms_match_all_roots_search():
    # The reference is the search before its two reductions: every box
    # point is a root, and every cycle is canonicalized as emitted.
    module = import_module("lattice_equiv.census")
    canonical_cycle = module._canonical_cycle
    for v in range(1, 8):
        for side in range(1, v + 2):
            pts = lattice_points(Region.box(side))
            cycles = [c for i in range(len(pts))
                      for c in module._root_polygons(pts, i, None, v)]
            expected = {canonical_cycle(c) for c in cycles}
            assert module._volume_forms(side, v) == expected
            # Translating a cycle's first vertex to the origin keeps it in
            # the constructor's stored order.
            moved = {tuple((x - c[0][0], y - c[0][1]) for x, y in c)
                     for c in cycles}
            for cycle in moved:
                assert LatticePolytope(2, cycle).vertices == cycle


def test_volume_forms_default_box_is_large_enough():
    # The by-volume searches look in [0, v]^2; the doubled box must find
    # no form they miss.
    module = import_module("lattice_equiv.census")
    for v in range(1, 8):
        assert module._volume_forms(v, v) == module._volume_forms(2 * v, v)


@pytest.fixture(scope="module")
def growth_levels():
    """The forms of volume <= 12 (the default cap), grown one lattice
    point at a time; levels[k] holds the forms with k + 3 points."""
    return import_module("lattice_equiv.census")._growth_levels(12)


def test_growth_matches_box_search_per_volume(growth_levels):
    module = import_module("lattice_equiv.census")
    grown = {cycle: v for level in growth_levels for cycle, v in level.items()}
    assert len(grown) == sum(len(level) for level in growth_levels) == 268
    for v in range(1, 11):
        assert module._growth_levels(v) == [
            {cycle: w for cycle, w in level.items() if w <= v}
            for level in growth_levels if any(w <= v for w in level.values())]
        assert {cycle for cycle, w in grown.items() if w == v} == \
            module._volume_forms(v, v)


def test_grown_forms_pass_the_check(growth_levels):
    # build_volume_representatives stores grown cycles without the check.
    for level in growth_levels:
        for cycle, v in level.items():
            p = LatticePolytope(2, cycle)
            assert p.vertices == cycle
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


def test_by_volume_paths_run_no_box_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the by-volume path searched a box")

    monkeypatch.setattr(import_module("lattice_equiv.census"),
                        "_root_polygons", refuse)
    counts = [classes_by_volume(v) for v in range(1, 13)]
    assert counts == [1, 2, 3, 7, 6, 13, 13, 27, 26, 44, 43, 83]
    reps = [len(build_volume_representatives(v)) for v in range(1, 13)]
    assert reps == [1, 2, 2, 4, 5, 9, 11, 17, 21, 34, 41, 55]
    with pytest.raises(AssertionError, match="searched a box"):
        classes_by_volume(6, search_box_side=6)


def test_enumerate_max_vertices():
    polys = enumerate_convex_polygons(Region.ball(1), max_vertices=3)
    assert len(polys) == 8
    assert all(len(p.vertices) == 3 for p in polys)


def test_enumerate_max_vertices_validation():
    for k in (2, 0, -1, True, 3.0):
        with pytest.raises(DegenerateInput):
            enumerate_convex_polygons(Region.ball(1), max_vertices=k)
    assert len(enumerate_convex_polygons(Region.ball(1), max_vertices=4)) == 9


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


# Every ball, box and orthant ball of integer size with at most 16 lattice
# points, with its census A and K.
SMALL_REGIONS = [
    (Region.ball(2), 44, 75),
    (Region.box(3), 109, 148),
    (Region.ball(0), 0, 0),
    (Region.ball(1), 2, 3),
    (Region.box(1), 2, 2),
    (Region.box(2), 9, 17),
    (Region.orthant_ball(1), 1, 1),
    (Region.orthant_ball(2), 3, 5),
    (Region.orthant_ball(3), 25, 43),
]


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
    """The pooled stage deals raw cycles into chunks and merges their
    Counters; the reference canonicalizes each enumerated polygon."""
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


def test_form_index_matches_sublattice_index():
    module = import_module("lattice_equiv.census")
    box_forms = list(module._form_counts(Region.box(4), None, 1))
    volume_forms = [LatticePolytope(2, cycle) for v in range(1, 9)
                    for cycle in module._volume_forms(v, v)]
    for forms in (box_forms, volume_forms):
        assert [module._form_index(form) for form in forms] == \
            [sublattice_info(form).index for form in forms]
    assert sum(module._form_index(form) > 1 for form in box_forms) == 253


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("region", [region for region, _, _ in SMALL_REGIONS])
def test_census_path_polygons_pass_the_check(region, workers):
    """enumerate_convex_polygons, canonical_polygon and _form_counts
    store the cycles they build without LatticePolytope's check.  The
    check must accept each of them, and leave it as it is, plain ints
    included; the framed cycle is also checked from a unimodular image
    of every polygon, and the forms also after a trip through the pool."""
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
    for form in form_counts(region, None, workers):
        assert LatticePolytope(2, form.vertices) == form
        assert all(type(c) is int for v in form.vertices for c in v)


def test_census_path_builds_no_checked_polytope(monkeypatch):
    def refuse(*args):
        raise AssertionError("the census path built a checked polytope")

    for name in ("census", "equivalence"):
        # the package re-exports the census() function under the module's name
        monkeypatch.setattr(import_module("lattice_equiv." + name),
                            "LatticePolytope", refuse)
    assert census(Region.box(3)).k == 148
    assert primitivity_scan(Region.ball(2)).counterexamples == ()


@pytest.fixture
def imprimitive_form(monkeypatch):
    """Make the census module's primitive_decomposition report content 2
    for one index-1 form of ball:2 that stands for several polygons, and
    return that form with its polygons in enumeration order."""
    region = Region.ball(2)
    polys = enumerate_convex_polygons(region)
    members = {}
    for p in polys:
        members.setdefault(canonical_polygon(p), []).append(p)
    vectors = Counter(volume_vector(f.vertices, 2) for f in members)
    form = min((f for f, ps in members.items() if len(ps) > 1
                and sublattice_info(f).index == 1
                and vectors[volume_vector(f.vertices, 2)] == 1),
               key=LatticePolytope.serialize)
    target = volume_vector(form.vertices, 2)
    module = import_module("lattice_equiv.census")
    real = module.primitive_decomposition

    def reports_content_two(w):
        d = real(w)
        return PrimitiveVolumeVector(2, d.direction) if w == target else d

    monkeypatch.setattr(module, "primitive_decomposition", reports_content_two)
    return form, tuple(members[form])


def test_primitivity_scan_lists_every_polygon_of_a_failed_form(
        imprimitive_form):
    form, expected = imprimitive_form
    report = primitivity_scan(Region.ball(2))
    assert report.examined == 550
    assert report.counterexamples == expected
    assert all(canonical_polygon(p) == form for p in expected)


def test_scan_primitivity_command_prints_a_failed_form(imprimitive_form,
                                                       capsys):
    _, expected = imprimitive_form
    code = run_command(["scan-primitivity", "--ball-r", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["examined"] == 550
    assert doc["counterexamples"] == [[list(v) for v in p.vertices]
                                      for p in expected]


@pytest.mark.parametrize("region", [Region.ball(2), Region.box(3)])
def test_enumeration_order_is_serialized_order(region):
    """Sorting by the vertex tuples orders 2D polygons of equal vertex
    count as their flattened coordinates would."""
    polys = enumerate_convex_polygons(region)
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
    for side in (2.5, 2.0, True):
        with pytest.raises(DegenerateInput, match="box side must be"):
            classes_by_volume(6, search_box_side=side)
    with pytest.raises(CapExceeded, match="box side 13 above cap"):
        classes_by_volume(6, search_box_side=13)


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
                           match="budget must be a positive integer"):
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
    monkeypatch.delenv("LATTICE_EQUIV_CAPS")
    assert Caps.from_env() == Caps()


def test_every_emitted_polytope_has_integer_volume():
    for p in enumerate_convex_polygons(Region.ball(2)):
        assert isinstance(normalized_volume(p), int)
