"""Equivalence deciders, canonical forms, and the brute-force oracle."""

import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction
from importlib import import_module
from itertools import chain
from math import cos, gcd, pi, sin

import pytest
from hypothesis import given, strategies as st

from conftest import (
    CUBE,
    FRUSTUM,
    OCTAHEDRON,
    PRISM,
    SIMPLEX,
    apply_int_map,
    budgeted_root_polygons,
    oracle_class_count,
    poly,
    random_polygon,
    random_unimodular,
    random_unimodular_3d,
    random_unimodular_nd,
    reference_decide,
    reference_facet_inequalities,
    reference_oracle,
    seeded,
    strict_hull,
)
from lattice_equiv import (
    DegenerateInput,
    LatticePolytope,
    RationalAffineMap,
    TooLarge,
    affine_equivalent,
    affine_key,
    attains_minimal_volume,
    canonical_polygon,
    canonical_triangle,
    convex_hull_2d,
    dilate,
    enumerate_convex_polygons,
    lattice_height_vector,
    lattice_points,
    normalized_volume,
    oracle_equivalent,
    primitive_decomposition,
    Region,
    shrink_to_minimal_volume,
    sublattice_info,
    unimodular_affine_equivalent,
    unimodular_equivalent,
    volume_vector,
)
from lattice_equiv import equivalence, invariants, linalg

UNIT = poly((0, 0), (1, 0), (0, 1))
SQUARE = poly((0, 0), (1, 0), (1, 1), (0, 1))
WIDE = poly((0, 0), (9, 0), (0, 10))
TALL = poly((0, 0), (6, 0), (0, 15))


def check_witness(w, p, q):
    assert w
    assert sorted(w.bijection) == list(range(len(p.vertices)))
    for i, v in enumerate(p.vertices):
        assert w.map.apply(v) == q.vertices[w.bijection[i]]


def test_rescaled_triangle_pair_affine():
    w = affine_equivalent(WIDE, TALL)
    check_witness(w, WIDE, TALL)
    assert w.map.matrix == ((Fraction(2, 3), 0), (0, Fraction(3, 2)))
    assert w.map.translation == (0, 0)


def test_rescaled_triangle_pair_unimodular():
    ne = unimodular_equivalent(WIDE, TALL)
    assert not ne
    assert ne.reason == "no vertex correspondence extends to an affine map"


def test_rescaled_triangle_pair_determinant_one():
    w = unimodular_affine_equivalent(WIDE, TALL)
    check_witness(w, WIDE, TALL)
    assert w.map.determinant == 1
    assert w.map.matrix == ((Fraction(2, 3), 0), (0, Fraction(3, 2)))


def test_self_comparison_is_identity():
    # WIDE (index 90) and the stretched polygons have index above 1, so
    # each side is shrunk and framed the same way, and the shrink, the
    # frame and their inverses cancel.
    rng = seeded(241)
    stretches = [poly(*apply_int_map(random_ngon(rng, n).vertices,
                                     ((k, 0), (0, 1)), (0, 0)))
                 for n in range(3, 8) for k in (2, 3)]
    for p in (UNIT, SQUARE, WIDE, *stretches):
        for decide in (affine_equivalent, unimodular_equivalent,
                       unimodular_affine_equivalent):
            w = decide(p, p)
            assert w.bijection == tuple(range(len(p.vertices)))
            assert w.map.matrix == ((1, 0), (0, 1))
            assert w.map.translation == (0, 0)


def test_square_vs_rectangle():
    rect = poly((0, 0), (2, 0), (2, 1), (0, 1))
    assert primitive_decomposition(
        volume_vector(rect.vertices, 2)).direction == (1, 1, 1, 1)
    w = affine_equivalent(SQUARE, rect)
    check_witness(w, SQUARE, rect)
    ne = unimodular_equivalent(SQUARE, rect)
    assert not ne and "volume" in ne.reason


def test_shear_image_is_unimodular():
    shear = poly((0, 0), (1, 0), (1, 1))
    w = unimodular_equivalent(UNIT, shear)
    check_witness(w, UNIT, shear)
    assert w.map.is_unimodular


def test_mirror_triangle_determinant_one():
    tri = poly((0, 0), (2, 0), (1, 3))
    mirror = poly(*[(y, x) for x, y in tri.vertices])
    w = unimodular_affine_equivalent(tri, mirror)
    check_witness(w, tri, mirror)
    assert w.map.determinant == 1


def test_dilated_triangle_not_determinant_one():
    assert not unimodular_affine_equivalent(UNIT, dilate(UNIT, 2))


def test_affine_round_trip_random_matrices():
    rng = seeded(41)
    for _ in range(120):
        p = random_polygon(rng)
        while True:
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(2))
                      for _ in range(2))
            if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
                break
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        q = convex_hull_2d(apply_int_map(p.vertices, m, t))
        w = affine_equivalent(p, q)
        check_witness(w, p, q)
        reordered = [None] * len(p.vertices)
        for i in range(len(p.vertices)):
            reordered[i] = q.vertices[w.bijection[i]]
        assert primitive_decomposition(volume_vector(reordered, 2)).direction \
            == primitive_decomposition(volume_vector(p.vertices, 2)).direction


def test_unimodular_round_trip_random_maps():
    rng = seeded(43)
    for _ in range(120):
        p = random_polygon(rng)
        m = random_unimodular(rng)
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        q = convex_hull_2d(apply_int_map(p.vertices, m, t))
        w = unimodular_equivalent(p, q)
        check_witness(w, p, q)
        assert w.map.is_unimodular


def test_coprime_volume_vector_forces_unimodular():
    # when the shared volume vector has coprime entries, an affine witness
    # is automatically unimodular
    rng = seeded(47)
    seen = 0
    for _ in range(200):
        p = random_polygon(rng)
        if abs(primitive_decomposition(
                volume_vector(p.vertices, 2)).content) != 1:
            continue
        seen += 1
        m = random_unimodular(rng)
        q = convex_hull_2d(apply_int_map(p.vertices, m, (0, 1)))
        assert unimodular_equivalent(p, q)
    assert seen > 20


MODES = equivalence.MODES
FACETS = "facet sizes differ"
DECIDERS = (affine_equivalent, unimodular_equivalent,
            unimodular_affine_equivalent)


def test_witnesses_map_every_vertex_anchors_included():
    # The search assigns the anchor tuple's images without mapping those
    # vertices; the witness map must still carry them there.
    rng = seeded(89)
    pairs = []
    for _ in range(60):
        p = random_polygon(rng)
        m = random_unimodular(rng)
        if rng.random() < 0.3:
            m = (m[0], (2 * m[1][0], 2 * m[1][1]))  # affine images only
        shift = (rng.randint(-4, 4), rng.randint(-4, 4))
        pairs.append((p, convex_hull_2d(apply_int_map(p.vertices, m, shift))))
    cube = tuple((x, y, z) for x in (0, 1) for y in (0, 2) for z in (0, 1))
    for _ in range(12):
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        m = ((1, a, b), (0, 1, c), (0, 0, 1))
        if rng.random() < 0.5:
            m = (m[1], m[0], m[2])
        shift = tuple(rng.randint(-3, 3) for _ in range(3))
        pairs.append((LatticePolytope(3, cube), LatticePolytope(
            3, tuple(apply_int_map(cube, m, shift)))))
    positives = Counter()
    for p, q in pairs:
        for mode in MODES:
            w = equivalence.decide(p, q, mode)
            if w:
                check_witness(w, p, q)
                positives[mode, p.dim] += 1
    assert min(positives[mode, d] for mode in MODES for d in (2, 3)) >= 10


def test_deciders_agree_with_oracle_on_random_pairs():
    rng = seeded(53)
    for _ in range(60):
        p = random_polygon(rng, span=3)
        q = random_polygon(rng, span=3)
        if len(p.vertices) > 6 or len(q.vertices) > 6:
            continue
        for mode, decide in zip(MODES, DECIDERS):
            got = decide(p, q)
            expect = oracle_equivalent(p, q, mode)
            assert bool(got) == bool(expect), (p, q, mode)


def random_ngon(rng, n):
    """Random lattice polygon with exactly n vertices: the hull of n
    rounded points on a random circle, retried until all are vertices."""
    while True:
        r = rng.uniform(3, 6)
        pts = {(round(r * cos(a)), round(r * sin(a)))
               for a in (rng.uniform(0, 2 * pi) for _ in range(n))}
        hull = strict_hull(pts)
        if hull is not None and len(hull) == n:
            return LatticePolytope(2, tuple(hull))


# Each 3d shape and one with the same vertex count that is not its image.
SHAPES_3D = ((CUBE, FRUSTUM), (OCTAHEDRON, PRISM), (PRISM, OCTAHEDRON),
             (SIMPLEX, ((0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 3))))


def witness_stream(rng):
    """(P, Q) pairs: polygons with 3 to 8 vertices and the 3d shapes, each
    with a unimodular image, a stretched image ((x, ...) -> (k*x, ...)
    then a unimodular map) and an unrelated polytope of its vertex count,
    plus the image stretched along x against a unimodular image of the
    one stretched along y: |det| 1 but not integral, so the unimodular
    search rejects every candidate."""
    def stretched(verts, axis, k):
        return [tuple(k * x if i == axis else x for i, x in enumerate(v))
                for v in verts]

    pairs = []
    for n in range(3, 9):
        for _ in range(8):
            p = random_ngon(rng, n)
            k = rng.choice((2, 3))
            shift = (rng.randint(-4, 4), rng.randint(-4, 4))
            for source, target in (
                    (p.vertices, p.vertices),
                    (p.vertices, stretched(p.vertices, 0, k)),
                    (stretched(p.vertices, 0, k), stretched(p.vertices, 1, k)),
                    (p.vertices, random_ngon(rng, n).vertices)):
                pairs.append((convex_hull_2d(source), convex_hull_2d(
                    apply_int_map(target, random_unimodular(rng), shift))))
    for shape, other in SHAPES_3D:
        for _ in range(4):
            k = rng.choice((2, 3))
            shift = tuple(rng.randint(-3, 3) for _ in range(3))
            for source, target in (
                    (shape, shape),
                    (shape, stretched(shape, 0, k)),
                    (stretched(shape, 0, k), stretched(shape, 1, k)),
                    (shape, other)):
                pairs.append((LatticePolytope(3, tuple(source)),
                              LatticePolytope(3, tuple(apply_int_map(
                                  target, random_unimodular_3d(rng), shift)))))
    return pairs


def same_decision(got, expect):
    if not expect:
        return not got and got.reason == expect.reason
    return bool(got) and (got.bijection, got.map.matrix, got.map.translation) \
        == (expect.bijection, expect.map.matrix, expect.map.translation)


def check_exact_witness(w, p, q, mode):
    """A witness checked exactly: a permutation that the map follows onto
    Q's vertices, integral with det +-1 in the unimodular mode and of
    det exactly +1 in the det_one mode."""
    check_witness(w, p, q)
    det = w.map.determinant
    assert det != 0
    if mode == "unimodular":
        assert w.map.is_integral and abs(det) == 1
    if mode == "det_one":
        assert det == 1


def test_witnesses_match_the_per_attempt_reference_search():
    # The reference forms adj(M) @ N, the shift and the Fraction witness
    # on every attempt; the deciders map P's anchor coordinates instead.
    # Both try the candidates in the same order, so on every 3d pair the
    # answer, reason and witness (hence `equiv --witness` output) must be
    # the same, except where decide rejects an affine pair by facet sizes
    # before its search: the reference has no such check, and must
    # answer no there, as must the oracle.  Every polygon pair is decided
    # by canonical frames: in all three modes it must get the reference
    # search's and the oracle's truth value, and a witness that checks
    # exactly.
    outcomes = Counter()
    for p, q in witness_stream(seeded(211)):
        for a, b in ((p, q), (q, p)):
            for mode in MODES:
                got = equivalence.decide(a, b, mode)
                expect = reference_decide(a, b, mode)
                if a.dim == 2:
                    assert bool(got) == bool(expect) == bool(
                        oracle_equivalent(a, b, mode)), (a, b, mode)
                    if got:
                        check_exact_witness(got, a, b, mode)
                elif not got and got.reason == FACETS:
                    assert not expect, (a, b, mode)
                    if len(a.vertices) <= 6:
                        assert not oracle_equivalent(a, b, mode), (a, b, mode)
                else:
                    assert same_decision(got, expect), (a, b, mode)
                outcomes[mode, a.dim, got.reason if not got else None] += 1
                if len(a.vertices) <= 6:
                    got = oracle_equivalent(a, b, mode)
                    assert same_decision(got, reference_oracle(a, b, mode))
    searched = "no vertex correspondence extends to an affine map"
    for mode in MODES:
        for d in (2, 3):
            assert outcomes[mode, d, None] >= 8
            assert sum(n for (m, dim, reason), n in outcomes.items()
                       if (m, dim) == (mode, d) and reason) >= 8
        assert outcomes[mode, 2, searched] >= 8
    for mode in ("unimodular", "det_one"):
        assert outcomes[mode, 2, "normalized volumes differ"] >= 8
    # The octahedron against images of the prism, in both orders.
    assert outcomes["affine", 3, FACETS] == 16
    assert all(reason != FACETS for (m, _, reason) in outcomes
               if m != "affine")


def stretched(cycle, k, axis=0):
    return [tuple(k * c if i == axis else c for i, c in enumerate(v))
            for v in cycle]


def mirrored(cycle):
    return [(-x, y) for x, y in cycle]


def unimodular_image(rng, cycle):
    """The cycle under a random unimodular map and shift, and the map's
    determinant."""
    m = random_unimodular(rng)
    shift = (rng.randint(-5, 5), rng.randint(-5, 5))
    image = poly(*strict_hull(apply_int_map(cycle, m, shift)))
    return image, m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_normal_form_answers_match_the_oracle():
    # Polygons with 3 to 8 vertices against a unimodular image (determinant
    # -1 included) of each, of its mirror, of its stretch by k = 2 or 3 and
    # of an unrelated polygon of their vertex count, the stretch along x
    # against an image of the stretch along y, and unimodular images of
    # two distinct grown forms with equal volume and vertex count, which
    # only the cycles tell apart: in every mode, each answer given by
    # canonical frames must be the oracle's, and each witness must check
    # exactly.
    rng = seeded(227)

    def image(p):
        return unimodular_image(rng, p.vertices)[0]

    pairs = []
    for n in range(3, 9):
        for _ in range(12):
            p = random_ngon(rng, n)
            k = rng.choice((2, 3))
            wide = poly(*stretched(p.vertices, k))
            tall = poly(*stretched(p.vertices, k, axis=1))
            pairs += [(p, image(p)), (p, random_ngon(rng, n)),
                      (p, image(poly(*mirrored(p.vertices)))),
                      (p, image(wide)), (wide, image(tall))]
    groups = {}
    census = import_module("lattice_equiv.census")
    for level in census._growth_levels(10):
        for cycle, volume in level.items():
            groups.setdefault((volume, len(cycle)), []).append(poly(*cycle))
    twins = [(a, b) for group in groups.values()
             for a in group for b in group if a != b]
    pairs += [(image(a), image(b)) for a, b in rng.sample(twins, 60)]
    outcomes = Counter()
    for p, q in pairs:
        for mode in MODES:
            got = equivalence.decide(p, q, mode)
            assert bool(got) == bool(oracle_equivalent(p, q, mode))
            if got:
                check_exact_witness(got, p, q, mode)
            outcomes[mode, got.reason if not got else None] += 1
    assert min(outcomes.values()) >= 8
    assert {reason for _, reason in outcomes} == {
        None, "normalized volumes differ",
        "no vertex correspondence extends to an affine map"}


def test_self_comparison_of_symmetric_polygons_is_the_identity():
    # Every directed edge of these frames the same cycle, so the kernel
    # keeps all 2n frames tied to the end; both sides of a self
    # comparison must still pick the same one.
    rng = seeded(229)
    hexagon = ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))
    for cycle in (SQUARE.vertices, hexagon):
        polygons = [poly(*cycle)] + [
            poly(*apply_int_map(cycle, random_unimodular(rng),
                                (rng.randint(-5, 5), rng.randint(-5, 5))))
            for _ in range(10)]
        for p in polygons:
            for mode in MODES:
                w = equivalence.decide(p, p, mode)
                assert w.bijection == tuple(range(len(cycle)))
                assert w.map.matrix == ((1, 0), (0, 1))
                assert w.map.translation == (0, 0)


CHIRAL = ((0, 0), (1, 0), (3, 2), (0, 1))


def test_chiral_quadrilateral_against_images_of_its_mirror():
    # CHIRAL has no lattice symmetry of determinant -1, so a map onto its
    # mirror has determinant -1: a unimodular image of the mirror under a
    # map of determinant det is an image of CHIRAL of determinant -det,
    # hence det_one-equivalent to it exactly when det is -1.  Stretched
    # by 2, both sides have index 2 and are compared through their shrinks.
    assert not oracle_equivalent(poly(*CHIRAL), poly(*mirrored(CHIRAL)),
                                 "det_one")
    rng = seeded(233)
    dets = Counter()
    for k in (1, 2):
        p = poly(*stretched(CHIRAL, k))
        for _ in range(20):
            q, det = unimodular_image(rng, mirrored(p.vertices))
            dets[det] += 1
            for a, b in ((p, q), (q, p)):
                for mode in MODES:
                    got = equivalence.decide(a, b, mode)
                    assert bool(got) == (mode != "det_one" or det == -1), \
                        (a, b, mode)
                    if got:
                        check_exact_witness(got, a, b, mode)
    assert min(dets[1], dets[-1]) >= 8


def test_reflection_symmetric_polygons_are_det_one_equivalent_to_mirrors():
    # Each has a lattice reflection, so its mirror images are det_one
    # images of it too, and the witness must use a frame of P whose
    # orientation matches Q's.  The kite has index 2.
    rng = seeded(239)
    kite = ((0, 0), (2, 1), (0, 3), (-2, 1))
    pentagon = ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))
    for cycle in (kite, pentagon, stretched(pentagon, 3, axis=1)):
        p = poly(*cycle)
        for _ in range(12):
            q, _ = unimodular_image(rng, mirrored(cycle))
            for a, b in ((p, q), (q, p)):
                for mode in MODES:
                    got = equivalence.decide(a, b, mode)
                    check_exact_witness(got, a, b, mode)


def test_triangles_of_index_eight_are_det_one_equivalent():
    # Both have index 8 and normalized volume 8; the shrinks carry both
    # onto unimodular triangles, and the witness maps P onto Q itself, not
    # onto Q's shrink.  The swap of coordinates carries P onto Q too,
    # with determinant -1.
    p = poly((0, 0), (4, 0), (0, 2))
    q = poly((0, 0), (2, 0), (0, 4))
    assert sublattice_info(p).index == sublattice_info(q).index == 8
    w = unimodular_affine_equivalent(p, q)
    check_exact_witness(w, p, q, "det_one")
    assert w.map.matrix == ((Fraction(1, 2), 0), (0, 2))
    assert w.map.translation == (0, 0)
    for mode in ("affine", "unimodular"):
        check_exact_witness(equivalence.decide(p, q, mode), p, q, mode)


def test_polygon_witnesses_read_only_the_shrink_image(monkeypatch):
    # The 2d witness is solved from the vertex bijection, so a shrink that
    # keeps its image and index but returns a wrong adjugate and origin
    # changes no answer and no witness: every affine and det_one witness
    # still checks exactly.  Only index > 1 sides reach the shrink.
    lattices = import_module("lattice_equiv.lattices")
    shrink = lattices._shrink
    pairs = [(a, b) for p, q in witness_stream(seeded(263)) if p.dim == 2
             for a, b in ((p, q), (q, p))]
    modes = ("affine", "det_one")
    expected = {(a, b, mode): equivalence.decide(a, b, mode)
                for a, b in pairs for mode in modes}
    scrambled = []

    def wrong(p, index=None):
        image, adj, index, (ox, oy) = shrink(p, index)
        scrambled.append(p)
        return image, ((adj[1][1], 1), (-1, adj[0][0])), index, (ox + 1, oy)

    monkeypatch.setattr(lattices, "_shrink", wrong)
    outcomes = Counter()
    for (a, b, mode), expect in expected.items():
        got = equivalence.decide(a, b, mode)
        assert same_decision(got, expect), (a, b, mode)
        if got:
            check_exact_witness(got, a, b, mode)
        outcomes[mode, bool(got)] += 1
    assert outcomes == {("affine", True): 304, ("affine", False): 80,
                        ("det_one", True): 114, ("det_one", False): 270}
    assert len(scrambled) == 684


def test_polygon_pairs_never_reach_the_vertex_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a polygon pair reached the vertex search")

    monkeypatch.setattr(equivalence, "_search", refuse)
    decided = Counter()
    for p, q in witness_stream(seeded(257)):
        if p.dim == 2:
            for mode in MODES:
                decided[mode, bool(equivalence.decide(p, q, mode))] += 1
    assert min(decided.values()) >= 40


def test_witness_maps_equal_the_publicly_built_maps():
    # The deciders build their witness maps through geometry._map_over;
    # each must equal the map the public constructor builds from the same
    # entries, hold only Fractions, and carry every vertex of P onto its
    # vertex of Q.
    positives = 0
    for p, q in witness_stream(seeded(223)):
        for a, b in ((p, q), (q, p)):
            for mode in MODES:
                for got in (equivalence.decide(a, b, mode),
                            oracle_equivalent(a, b, mode)
                            if len(a.vertices) <= 6 else None):
                    if not got:
                        continue
                    positives += 1
                    m = got.map
                    assert m == RationalAffineMap(m.matrix, m.translation)
                    assert all(type(x) is Fraction
                               for row in m.matrix + (m.translation,)
                               for x in row)
                    assert [m.apply(v) for v in a.vertices] == \
                        [b.vertices[j] for j in got.bijection]
    assert positives >= 100


def test_shrink_maps_equal_the_publicly_built_maps():
    # shrink_to_minimal_volume builds its map through geometry._map_over
    # too.  On every index > 1 form of box:4 and of the growth to volume
    # 12, the map must equal the map the public constructor builds from
    # the same entries, hold only Fractions, and carry the form onto the
    # returned image.
    census = import_module("lattice_equiv.census")
    box_forms = list(census._form_counts(Region.box(4), None, 1))
    grown_forms = [LatticePolytope(2, cycle)
                   for level in census._growth_levels(12) for cycle in level]
    forms = [p for p in box_forms + grown_forms
             if not attains_minimal_volume(p)]
    assert len(forms) == 253 + 99
    for p in forms:
        image, move = shrink_to_minimal_volume(p)
        assert move == RationalAffineMap(move.matrix, move.translation)
        assert all(type(x) is Fraction
                   for row in move.matrix + (move.translation,) for x in row)
        assert move.apply_polytope(p) == image


def test_deciding_builds_no_fraction(monkeypatch):
    # A witness map is held as ints over one denominator, so deciding, in
    # every mode and in 2d and 3d, constructs no Fraction in geometry.
    # Reading matrix and translation afterwards builds them: Fractions
    # that carry every vertex of P onto its partner in Q, which fixes the
    # map, and for a 3d pair equal the per-attempt reference search's map.
    geometry = import_module("lattice_equiv.geometry")
    pairs = witness_stream(seeded(227))
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(geometry, "Fraction", counted)
    answers = [(p, q, mode, equivalence.decide(p, q, mode))
               for p, q in pairs for mode in MODES]
    assert built == []
    monkeypatch.undo()
    positives = Counter()
    for p, q, mode, got in answers:
        if not got:
            continue
        positives[p.dim, mode] += 1
        m = got.map
        assert all(type(x) is Fraction
                   for row in m.matrix + (m.translation,) for x in row)
        for v, j in zip(p.vertices, got.bijection):
            assert tuple(sum(x * row[c] for x, row in zip(v, m.matrix))
                         + t for c, t in enumerate(m.translation)) \
                == q.vertices[j]
        if p.dim == 3:
            expect = reference_decide(p, q, mode).map
            assert (m.matrix, m.translation) == (
                expect.matrix, expect.translation)
    assert len(positives) == 6 and min(positives.values()) >= 10, positives


def test_each_decide_reads_its_invariants_through_the_traced_names(
        monkeypatch):
    # The benchmark's per-layer invariants metrics count calls made
    # through these two module names; a hot path that bypassed them
    # would read 0 there.
    calls = Counter()
    for name in ("volume_vector", "primitive_decomposition"):
        def counted(*args, _name=name, _fn=getattr(equivalence, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(equivalence, name, counted)
    p = poly((203, 11), (207, 12), (206, 15), (202, 14), (201, 12))
    q = poly(*apply_int_map(p.vertices, ((1, 0), (3, 1)), (-5, 2)))
    # Polygons, at index 1 and stretched to index 2, are decided by
    # canonical frames in every mode, which read no volume vector.
    p2 = poly(*apply_int_map(p.vertices, ((2, 0), (0, 1)), (0, 0)))
    q2 = poly(*apply_int_map(p2.vertices, ((1, 0), (3, 1)), (-5, 2)))
    for a, b in ((p, q), (p2, q2)):
        for mode in MODES:
            assert equivalence.decide(a, b, mode)
            assert equivalence.decide(b, a, mode)
        assert not hasattr(a, "_record") and not hasattr(b, "_record")
    assert not calls
    # A 3d pair is searched: each decide decomposes both volume vectors,
    # one primitive decomposition per side, however often it is asked.
    # Its volume vectors are the ones the constructors put in the
    # records, so none is computed through the traced name, and every
    # volume vector computed anywhere (`invariants._volume_vector`) is
    # the constructor's: one per polytope.
    computed = []
    compute = invariants._volume_vector
    monkeypatch.setattr(invariants, "_volume_vector",
                        lambda *args: computed.append(args) or compute(*args))
    cube = tuple((x, y, z) for x in (60, 61) for y in (0, 1) for z in (0, 3))
    p3 = LatticePolytope(3, cube)
    q3 = LatticePolytope(3, tuple(apply_int_map(
        cube, ((1, 0, 0), (2, 1, 0), (0, 0, 1)), (1, 0, 0))))
    assert computed == [(p3.vertices, 3), (q3.vertices, 3)]
    assert equivalence.decide(p3, q3, "affine")
    assert calls == {"primitive_decomposition": 2}
    for mode in MODES:
        assert equivalence.decide(p3, q3, mode)
        assert equivalence.decide(q3, p3, mode)
    assert calls == {"primitive_decomposition": 14}
    assert len(computed) == 2


def test_content_check_and_search_agree_with_oracle_on_box_forms():
    # The pairs that pass the vertex-count and direction checks, so that
    # the unimodular and det_one deciders reject them only by |content|
    # or by the search.  Equal normalized volume and equal |entries| do
    # not force equal lattice heights, so a height test would still
    # reject some of these pairs before the search.
    forms = {canonical_polygon(p)
             for p in enumerate_convex_polygons(Region.box(4))}
    groups = {}
    for p in forms:
        w = volume_vector(p.vertices, 2)
        primitive = primitive_decomposition(w)
        key = (len(p.vertices),
               tuple(sorted(abs(x) for x in primitive.direction)))
        groups.setdefault(key, []).append(
            (p, abs(primitive.content), sorted(abs(x) for x in w.entries)))
    pairs = [(a, b) for group in groups.values()
             for a in group for b in group if a is not b]
    assert len(pairs) == 2346
    heights_differ = 0
    for (p, p_content, p_entries), (q, q_content, q_entries) in pairs:
        assert (p_entries == q_entries) == (p_content == q_content), (p, q)
        for mode in ("unimodular", "det_one"):
            expect = oracle_equivalent(p, q, mode)
            assert bool(equivalence.decide(p, q, mode)) == bool(expect)
        heights_differ += (
            p_entries == q_entries
            and normalized_volume(p) == normalized_volume(q)
            and lattice_height_vector(p.vertices).abs_signature()
            != lattice_height_vector(q.vertices).abs_signature())
    assert heights_differ == 222


def shapes_3d(rng):
    """The four bench shapes (cube, frustum, octahedron, prism), seeded
    simplices and prisms over seeded polygons: vertex lists in convex
    position, no three of a facet's vertices collinear."""
    shapes = [CUBE, FRUSTUM, OCTAHEDRON, PRISM]
    while len(shapes) < 14:
        rows = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if linalg.int_det(rows):
            shapes.append(((0, 0, 0), *rows))
    for _ in range(10):
        base, h = random_polygon(rng, span=2), rng.randint(1, 3)
        shapes.append(tuple((x, y, z)
                            for z in (0, h) for x, y in base.vertices))
    return shapes


def images_3d(rng, verts):
    """A unimodular image of `verts`, a stretched one ((x, ...) ->
    (k*x, ...), then unimodular) and a relabeling, each shifted."""
    k = rng.choice((2, 3))
    stretched = [(k * v[0], *v[1:]) for v in verts]
    relabeled = list(verts)
    rng.shuffle(relabeled)
    return [apply_int_map(source, random_unimodular_3d(rng),
                          tuple(rng.randint(-3, 3) for _ in range(3)))
            for source in (verts, stretched, relabeled)]


def facet_sizes(verts):
    """The facet sizes the affine decider compares: the sorted vertex
    counts of the facets in the polytope's record."""
    return sorted(map(len, LatticePolytope(3, tuple(verts))._record[1]))


def reference_facet_sizes(verts):
    """The sorted vertex counts of the facets that the frozen triple loop
    reference_facet_inequalities finds."""
    return sorted(
        sum(linalg.vec_dot(normal, v) + offset == 0 for v in verts)
        for normal, offset in reference_facet_inequalities(verts))


def test_facet_sizes_count_the_facets_of_the_hyperplane_routine():
    # The decider's facet sizes, read from the record, are the vertex
    # counts of the facets the frozen triple loop finds.
    rng = seeded(269)
    checked = Counter()
    for shape in shapes_3d(rng):
        for verts in [shape] + images_3d(rng, shape):
            assert facet_sizes(verts) == reference_facet_sizes(verts), verts
            checked[len(verts)] += 1
    assert facet_sizes(OCTAHEDRON) == [3] * 8
    assert facet_sizes(PRISM) == [3, 3, 4, 4, 4]
    assert facet_sizes(CUBE) == facet_sizes(FRUSTUM) == [4] * 6
    assert checked[4] == 40 and sum(checked.values()) == 96
    # No polytope holds a point that is not a vertex, so the raw points
    # go to the facet routine itself: (1, 0, 0) sits on an edge, its triple
    # with that edge's ends spans no plane and is skipped, and it lies on
    # the two facets through that edge.  The facets are point sets, in
    # the order of the first triple that spans each.
    on_edge = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1))
    assert invariants.facets(volume_vector(on_edge).entries, 5, 3) == (
        (0, 1, 2, 3), (0, 1, 2, 4), (0, 3, 4), (2, 3, 4))


def test_facet_sizes_are_kept_by_rational_affine_maps():
    # The stretch along x and the stretch along y of a shape, each under
    # a unimodular map, differ by a rational affine map that is not
    # integral; the decider finds that map and both keep the facet sizes.
    rng = seeded(271)
    for shape in shapes_3d(rng):
        k = rng.choice((2, 3))
        along_x = [(k * x, y, z) for x, y, z in shape]
        along_y = [(x, k * y, z) for x, y, z in shape]
        a, b = (LatticePolytope(3, tuple(apply_int_map(
            verts, random_unimodular_3d(rng),
            tuple(rng.randint(-3, 3) for _ in range(3)))))
            for verts in (along_x, along_y))
        witness = affine_equivalent(a, b)
        assert witness and not witness.map.is_integral
        assert facet_sizes(a.vertices) == facet_sizes(b.vertices) \
            == reference_facet_sizes(shape)


def test_facet_size_check_agrees_with_oracle_on_3d_pairs():
    # Every shape with at most 8 vertices against its images, and against
    # an image of each of the next three shapes with its vertex count (the
    # octahedron, the prism and the prisms over triangles; the cube, the
    # frustum and the prisms over quadrilaterals), both orders, in all
    # three modes: each answer is the oracle's.
    rng = seeded(277)
    shapes = [shape for shape in shapes_3d(rng) if len(shape) <= 8]
    pairs = []
    for i, shape in enumerate(shapes):
        pairs += [(shape, image) for image in images_3d(rng, shape)]
        others = [other for other in shapes[i + 1:]
                  if len(other) == len(shape)]
        pairs += [(shape, rng.choice(images_3d(rng, other)))
                  for other in others[:3]]
    outcomes = Counter()
    for p, q in pairs:
        p, q = LatticePolytope(3, tuple(p)), LatticePolytope(3, tuple(q))
        for a, b in ((p, q), (q, p)):
            for mode in MODES:
                got = equivalence.decide(a, b, mode)
                assert bool(got) == bool(oracle_equivalent(a, b, mode)), \
                    (a, b, mode)
                outcomes[mode, got.reason if not got else None] += 1
    assert outcomes["affine", FACETS] >= 6
    assert min(outcomes[mode, None] for mode in MODES) >= 80
    for shape, other in ((OCTAHEDRON, PRISM), (CUBE, FRUSTUM)):
        p, q = LatticePolytope(3, shape), LatticePolytope(3, other)
        for a, b in ((p, q), (q, p)):
            assert not affine_equivalent(a, b)
            assert not oracle_equivalent(a, b)


def test_octahedron_and_prism_are_rejected_before_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the pair reached the vertex search")

    monkeypatch.setattr(equivalence, "_search", refuse)
    p, q = LatticePolytope(3, OCTAHEDRON), LatticePolytope(3, PRISM)
    assert affine_equivalent(p, q) == equivalence.NotEquivalent(FACETS)
    assert affine_equivalent(q, p) == equivalence.NotEquivalent(FACETS)


def direct_volume_vector(p):
    """The simplex determinant of each (d + 1)-subset of P's vertices, one
    by one, in index_combinations order."""
    geometry = import_module("lattice_equiv.geometry")
    verts = p.vertices
    return tuple(geometry.simplex_determinant([verts[i] for i in combo])
                 for combo in invariants.index_combinations(
                     len(verts), p.dim + 1))


def test_the_deciders_read_the_direct_volume_vector_of_the_hull_record():
    # From dimension 3 on, the volume vector the deciders read is the
    # very one of the polytope's record, and its entries are the direct
    # simplex determinants, on the 3d shapes, 4d prisms over the small
    # ones, seeded 4d simplices, and a unimodular image of each.
    rng = seeded(311)
    shapes = shapes_3d(rng)
    solids = list(shapes)
    for shape in shapes:
        if len(shape) <= 8:
            solids.append([(*v, 0) for v in shape]
                          + [(*v, rng.randint(1, 2)) for v in shape])
    while len(solids) < len(shapes) + 20:
        rows = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(4)]
        if linalg.int_det(rows):
            solids.append([(0, 0, 0, 0), *rows])
    seen = Counter()
    for verts in solids:
        d = len(verts[0])
        image = apply_int_map(verts, random_unimodular_nd(rng, d),
                              tuple(rng.randint(-3, 3) for _ in range(d)))
        for p in (LatticePolytope(d, tuple(verts)),
                  LatticePolytope(d, tuple(image))):
            volume = invariants._volume_of(p)
            assert volume is p._record[0]
            assert volume.entries == direct_volume_vector(p), p
            seen[d] += 1
    assert seen == {3: 48, 4: 46}


def test_deciding_shares_each_polytopes_own_volume_vector(monkeypatch):
    # Seeded 3d pairs, in all three modes and both orders, answer as the
    # oracle does, and compute no volume vector beyond their constructors'.
    # Then two equal polytopes: each holds its own record, dropping one
    # leaves the other's as it was, and deciding with the survivor
    # computes no volume vector: it reads its record's.
    computed = []
    compute = invariants._volume_vector
    monkeypatch.setattr(invariants, "_volume_vector",
                        lambda *args: computed.append(args) or compute(*args))
    rng = seeded(313)
    shapes = [shape for shape in shapes_3d(rng) if len(shape) <= 6]
    pairs = [(shape, image) for shape in shapes
             for image in images_3d(rng, shape)[:2]]
    pairs += [(a, b) for a in shapes for b in shapes
              if a is not b and len(a) == len(b)][:10]
    # One polytope per vertex list, so each list is constructed once.
    solids = {}
    for verts in map(tuple, chain.from_iterable(pairs)):
        if verts not in solids:
            solids[verts] = LatticePolytope(3, verts)
    assert len(computed) == len(solids)
    outcomes = Counter()
    for p, q in pairs:
        p, q = solids[tuple(p)], solids[tuple(q)]
        for a, b in ((p, q), (q, p)):
            for mode in MODES:
                got = equivalence.decide(a, b, mode)
                assert bool(got) == bool(oracle_equivalent(a, b, mode)), \
                    (a, b, mode)
                outcomes[bool(got)] += 1
    assert len(computed) == len(solids)
    assert outcomes == {True: 142, False: 122}
    verts = ((70, 0, 0), (73, 0, 0), (70, 2, 0), (70, 0, 5), (72, 1, 2))
    first, second = LatticePolytope(3, verts), LatticePolytope(3, verts)
    assert first == second and first._record is not second._record
    record, held = second._record, list(second._record)
    del first
    assert second._record is record
    assert all(x is y for x, y in zip(record, held))
    other = LatticePolytope(3, tuple(apply_int_map(
        verts, random_unimodular_3d(rng), (1, 2, 3))))
    built = len(computed)
    for mode in MODES:
        assert bool(equivalence.decide(second, other, mode)) \
            == bool(oracle_equivalent(second, other, mode))
    assert computed[built:] == []
    volume = invariants._volume_of(second)
    assert volume is record[0] is held[0]
    assert volume.entries == direct_volume_vector(second)


def random_rational_affine_image(rng, p):
    """Image of p under unimodular, then (x, y) -> (k*x, y) with k = 2
    or 3, then unimodular again, then a shift: an affine map that is
    rational but not unimodular."""
    k = rng.choice((2, 3))
    pts = apply_int_map(p.vertices, random_unimodular(rng), (0, 0))
    pts = apply_int_map(pts, ((k, 0), (0, 1)), (0, 0))
    shift = (rng.randint(-5, 5), rng.randint(-5, 5))
    return poly(*apply_int_map(pts, random_unimodular(rng), shift))


def test_affine_key_invariant_under_rational_affine_images():
    rng = seeded(61)
    for _ in range(120):
        p = random_polygon(rng)
        key = affine_key(p)
        assert attains_minimal_volume(key)
        assert canonical_polygon(key) == key
        q = random_rational_affine_image(rng, p)
        assert affine_key(q) == key, (p, q)
        assert affine_key(random_rational_affine_image(rng, q)) == key


small = st.integers(min_value=-3, max_value=3)
polygons = st.lists(st.tuples(small, small), min_size=3, max_size=7).map(
    strict_hull).filter(bool).map(lambda hull: poly(*hull))
nonsingular = st.tuples(small, small, small, small).filter(
    lambda m: m[0] * m[3] != m[1] * m[2]).map(lambda m: (m[:2], m[2:]))


@given(polygons, nonsingular, nonsingular, st.tuples(small, small))
def test_affine_key_property_under_rational_affine_images(p, m1, m2, shift):
    """p @ m1 and p @ m2 + shift are lattice polygons related by the
    rational affine map x -> x @ m1^-1 @ m2 + shift; all three share one
    key."""
    key = affine_key(p)
    assert affine_key(poly(*apply_int_map(p.vertices, m1, (0, 0)))) == key
    assert affine_key(poly(*apply_int_map(p.vertices, m2, shift))) == key


def test_affine_key_agrees_with_oracle_on_random_pairs():
    rng = seeded(67)
    outcomes = Counter()
    for _ in range(300):
        p = random_polygon(rng, span=2)
        q = random_polygon(rng, span=2)
        if len(p.vertices) > 6 or len(q.vertices) > 6:
            continue
        same = affine_key(p) == affine_key(q)
        assert same == bool(oracle_equivalent(p, q, "affine")), (p, q)
        outcomes[same] += 1
    assert outcomes[True] > 20 and outcomes[False] > 20


def test_oracle_on_unit_ball_polygons():
    polys = []
    pts = lattice_points(Region.ball(1))
    from itertools import combinations
    for size in (3, 4):
        for sub in combinations(pts, size):
            try:
                hull = convex_hull_2d(sub)
            except DegenerateInput:
                continue
            if len(hull.vertices) == size and hull not in polys:
                polys.append(hull)
    assert len(polys) == 9
    for p in polys:
        for q in polys:
            assert bool(affine_equivalent(p, q)) == \
                bool(oracle_equivalent(p, q, "affine"))
    assert oracle_class_count(polys, "affine") == 2


def test_oracle_rejects_large_input():
    big = convex_hull_2d(lattice_points(Region.ball(4)))
    assert len(big.vertices) == 12
    with pytest.raises(TooLarge):
        oracle_equivalent(big, big, "unimodular")


def test_canonical_triangle_examples():
    ct = canonical_triangle(poly((0, 0), (2, 0), (1, 2)))
    assert (ct.g, ct.b, ct.a) == (1, 4, 2)
    assert ct.key == (1, 4, 2)
    assert ct.as_polytope().vertices == ((0, 0), (1, 0), (2, 4))
    assert ct.normalized_volume == 4
    assert canonical_triangle(UNIT).key == (1, 1, 0)


def test_canonical_triangle_shape():
    rng = seeded(59)
    for _ in range(200):
        p = random_polygon(rng)
        if len(p.vertices) != 3:
            continue
        ct = canonical_triangle(p)
        assert ct.g >= 1 and ct.b >= 1 and 0 <= ct.a < ct.b
        assert unimodular_equivalent(p, ct.as_polytope())


def test_canonical_triangle_invariance():
    rng = seeded(61)
    base = poly((0, 0), (3, 1), (1, 4))
    key = canonical_triangle(base).key
    for _ in range(80):
        m = random_unimodular(rng)
        t = (rng.randint(-6, 6), rng.randint(-6, 6))
        image = convex_hull_2d(apply_int_map(base.vertices, m, t))
        assert canonical_triangle(image).key == key


def test_canonical_triangle_keys_classify():
    rng = seeded(67)
    tris = []
    while len(tris) < 40:
        p = random_polygon(rng, span=3)
        if len(p.vertices) == 3:
            tris.append(p)
    for p in tris:
        for q in tris:
            same_key = canonical_triangle(p).key == canonical_triangle(q).key
            assert same_key == bool(oracle_equivalent(p, q, "unimodular"))


def test_canonical_polygon_square_fixed_point():
    assert canonical_polygon(SQUARE) == SQUARE
    assert canonical_polygon(canonical_polygon(SQUARE)) == \
        canonical_polygon(SQUARE)


def test_canonical_polygon_diamond():
    diamond = poly((1, 0), (0, 1), (-1, 0), (0, -1))
    canon = canonical_polygon(diamond)
    assert canon.vertices == ((0, 0), (1, 0), (2, 2), (1, 2))
    assert canonical_polygon(canon) == canon


def test_canonical_polygon_invariance_and_classification():
    rng = seeded(71)
    for _ in range(60):
        p = random_polygon(rng, span=3)
        m = random_unimodular(rng)
        t = (rng.randint(-5, 5), rng.randint(-5, 5))
        q = convex_hull_2d(apply_int_map(p.vertices, m, t))
        assert canonical_polygon(p) == canonical_polygon(q)
        assert canonical_polygon(canonical_polygon(p)) == canonical_polygon(p)
    for _ in range(40):
        p = random_polygon(rng, span=3)
        q = random_polygon(rng, span=3)
        if len(p.vertices) > 6 or len(q.vertices) > 6:
            continue
        assert (canonical_polygon(p) == canonical_polygon(q)) == \
            bool(unimodular_equivalent(p, q))


def framed_cycles(cycle):
    """Every one of the 2n framed vertex cycles of a polygon, each built
    in full: the eager reference for _canonical_cycle's lazy comparison.
    Each directed edge goes to the origin and (g, 0), and the last vertex
    of the traversal is reflected and sheared to (a, b) with 0 <= a < b."""
    n = len(cycle)
    rev = cycle[::-1]
    traversals = [tuple(cycle[(i + k) % n] for k in range(n)) for i in range(n)]
    traversals += [tuple(rev[(i + k) % n] for k in range(n)) for i in range(n)]
    for tr in traversals:
        yield framed_traversal(tr)


def framed_traversal(tr):
    """The framed cycle of one traversal `tr` of a polygon's vertices."""
    (ox, oy), (ex, ey) = tr[0], tr[1]
    g = gcd(ex - ox, ey - oy)
    alpha, beta = (ex - ox) // g, (ey - oy) // g
    _, x, y = linalg.egcd(alpha, beta)
    pts = [((px - ox) * x + (py - oy) * y,
            (py - oy) * alpha - (px - ox) * beta) for px, py in tr]
    ref_y = pts[-1][1]
    if ref_y < 0:
        pts = [(x, -y) for x, y in pts]
        ref_y = -ref_y
    shear = pts[-1][0] // ref_y
    return [(x - shear * y, y) for x, y in pts]


def eager_canonical_cycle(cycle):
    return tuple(min(framed_cycles(cycle)))


def reference_canonical_polygon(p):
    """canonical_polygon by brute force: every framed candidate is built
    as a validated LatticePolytope and the smallest serialize() wins.
    Also checks what the fast path relies on: each framed cycle is
    already in the constructor's stored order."""
    best = None
    for pts in framed_cycles(p.vertices):
        cand = LatticePolytope(2, tuple(pts))
        assert cand.vertices == tuple(pts), p
        if best is None or cand.serialize() < best.serialize():
            best = cand
    return best


def rotations_and_reversals(cycle):
    cycle = tuple(cycle)
    n = len(cycle)
    return [c[i:] + c[:i] for c in (cycle, cycle[::-1]) for i in range(n)]


def test_canonical_cycle_matches_eager_loop():
    root_polygons = import_module("lattice_equiv.census")._root_polygons
    searches = [(Region.ball(2), None), (Region.box(3), None)]
    searches += [(Region.box(v), v) for v in range(1, 7)]
    checked = 0
    for region, volume in searches:
        pts = lattice_points(region)
        for i in range(len(pts)):
            for cycle in (root_polygons(pts, i, None) if volume is None else
                          budgeted_root_polygons(pts, i, None, volume)):
                reversed_ = cycle[::-1]
                for c in (cycle, reversed_[1:] + reversed_[:1]):
                    assert equivalence._canonical_cycle(c) == \
                        eager_canonical_cycle(c), c
                checked += 1
    assert checked > 10000


def test_canonical_cycle_of_symmetric_polygons():
    # Each of these has a lattice symmetry taking any directed edge to any
    # other, so all 2n candidates frame the same cycle and the lazy
    # comparison keeps every one of them up to the last vertex.
    shapes = {
        "square": ((0, 0), (1, 0), (1, 1), (0, 1)),
        "hexagon": ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
        "3*Delta_2": ((0, 0), (3, 0), (0, 3)),
        "diamond": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    }
    rng = seeded(83)
    for name, cycle in shapes.items():
        form = eager_canonical_cycle(cycle)
        images = [cycle]
        for _ in range(20):
            shift = (rng.randint(-5, 5), rng.randint(-5, 5))
            images.append(apply_int_map(cycle, random_unimodular(rng), shift))
        forms = {equivalence._canonical_cycle(c) for image in images
                 for c in rotations_and_reversals(image)}
        assert forms == {form}, name
        assert [tuple(f) for f in framed_cycles(cycle)] == \
            [form] * (2 * len(cycle)), name


def test_canonical_cycle_matches_eager_loop_on_unimodular_images():
    # Unimodular images of box:4 polygons, translated and read from a
    # random vertex in both orientations, checked against every framed
    # cycle built in full.
    root_polygons = import_module("lattice_equiv.census")._root_polygons
    pts = lattice_points(Region.box(4))
    cycles = [c for i in range(len(pts))
              for c in root_polygons(pts, i, None)]
    rng = seeded(16)
    # Sorted, so the sample does not depend on the search's emission order.
    for cycle in rng.sample(sorted(cycles), 3000):
        image = apply_int_map(cycle, random_unimodular(rng),
                              (rng.randint(-9, 9), rng.randint(-9, 9)))
        start = rng.randrange(len(image))
        image = tuple(image[start:] + image[:start])
        for c in (image, image[::-1]):
            assert equivalence._canonical_cycle(c) == \
                eager_canonical_cycle(c), c


def growth_cycles(max_volume):
    """Every raw cycle census._one_point_growths yields while growing
    every form up to `max_volume`, before it is canonicalized."""
    census = import_module("lattice_equiv.census")
    for points, level in enumerate(census._growth_levels(max_volume), 3):
        for cycle, volume in level.items():
            if volume < max_volume:
                for new, _ in census._one_point_growths(
                        cycle, volume, points, max_volume):
                    yield new


def least_edge_kinds(cycle):
    """Which kinds of anchor the one-pass kernel meets on a cycle: its
    least edges' lattice length and primitive direction (alpha, beta)."""
    n = len(cycle)
    edges = [(cycle[(i + 1) % n][0] - cycle[i][0],
              cycle[(i + 1) % n][1] - cycle[i][1]) for i in range(n)]
    g = min(gcd(ex, ey) for ex, ey in edges)
    kinds = set()
    for ex, ey in edges:
        if gcd(ex, ey) == g:
            beta = ey // g
            kinds.add("g > 1" if g > 1 else "g = 1")
            kinds.add("beta = 0" if not beta else "|beta| = 1"
                      if abs(beta) == 1 else "|beta| > 1")
            if beta < 0:
                kinds.add("beta < 0")
    return kinds


def test_canonical_cycle_matches_eager_loop_on_growth_cycles():
    # Every cycle the growth to volume 14 yields, read from every start
    # vertex in both orientations; all of these readings have the same
    # 2n framed cycles, so they share one eager form.
    kinds = set()
    checked = 0
    for cycle in growth_cycles(14):
        kinds |= least_edge_kinds(cycle)
        form = eager_canonical_cycle(cycle)
        for c in rotations_and_reversals(cycle):
            assert equivalence._canonical_cycle(c) == form, c
        checked += 1
    assert checked > 2000
    assert kinds == {"g = 1", "g > 1", "beta = 0", "|beta| = 1",
                     "|beta| > 1", "beta < 0"}


def large_unimodular(rng, bound=10 ** 6):
    """Random 2x2 integer matrix of determinant +-1 with entries up to
    `bound`: a random primitive row, completed by a Bezout pair."""
    a = b = 0
    while gcd(a, b) != 1:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
    _, x, y = linalg.egcd(a, b)
    m = ((a, b), (-y, x))
    return m if rng.random() < 0.5 else (m[1], m[0])


def large_images():
    """Seeded unimodular images of growth cycles with entries and shifts
    up to 10**6, so the kernel's Bezout step works modulo large |beta|,
    each read from a random vertex in both orientations."""
    rng = seeded(23)
    cycles = sorted(growth_cycles(14))
    for cycle in rng.sample(cycles, 1500):
        image = apply_int_map(cycle, large_unimodular(rng),
                              (rng.randint(-10 ** 6, 10 ** 6),
                               rng.randint(-10 ** 6, 10 ** 6)))
        assert max(abs(c) for p in image for c in p) > 10 ** 4
        start = rng.randrange(len(image))
        image = tuple(image[start:] + image[:start])
        yield image
        yield image[::-1]


def test_canonical_cycle_matches_eager_loop_on_large_images():
    for c in large_images():
        assert equivalence._canonical_cycle(c) == eager_canonical_cycle(c), c


def eager_frames(cycle):
    """(flipped, [(start, step), ...]) of `_canonical_frame`, by brute
    force: the shoelace sign says whether `cycle` runs clockwise, and the
    pairs are those of the 2n traversals of the counterclockwise cycle c
    whose framed cycle is the eager form, in anchor order: for each edge
    c[i] -> c[i + 1] by i, the forward traversal (i, 1) from c[i] before
    the backward one (i + 1, -1) from c[i + 1]."""
    n = len(cycle)
    flipped = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                  in zip(cycle, cycle[1:] + cycle[:1])) < 0
    c = cycle[::-1] if flipped else cycle
    form = list(eager_canonical_cycle(cycle))
    return flipped, [
        (start, step) for i in range(n) for start, step in ((i, 1), (i + 1, -1))
        if framed_traversal([c[(start + step * k) % n]
                             for k in range(n)]) == form]


def assert_frames_match_eager(cycle):
    """`_canonical_frame(cycle)` has the eager form, `flipped` and
    (start, step) order, and each of its frames, an integer matrix of
    determinant step, maps its traversal of the cycle onto the form."""
    form, flipped, frames = equivalence._canonical_frame(cycle)
    assert form == eager_canonical_cycle(cycle), cycle
    assert (flipped, [frame[:2] for frame in frames]) == \
        eager_frames(cycle), cycle
    n, c = len(cycle), cycle[::-1] if flipped else cycle
    for start, step, ox, oy, xx, xy, yx, yy in frames:
        assert xx * yy - xy * yx == step, cycle
        read = [c[(start + step * k) % n] for k in range(n)]
        assert tuple(((x - ox) * xx + (y - oy) * yx,
                      (x - ox) * xy + (y - oy) * yy) for x, y in read) \
            == form, cycle


def test_canonical_frame_order_matches_the_eager_traversals():
    # The 2d deciders' witnesses read the kernel's first frame, each
    # frame's (start, step) and, in det_one, the first frame of a given
    # step, so the order is pinned: on box:4 cycles and their reversals,
    # on unimodular images read from a random vertex in both
    # orientations, and on the large images.
    root_polygons = import_module("lattice_equiv.census")._root_polygons
    pts = lattice_points(Region.box(4))
    cycles = sorted(c for i in range(len(pts))
                    for c in root_polygons(pts, i, None))
    rng = seeded(29)
    ties = Counter()
    for cycle in rng.sample(cycles, 2500):
        image = apply_int_map(cycle, random_unimodular(rng),
                              (rng.randint(-9, 9), rng.randint(-9, 9)))
        start = rng.randrange(len(image))
        image = tuple(image[start:] + image[:start])
        for c in (cycle, cycle[::-1], image, image[::-1]):
            assert_frames_match_eager(c)
        ties[len(equivalence._canonical_frame(cycle)[2])] += 1
    for c in large_images():
        assert_frames_match_eager(c)
    # Symmetric forms keep several frames, so the order is exercised.
    assert set(ties) >= {1, 2, 4, 6, 8}


def bezout_branch(alpha, beta):
    """Which Bezout pair the kernel takes for a primitive least edge."""
    if abs(beta) == 1:
        return "|beta| = 1"
    if abs(alpha) == 1:
        return "beta = 0" if beta == 0 else "|alpha| = 1"
    return "pow"


def test_canonical_frame_on_each_bezout_branch():
    # Hand-picked triangles and quadrilaterals whose least edges all take
    # one branch of the kernel's Bezout step, each at g = 1 and, doubled,
    # at g = 2: every rotation and reversal has the eager form and frame
    # order.
    cycles = {
        "|beta| = 1": ((0, 0), (2, 1), (0, 1)),
        "|alpha| = 1": ((0, 0), (2, 0), (1, 2)),
        "beta = 0": ((0, 0), (1, 0), (3, 6)),
        "pow": ((0, 0), (5, -2), (2, 3)),
    }
    quads = {
        "|beta| = 1": ((0, 0), (1, -1), (1, 0), (0, 1)),
        "|alpha| = 1": ((0, 0), (1, -2), (2, 0), (1, 2)),
        "beta = 0": ((0, 0), (1, 0), (1, 2), (0, 2)),
        "pow": ((0, 0), (2, -3), (4, 0), (2, 3)),
    }
    seen = set()
    for branch, cycle in chain(cycles.items(), quads.items()):
        for k in (1, 2):
            scaled = tuple((k * x, k * y) for x, y in cycle)
            n = len(scaled)
            edges = [(scaled[(i + 1) % n][0] - scaled[i][0],
                      scaled[(i + 1) % n][1] - scaled[i][1])
                     for i in range(n)]
            g = min(gcd(ex, ey) for ex, ey in edges)
            assert g == k, scaled
            assert {bezout_branch(ex // g, ey // g) for ex, ey in edges
                    if gcd(ex, ey) == g} == {branch}, scaled
            seen.add((branch, g))
            for c in rotations_and_reversals(scaled):
                assert_frames_match_eager(c)
    assert len(seen) == 8


def test_canonical_polygon_matches_reference_representative():
    rng = seeded(73)
    dets = Counter()
    for region in (Region.ball(2), Region.box(3)):
        for p in enumerate_convex_polygons(region):
            m = random_unimodular(rng)
            dets[m[0][0] * m[1][1] - m[0][1] * m[1][0]] += 1
            shift = (rng.randint(-5, 5), rng.randint(-5, 5))
            image = poly(*apply_int_map(p.vertices, m, shift))
            for q in (p, image):
                assert canonical_polygon(q).vertices == \
                    reference_canonical_polygon(q).vertices, q
    assert set(dets) == {1, -1}


def test_not_equivalent_reason_is_reported():
    ne = affine_equivalent(UNIT, SQUARE)
    assert not ne
    assert isinstance(ne.reason, str) and ne.reason


def test_library_accepts_only_library_mode_names():
    w = oracle_equivalent(WIDE, TALL, "det_one")
    assert w and w.map.determinant == 1
    # "det-one" is the command line's spelling; the CLI translates it.
    for decider in (equivalence.decide, oracle_equivalent):
        with pytest.raises(DegenerateInput):
            decider(WIDE, TALL, "det-one")


def test_deciders_do_not_keep_their_inputs_alive():
    # Deciding or checking a pair adds no reference to either polytope:
    # no cache outside a polytope holds it, and nothing in a record
    # points back at its polytope.
    p = poly((101, 7), (104, 7), (105, 9), (101, 8))
    q = poly(*apply_int_map(p.vertices, ((1, 0), (2, 1)), (-3, 5)))
    cube = tuple((x, y, z) for x in (50, 51) for y in (0, 1) for z in (0, 2))
    p3 = LatticePolytope(3, cube)
    q3 = LatticePolytope(3, tuple(apply_int_map(
        cube, ((1, 0, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))))

    def counts():
        return [sys.getrefcount(x) for x in (p, q, p3, q3)]

    for mode in MODES:
        for a, b in ((p, q), (p3, q3)):
            for decider in (equivalence.decide, oracle_equivalent):
                before = counts()
                assert decider(a, b, mode)
                assert counts() == before, (decider, a.dim, mode)


def test_records_die_by_reference_counting():
    # With the cycle collector off, a 3d polytope decided in every mode
    # and by the oracle frees its volume vector as soon as the last
    # reference to it goes: polytope and record form no cycle, and no
    # module-level container holds either.
    cube = tuple((x, y, z) for x in (80, 81) for y in (0, 1) for z in (0, 2))
    p = LatticePolytope(3, cube)
    q = LatticePolytope(3, tuple(apply_int_map(
        cube, ((1, 0, 0), (1, 1, 0), (0, 0, 1)), (2, 0, 0))))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for mode in MODES:
            assert equivalence.decide(p, q, mode)
            assert equivalence.decide(q, p, mode)
            assert oracle_equivalent(p, q, mode)
        volume = p._record[0]
        assert type(volume) is invariants.VolumeVector
        ref = weakref.ref(volume)
        del volume
        assert ref() is not None
        del p
        assert ref() is None
        assert type(q._record[0]) is invariants.VolumeVector
    finally:
        if enabled:
            gc.enable()


def test_deciding_writes_nothing_into_the_polytopes():
    # Deciding a 3d pair in every mode and both orders, and checking it
    # by the oracle, leaves each polytope's record the list its
    # constructor made, holding the same objects: the half-spaces still
    # unbuilt, and no decider invariant kept.  The stretched image is
    # affinely equivalent only, so the other modes reject it by content.
    cube = tuple((x, y, z) for x in (90, 91) for y in (0, 1) for z in (0, 2))
    p = LatticePolytope(3, cube)
    shear = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    image = LatticePolytope(3, tuple(apply_int_map(cube, shear, (3, 0, 0))))
    stretched = LatticePolytope(3, tuple(apply_int_map(
        [(2 * x, y, z) for x, y, z in cube], shear, (0, 1, 0))))
    for q in (image, stretched):
        held = [(x, x._record, list(x._record)) for x in (p, q)]
        for mode in MODES:
            for a, b in ((p, q), (q, p)):
                expect = mode == "affine" or q is image
                assert bool(equivalence.decide(a, b, mode)) == expect
                assert bool(oracle_equivalent(a, b, mode)) == expect
        for x, record, constructed in held:
            assert x._record is record and len(record) == len(constructed)
            assert all(y is z for y, z in zip(record, constructed))
            assert record[2] is None


def test_answers_do_not_depend_on_call_history():
    rng = seeded(79)
    pairs = []
    for _ in range(30):
        p = random_polygon(rng, span=3)
        if rng.random() < 0.5:
            m = random_unimodular(rng)
            shift = (rng.randint(-4, 4), rng.randint(-4, 4))
            q = convex_hull_2d(apply_int_map(p.vertices, m, shift))
        else:
            q = random_polygon(rng, span=3)
        pairs.append((p.vertices, q.vertices))
    # Seeded 3d pairs: each shape against one of its images, or against
    # another shape.
    shapes = shapes_3d(rng)
    for shape in shapes[::2]:
        q = rng.choice(images_3d(rng, shape) + [rng.choice(shapes)])
        pairs.append((tuple(shape), tuple(map(tuple, q))))

    def build(verts):
        return LatticePolytope(len(verts[0]), tuple(verts))

    def answers(polys):
        got = {}
        for i, (p, q) in polys:
            for mode in MODES:
                r = equivalence.decide(p, q, mode)
                got[i, mode] = (r.bijection, r.map) if r else r.reason
        return got

    # Fresh objects: each pair is built just before it is decided and
    # dropped right after, so nothing derived from it outlives the call.
    fresh = answers((i, (build(pv), build(qv)))
                    for i, (pv, qv) in enumerate(pairs))
    # The same objects after every P was decided against every Q of its
    # dimension.
    built = [(build(pv), build(qv)) for pv, qv in pairs]
    for p, _ in built:
        for _, q in built:
            if p.dim == q.dim:
                for mode in MODES:
                    equivalence.decide(p, q, mode)
                    equivalence.decide(q, p, mode)
    assert answers(enumerate(built)) == fresh
    # Equal copies built separately, polygons from their reversed cycles
    # (stored as before) and 3d polytopes from their lists, and decided
    # in reverse order.
    copies = [(i, tuple(build(v[::-1] if len(v[0]) == 2 else v)
                        for v in (pv, qv)))
              for i, (pv, qv) in reversed(list(enumerate(pairs)))]
    assert answers(copies) == fresh
    outcomes = Counter(isinstance(a, tuple) for a in fresh.values())
    assert outcomes[True] > 20 and outcomes[False] > 20
