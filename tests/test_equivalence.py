"""Equivalence deciders, canonical forms, and the brute-force oracle."""

import gc
import weakref
from collections import Counter
from fractions import Fraction
from importlib import import_module
from math import gcd

import pytest
from hypothesis import given, strategies as st

from conftest import (
    apply_int_map,
    oracle_class_count,
    poly,
    random_polygon,
    random_unimodular,
    seeded,
    strict_hull,
)
from lattice_equiv import (
    DegenerateInput,
    LatticePolytope,
    TooLarge,
    affine_equivalent,
    affine_key,
    attains_minimal_volume,
    canonical_polygon,
    canonical_triangle,
    convex_hull_2d,
    dilate,
    enumerate_convex_polygons,
    lattice_points,
    oracle_equivalent,
    primitive_decomposition,
    Region,
    unimodular_affine_equivalent,
    unimodular_equivalent,
    volume_vector,
)
from lattice_equiv import equivalence, linalg

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
    assert "height" in ne.reason


def test_rescaled_triangle_pair_determinant_one():
    w = unimodular_affine_equivalent(WIDE, TALL)
    check_witness(w, WIDE, TALL)
    assert w.map.determinant == 1
    assert w.map.matrix == ((Fraction(2, 3), 0), (0, Fraction(3, 2)))


def test_self_comparison_is_identity():
    for p in (UNIT, SQUARE, WIDE):
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
        yield [(x - shear * y, y) for x, y in pts]


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
            for cycle in root_polygons(pts, i, None, volume):
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
    # Coordinates no other test uses, so no equal polytope holds a profile.
    p = poly((101, 7), (104, 7), (105, 9), (101, 8))
    q = poly(*apply_int_map(p.vertices, ((1, 0), (2, 1)), (-3, 5)))
    cube = tuple((x, y, z) for x in (50, 51) for y in (0, 1) for z in (0, 2))
    p3 = LatticePolytope(3, cube)
    q3 = LatticePolytope(3, tuple(apply_int_map(
        cube, ((1, 0, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))))
    for mode in MODES:
        assert equivalence.decide(p, q, mode)
        assert oracle_equivalent(p, q, mode)
        assert equivalence.decide(p3, q3, mode)
    refs = [weakref.ref(x) for x in (p, q, p3, q3)]
    del p, q, p3, q3
    gc.collect()
    assert [r() for r in refs] == [None] * 4


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

    def answers(polys):
        got = {}
        for i, (p, q) in polys:
            for mode in MODES:
                r = equivalence.decide(p, q, mode)
                got[i, mode] = (r.bijection, r.map) if r else r.reason
        return got

    # Fresh objects: each pair is built just before it is decided and
    # dropped right after, so no profile of it outlives the call.
    fresh = answers((i, (poly(*pv), poly(*qv)))
                    for i, (pv, qv) in enumerate(pairs))
    # The same objects after every P was decided against every Q.
    built = [(poly(*pv), poly(*qv)) for pv, qv in pairs]
    for p, _ in built:
        for _, q in built:
            for mode in MODES:
                equivalence.decide(p, q, mode)
                equivalence.decide(q, p, mode)
    assert answers(enumerate(built)) == fresh
    # Equal copies built separately from the reversed vertex lists and
    # decided in reverse order.
    copies = [(i, (poly(*pv[::-1]), poly(*qv[::-1])))
              for i, (pv, qv) in reversed(list(enumerate(pairs)))]
    assert answers(copies) == fresh
    outcomes = Counter(isinstance(a, tuple) for a in fresh.values())
    assert outcomes[True] > 20 and outcomes[False] > 20
