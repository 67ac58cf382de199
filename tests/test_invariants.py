"""Volume vectors, primitive decomposition, hyperplanes, lattice heights."""

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from importlib import import_module
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, strategies as st

from conftest import (
    CUBE, FRUSTUM, OCTAHEDRON, PRISM, SIMPLEX, apply_int_map, random_polygon,
    random_unimodular, random_unimodular_nd, seeded)
from lattice_equiv import (
    DegenerateInput,
    DimensionMismatch,
    LatticePolytope,
    ZeroVector,
    hnf,
    lattice_height_vector,
    primitive_decomposition,
    primitive_hyperplane,
    simplex_determinant,
    sublattice_info,
    volume_vector,
)

SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))


def test_volume_vector_square():
    w = volume_vector(SQUARE, 2)
    assert w.entries == (1, 1, 1, 1)
    assert w.combinations() == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_volume_vector_triangles():
    assert volume_vector(((0, 0), (9, 0), (0, 10)), 2).entries == (90,)
    assert volume_vector(((0, 0), (0, 1), (1, 0)), 2).entries == (-1,)


def test_volume_vector_length():
    pts = ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2))
    assert len(volume_vector(pts, 2)) == 10  # C(5, 3)


def test_volume_vector_rejects_flat():
    with pytest.raises(DegenerateInput):
        volume_vector(((0, 0), (1, 1), (2, 2)), 2)
    with pytest.raises(DegenerateInput):
        volume_vector(((0, 0), (1, 0)), 2)


def test_volume_vector_swap_negates_shared_entries():
    pts = [(0, 0), (1, 0), (0, 1), (1, 2)]
    w = volume_vector(pts, 2).entries
    swapped = volume_vector([pts[0], pts[1], pts[3], pts[2]], 2).entries
    # combos (0,1,2) and (0,1,3) trade places, (0,2,3) and (1,2,3) flip sign
    assert swapped == (w[1], w[0], -w[2], -w[3])


def test_primitive_decomposition_examples():
    assert primitive_decomposition((90,)) == \
        primitive_decomposition(volume_vector(((0, 0), (9, 0), (0, 10)), 2))
    k, w = primitive_decomposition((90,)).content, \
        primitive_decomposition((90,)).direction
    assert (k, w) == (90, (1,))
    two = primitive_decomposition((2, 2, 2, 2))
    assert (two.content, two.direction) == (2, (1, 1, 1, 1))
    neg = primitive_decomposition((-3, 3))
    assert (neg.content, neg.direction) == (-3, (1, -1))


def test_primitive_decomposition_reproduces():
    rng = seeded(11)
    for _ in range(200):
        entries = tuple(rng.randint(-9, 9) for _ in range(6))
        if not any(entries):
            continue
        prim = primitive_decomposition(entries)
        assert tuple(prim.content * x for x in prim.direction) == entries
        assert next(x for x in prim.direction if x) > 0


def test_primitive_decomposition_zero():
    with pytest.raises(ZeroVector):
        primitive_decomposition((0, 0, 0))


@pytest.mark.parametrize("entries", [
    [0.5, 1], [Fraction(2), 4], ["a"], [True, 2], [2, Decimal(4)], (3, 1.0),
], ids=["float", "fraction", "str", "bool", "decimal", "later-float"])
def test_primitive_decomposition_refuses_entries_that_are_not_plain_ints(
        entries):
    # A raw sequence is checked as point coordinates are.
    with pytest.raises(DegenerateInput, match="plain integers"):
        primitive_decomposition(entries)


@pytest.mark.parametrize("w", [5, None], ids=["int", "none"])
def test_primitive_decomposition_refuses_what_is_not_a_sequence(w):
    # The shape is checked before the entries are read.
    with pytest.raises(DegenerateInput, match="is not a sequence"):
        primitive_decomposition(w)


def test_primitive_hyperplane_examples():
    h = primitive_hyperplane([(0, 0), (2, 0)])
    assert (h.normal, h.offset) == ((0, 1), 0)
    h = primitive_hyperplane([(2, 0), (0, 2)])
    assert (h.normal, h.offset) == ((1, 1), -2)
    with pytest.raises(DegenerateInput):
        primitive_hyperplane([(1, 1), (1, 1)])


def test_primitive_hyperplane_3d():
    h = primitive_hyperplane([(0, 0, 2), (1, 0, 2), (0, 1, 2)])
    assert (h.normal, h.offset) == ((0, 0, 1), -2)


def test_heights_triangle_blocks():
    blocks = lattice_height_vector(((0, 0), (2, 0), (0, 2)), 2).blocks
    assert blocks == ((-2,), (2,), (2,))
    blocks = lattice_height_vector(((0, 0), (1, 0), (0, 1)), 2).blocks
    assert blocks == ((-1,), (1,), (1,))


def test_heights_square_signature():
    heights = lattice_height_vector(SQUARE, 2)
    values, undefined = heights.abs_signature()
    assert values == (1,) * 12
    assert undefined == 0


def test_heights_undefined_entries():
    # (0,0),(1,1),(2,2) are pairwise collinear with each other only in
    # full triples; duplicate-direction pairs stay fine, so force a
    # degenerate defining pair via repeated coordinates in dim 3
    pts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0))
    heights = lattice_height_vector(pts, 3)
    _, undefined = heights.abs_signature()
    assert undefined > 0


def test_heights_relabeling_invariance():
    rng = seeded(23)
    pts = [(0, 0), (3, 1), (1, 4), (-2, 2), (0, -3)]
    base = lattice_height_vector(pts, 2).abs_signature()
    for _ in range(20):
        order = pts[:]
        rng.shuffle(order)
        assert lattice_height_vector(order, 2).abs_signature() == base


def test_unimodular_invariance_of_entries():
    rng = seeded(5)
    pts = [(0, 0), (2, 1), (1, 3), (-1, 2)]
    w = volume_vector(pts, 2).entries
    for _ in range(50):
        m = random_unimodular(rng)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        shift = (rng.randint(-5, 5), rng.randint(-5, 5))
        image = apply_int_map(pts, m, shift)
        got = volume_vector(image, 2).entries
        assert got == tuple(det * x for x in w)


@given(st.integers(min_value=1, max_value=6))
def test_scaling_multiplies_entries(k):
    pts = [(0, 0), (1, 0), (0, 1), (2, 3)]
    w = volume_vector(pts, 2).entries
    scaled = volume_vector([(k * x, k * y) for x, y in pts], 2).entries
    assert scaled == tuple(k * k * x for x in w)
    assert primitive_decomposition(scaled).direction == \
        primitive_decomposition(w).direction


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        volume_vector(((0, 0), (1, 0), (0, 1, 5)), 2)
    with pytest.raises(DimensionMismatch):
        primitive_hyperplane([(0, 0, 0), (1, 0, 0)])


def test_zero_dimensional_points_rejected():
    for invariant in (volume_vector, lattice_height_vector):
        with pytest.raises(DegenerateInput):
            invariant([()])
        with pytest.raises(DegenerateInput):
            invariant([()], 0)


def test_non_integer_coordinates_rejected():
    # Exact integer elimination would silently truncate these.
    cases = (
        [(0, 0, 0), (3, 1, 1), (1, Fraction(5, 2), 1), (1, 1, Fraction(7, 3))],
        [(0, 0, 0), (Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 0), (True, 0), (0, 1)],
    )
    for pts in cases:
        for invariant in (volume_vector, lattice_height_vector,
                          simplex_determinant):
            with pytest.raises(DegenerateInput):
                invariant(pts)


def test_non_sequence_points_rejected():
    for call in (lambda: volume_vector([1, 2, 3]),
                 lambda: lattice_height_vector([1, 2, 3], 2),
                 lambda: primitive_hyperplane([1, 2])):
        with pytest.raises(DegenerateInput,
                           match="are not a sequence of coordinate sequences"):
            call()


def reference_volume_entries(pts, d):
    """One public simplex_determinant per (d+1)-subset."""
    return tuple(simplex_determinant(c) for c in combinations(pts, d + 1))


def reference_height_blocks(pts, d):
    """One public primitive_hyperplane per d-subset of the other points,
    None where the subset spans no hyperplane."""
    blocks = []
    for i, p in enumerate(pts):
        block = []
        for sub in combinations(pts[:i] + pts[i + 1:], d):
            try:
                block.append(primitive_hyperplane(sub).height(p))
            except DegenerateInput:
                block.append(None)
        blocks.append(tuple(block))
    return tuple(blocks)


def random_points_3d(rng):
    """Distinct 3d points, some sets with a collinear triple."""
    pts = []
    size = rng.randint(4, 6)
    while len(pts) < size:
        p = tuple(rng.randint(-3, 3) for _ in range(3))
        if p not in pts:
            pts.append(p)
    if rng.random() < 0.5:
        a, b = pts[0], pts[1]
        k = rng.choice((-1, 2, 3))
        far = tuple(x + k * (y - x) for x, y in zip(a, b))
        if far not in pts:
            pts.insert(rng.randrange(len(pts) + 1), far)
    return pts


def random_points_2d(rng):
    """2d point sets the polygon generator never yields, in random order
    with negative coordinates: some with a collinear triple, some with a
    repeated point, some all on one line."""
    kind = rng.choice(("collinear", "repeated", "line"))
    if kind == "line":
        a = (rng.randint(-4, 4), rng.randint(-4, 4))
        step = (rng.randint(-2, 2), rng.randint(-2, 2))
        return [(a[0] + k * step[0], a[1] + k * step[1])
                for k in rng.sample(range(-3, 4), rng.randint(3, 5))]
    pts = [(rng.randint(-4, 4), rng.randint(-4, 4))
           for _ in range(rng.randint(3, 6))]
    if kind == "collinear":
        a, b = pts[0], pts[1]
        k = rng.choice((-1, 2, 3))
        pts.append((a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1])))
    else:
        pts.append(rng.choice(pts))
    rng.shuffle(pts)
    return pts


def differential_inputs():
    rng = seeded(41)
    polygons = [(list(random_polygon(rng).vertices), 2) for _ in range(60)]
    plane_sets = [(random_points_2d(rng), 2) for _ in range(90)]
    point_sets = [(random_points_3d(rng), 3) for _ in range(120)]
    return polygons + plane_sets + point_sets


def test_invariants_match_per_subset_public_calls():
    undefined = 0
    flat = Counter()
    for pts, d in differential_inputs():
        entries = reference_volume_entries(pts, d)
        if any(entries):
            assert volume_vector(pts, d).entries == entries
        else:
            flat[d] += 1
            with pytest.raises(DegenerateInput):
                volume_vector(pts, d)
        if len(set(pts)) < len(pts):
            with pytest.raises(DegenerateInput, match="distinct"):
                lattice_height_vector(pts, d)
            continue
        blocks = reference_height_blocks(pts, d)
        assert lattice_height_vector(pts, d).blocks == blocks
        undefined += sum(h is None for block in blocks for h in block)
    assert undefined > 0
    assert flat[2] > 10


def test_volume_vector_matches_per_subset_calls_in_4d():
    rng = seeded(47)
    full = 0
    for _ in range(40):
        pts = list({tuple(rng.randint(-3, 3) for _ in range(4))
                    for _ in range(rng.randint(5, 7))})
        entries = reference_volume_entries(pts, 4)
        if any(entries):
            assert volume_vector(pts, 4).entries == entries
            full += 1
        else:
            with pytest.raises(DegenerateInput):
                volume_vector(pts, 4)
    assert full > 30


def test_sublattice_index_is_volume_vector_content():
    # Both are the gcd of the maximal minors of the vertex differences.
    rng = seeded(43)
    polys = [random_polygon(rng) for _ in range(60)]
    while len(polys) < 120:
        pts = random_points_3d(rng)
        try:
            polys.append(LatticePolytope(3, tuple(pts)))
        except DegenerateInput:
            continue
    for p in polys:
        content = primitive_decomposition(
            volume_vector(p.vertices, p.dim)).content
        assert sublattice_info(p).index == abs(content)


def test_volume_vector_content_is_hnf_index_on_3d_point_sets():
    # The proof that |content| equals the index uses neither the
    # dimension nor convexity: raw full-rank point sets, collinear
    # triples included, against the product of the HNF pivots.
    rng = seeded(44)
    full = 0
    for _ in range(300):
        pts = random_points_3d(rng)
        result = hnf([tuple(a - b for a, b in zip(q, pts[0]))
                      for q in pts[1:]])
        if result.rank < 3:
            continue
        full += 1
        content = primitive_decomposition(volume_vector(pts, 3)).content
        assert abs(content) == prod(result.h[i][col] for i, col
                                    in enumerate(result.pivot_columns)), pts
    assert full > 250


def reference_facets(points, d):
    """The facets of the points' hull from `simplex_determinant` alone:
    for each d-subset S in order, the signs of det(S, l) over the other
    points l, with l last.  S spans a facet when they hold one sign and
    not both; the facet, the sorted indices of S and of each l with
    det(S, l) zero, is kept where it is first found."""
    out = []
    for sub in combinations(range(len(points)), d):
        dets = {l: simplex_determinant([points[i] for i in sub] + [point])
                for l, point in enumerate(points) if l not in sub}
        values = set(dets.values())
        if values == {0} or max(values) > 0 > min(values):
            continue
        on = tuple(sorted(sub + tuple(l for l in dets if not dets[l])))
        if on not in out:
            out.append(on)
    return tuple(out)


def test_facets_match_the_simplex_determinant_reference_in_3d_and_4d():
    # The facets read from the volume vector's signs are the reference's,
    # point sets and order, on the named shapes (the side-2 cube with its
    # centre and an edge midpoint among them), on seeded 3d sets of up to
    # 12 points and 4d sets of up to 8, drawn from small grids so that
    # collinear and coplanar points occur, and on a seeded unimodular
    # image of each.
    facets = import_module("lattice_equiv.invariants").facets
    rng = seeded(311)
    cube_4d = tuple(product((0, 1), repeat=4))
    cross_4d = tuple(tuple(s * (i == j) for j in range(4))
                     for i in range(4) for s in (1, -1))
    sets = [(shape, 3) for shape in (
        CUBE, FRUSTUM, OCTAHEDRON, PRISM, SIMPLEX,
        tuple(product((0, 2), repeat=3)) + ((1, 1, 1), (1, 0, 0)))]
    sets += [(cube_4d, 4), (cross_4d, 4)]
    for d, span, most in ((3, 2, 12), (4, 1, 8)):
        grid = list(product(range(-span, span + 1), repeat=d))
        full = []
        while len(full) < 40:
            points = tuple(rng.sample(grid, rng.randint(d + 1, most)))
            try:
                volume_vector(points)
            except DegenerateInput:
                continue
            full.append((points, d))
        sets += full
    larger = Counter()
    for points, d in sets:
        image = tuple(apply_int_map(
            points, random_unimodular_nd(rng, d),
            tuple(rng.randint(-3, 3) for _ in range(d))))
        expect = reference_facets(points, d)
        for raw in (points, image):
            got = facets(volume_vector(raw).entries, len(raw), d)
            assert got == reference_facets(raw, d) == expect, raw
        larger[d] += any(len(on) > d for on in expect)
    assert larger == {3: 28, 4: 24}
