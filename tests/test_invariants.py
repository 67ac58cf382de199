"""Volume vectors, primitive decomposition, hyperplanes, lattice heights."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import apply_int_map, random_polygon, random_unimodular, seeded
from lattice_equiv import (
    DegenerateInput,
    DimensionMismatch,
    LatticePolytope,
    ZeroVector,
    lattice_height_vector,
    primitive_decomposition,
    primitive_hyperplane,
    simplex_determinant,
    sublattice_info,
    volume_vector,
)
from lattice_equiv.invariants import VolumeVector, height_signature

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


def differential_inputs():
    rng = seeded(41)
    polygons = [(list(random_polygon(rng).vertices), 2) for _ in range(60)]
    point_sets = [(random_points_3d(rng), 3) for _ in range(120)]
    return polygons + point_sets


def test_invariants_match_per_subset_public_calls():
    undefined = 0
    for pts, d in differential_inputs():
        entries = reference_volume_entries(pts, d)
        if any(entries):
            assert volume_vector(pts, d).entries == entries
        else:
            with pytest.raises(DegenerateInput):
                volume_vector(pts, d)
        blocks = reference_height_blocks(pts, d)
        heights = lattice_height_vector(pts, d)
        assert heights.blocks == blocks
        w = VolumeVector(len(pts), d, entries)
        assert height_signature(pts, w) == heights.abs_signature()
        undefined += sum(h is None for block in blocks for h in block)
    assert undefined > 0


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
