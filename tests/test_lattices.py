"""Hermite normal form, sublattice index, and the minimal-volume shrink."""

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from importlib import import_module
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import (
    CUBE, FRUSTUM, OCTAHEDRON, PRISM, SMALL_REGIONS, apply_int_map, poly,
    random_polygon, random_unimodular, random_unimodular_3d, reference_hnf,
    reference_sublattice, seeded)
from lattice_equiv import (
    DegenerateInput,
    LatticePolytope,
    Region,
    affine_key,
    attains_minimal_volume,
    build_volume_representatives,
    census,
    dilate,
    hnf,
    normalized_volume,
    shrink_to_minimal_volume,
    sublattice_info,
)
from lattice_equiv.equivalence import decide

UNIT = poly((0, 0), (1, 0), (0, 1))
SQUARE = poly((0, 0), (1, 0), (1, 1), (0, 1))


def test_hnf_examples():
    assert hnf([[2, 0], [0, 2]]).h == ((2, 0), (0, 2))
    assert hnf([[1, 2], [3, 4]]).h == ((1, 0), (0, 2))
    r = hnf([[1, 1], [1, 1]])
    assert r.h == ((1, 1), (0, 0))
    assert r.rank == 1


def test_hnf_transform_is_exact():
    m = [[1, 2], [3, 4]]
    r = hnf(m)
    u = r.u
    assert u[0][0] * u[1][1] - u[0][1] * u[1][0] in (-1, 1)
    for i in range(2):
        for j in range(2):
            assert sum(u[i][k] * m[k][j] for k in range(2)) == r.h[i][j]


entry = st.integers(min_value=-9, max_value=9)


@given(st.lists(st.tuples(entry, entry, entry), min_size=1, max_size=4))
def test_hnf_shape_properties(rows):
    r = hnf([list(row) for row in rows])
    # pivots positive, entries above each pivot reduced into [0, pivot)
    for i, col in enumerate(r.pivot_columns):
        pivot = r.h[i][col]
        assert pivot > 0
        for k in range(i):
            assert 0 <= r.h[k][col] < pivot
        assert all(r.h[i][c] == 0 for c in range(col))
    for i in range(r.rank, len(rows)):
        assert not any(r.h[i])
    # U is unimodular and U * M = H
    for i in range(len(rows)):
        for j in range(3):
            got = sum(r.u[i][k] * rows[k][j] for k in range(len(rows)))
            assert got == r.h[i][j]


@pytest.mark.parametrize("rows, message", [
    ([], "empty matrix"),
    ([[0.5], [1, 2]], "ragged matrix"),
    ([[0.5, 1], [1, 0]], "plain integers, got 0.5"),
    ([[Fraction(1, 2), 1], [1, 0]], "plain integers, got Fraction"),
    ([[True, 1], [1, 0]], "plain integers, got True"),
    ([["1", 2]], "plain integers, got '1'"),
    ([[Decimal(1), 2]], "plain integers, got Decimal"),
    ([[1, 0], [0, 2.0]], "plain integers, got 2.0"),
], ids=["empty", "ragged-first", "float", "fraction", "bool", "str",
        "decimal", "later-float"])
def test_hnf_refuses_entries_that_are_not_plain_ints(rows, message):
    # The shape checks come first; then every entry must pass the rule
    # that point coordinates do, or the "HNF" is not over the integers.
    with pytest.raises(DegenerateInput, match=message):
        hnf(rows)


@pytest.mark.parametrize("rows", [5, [1, 2], [[1, 2], 3]],
                         ids=["int", "flat", "later-int"])
def test_hnf_refuses_what_is_not_a_sequence_of_rows(rows):
    # The shape is checked before it is read, as _int_points checks points.
    with pytest.raises(DegenerateInput, match="not a sequence of rows"):
        hnf(rows)


def reference_matrices(rng, count):
    """Seeded int matrices up to 6 x 5, entries in [-6, 6], tall, square
    and wide; a quarter each get a zero row, a zero column or, with at
    least three rows, a row that combines two others."""
    yield [[0] * 5 for _ in range(6)]
    yield [[0]]
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        kind = rng.randrange(4)
        if kind == 1:
            rows[rng.randrange(m)] = [0] * n
        elif kind == 2:
            col = rng.randrange(n)
            for row in rows:
                row[col] = 0
        elif kind == 3 and m >= 3:
            a, b, c = rng.sample(range(m), 3)
            j, k = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[c] = [j * x + k * y for x, y in zip(rows[a], rows[b])]
        yield rows


def test_hnf_equals_the_two_list_reference():
    # One elimination with U read off an appended identity block runs the
    # row operations of the two-list form in the same order, so h, u,
    # rank and pivots are equal, ints included.
    seen = Counter()
    for rows in reference_matrices(seeded(41), 3000):
        got = hnf(rows)
        expected = reference_hnf(rows)
        assert got == expected and repr(got) == repr(expected), rows
        m, n = len(rows), len(rows[0])
        seen["tall" if m > n else "wide" if m < n else "square"] += 1
        seen["deficient"] += got.rank < min(m, n)
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += any(not any(col) for col in zip(*rows))
        seen["negative"] += any(x < 0 for row in rows for x in row)
    assert len(seen) == 7 and min(seen.values()) >= 300, seen


def sublattice_cases():
    """The census forms of every small region and the forms grown to
    volume 12; the 3d cube, frustum, octahedron, prism and seeded
    simplices, each stretched along x by k = 1, 2, 3, as given and under
    a seeded unimodular map."""
    module = import_module("lattice_equiv.census")
    for region, _, _ in SMALL_REGIONS:
        yield from module._form_counts(region, None, 1)
    for level in module._growth_levels(12):
        yield from (LatticePolytope(2, cycle) for cycle in level)
    rng = seeded(43)
    shapes = [CUBE, FRUSTUM, OCTAHEDRON, PRISM]
    while len(shapes) < 14:
        simplex = [tuple(rng.randint(-3, 3) for _ in range(3))
                   for _ in range(4)]
        if reference_hnf([[a - b for a, b in zip(v, simplex[0])]
                          for v in simplex[1:]]).rank == 3:
            shapes.append(tuple(simplex))
    for shape in shapes:
        for k in (1, 2, 3):
            stretched = [(k * x, y, z) for x, y, z in shape]
            shift = tuple(rng.randint(-5, 5) for _ in range(3))
            yield LatticePolytope(3, tuple(stretched))
            yield LatticePolytope(3, tuple(apply_int_map(
                stretched, random_unimodular_3d(rng), shift)))


def test_sublattice_info_equals_the_two_list_reference():
    seen = Counter()
    for p in sublattice_cases():
        info = sublattice_info(p)
        expected = reference_sublattice(p)
        assert info == expected and repr(info) == repr(expected), p
        seen[p.dim, info.index > 1] += 1
    assert seen == {(2, False): 363, (2, True): 199,
                    (3, False): 6, (3, True): 78}, seen


def reference_shrink(p):
    """`_shrink` read off the two-list Hermite form: the image
    (v - origin) @ adj(B) // index of every vertex, origin the lex-least
    vertex, with the general 2x2 adjugate."""
    info = reference_sublattice(p)
    (a, b), (c, d) = info.basis
    adj = ((d, -b), (-c, a))
    ox, oy = origin = min(p.vertices)
    image = tuple(
        tuple(((x - ox) * adj[0][j] + (y - oy) * adj[1][j]) // info.index
              for j in range(2))
        for x, y in p.vertices)
    return image, adj, info.index, origin


def test_closed_form_shrink_equals_the_two_list_reference():
    # Seeded polygons with negative coordinates, stretched by up to 6 along
    # each axis between seeded unimodular maps: the closed-form basis and
    # image are the reference's, whether or not the index is passed in,
    # and the basis is, from every vertex of the cycle as anchor.
    lattices = import_module("lattice_equiv.lattices")
    rng = seeded(53)
    seen = Counter()
    for _ in range(1500):
        stretch = ((rng.randint(1, 6), 0), (0, rng.randint(1, 6)))
        maps = (random_unimodular(rng), stretch, random_unimodular(rng))
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        points = random_polygon(rng).vertices
        for matrix in maps:
            points = apply_int_map(points, matrix, (0, 0))
        p = LatticePolytope(2, tuple((x + dx, y + dy) for x, y in points))
        info = sublattice_info(p)
        expected = reference_sublattice(p)
        assert info == expected and repr(info) == repr(expected), p
        (a, _), (_, c) = info.basis
        # Stored order puts a vertex right of the first one second, so
        # the Bezout chain meets dx = 0 first only from another anchor.
        # Anchor 0 is the basis `_shrink` takes.
        for k in range(len(p.vertices)):
            cycle = p.vertices[k:] + p.vertices[:k]
            index = lattices._form_index(cycle)
            assert index == info.index
            assert lattices._basis_2d(cycle, index) == reference_hnf(
                [(x - cycle[0][0], y - cycle[0][1])
                 for x, y in cycle[1:]]).h[:2] == info.basis, cycle
            seen["first dx = 0"] += cycle[1][0] == cycle[0][0]
        least = lattices._least_image(p)
        if info.index == 1:
            assert least == p.vertices
            seen["index 1"] += 1
            continue
        shrink = reference_shrink(p)
        assert lattices._shrink(p) == shrink and repr(
            lattices._shrink(p, info.index)) == repr(shrink), p
        assert least == shrink[0]
        seen["index > 1"] += 1
        seen["index >= 36"] += info.index >= 36
        seen["negative"] += any(x < 0 for v in p.vertices for x in v)
        seen["c = 1"] += c == 1
        seen["a = 1"] += a == 1
    assert seen == {"index 1": 22, "index > 1": 1478, "index >= 36": 559,
                    "negative": 1444, "first dx = 0": 55, "c = 1": 65,
                    "a = 1": 456}, seen


def run_polygon_paths(rng):
    """Reach the difference lattice of index > 1 polygons through
    `sublattice_info`, the shrink, `affine_key`, the `affine` and
    `det_one` deciders, the census and the volume representatives."""
    forms = [poly((0, 0), (2, 0), (0, 2)), dilate(SQUARE, 3),
             poly((4, 7), (6, 7), (4, 9)), poly((0, 0), (6, 0), (0, 15)),
             poly((0, 0), (1, 3), (-1, 6), (-2, 3))]
    for p in forms:
        assert sublattice_info(p) == reference_sublattice(p)
        assert not attains_minimal_volume(p)
        image, _ = shrink_to_minimal_volume(p)
        assert affine_key(p) == affine_key(image)
        q = LatticePolytope(2, tuple(apply_int_map(
            p.vertices, random_unimodular(rng), (3, -2))))
        for mode in ("affine", "det_one"):
            assert decide(p, q, mode) or mode == "det_one"
            assert decide(p, image, mode) or mode == "det_one"
    assert census(Region.box(3)).a == 109
    assert len(build_volume_representatives(8)) == 17


def test_no_polygon_path_builds_the_unimodular_factor(monkeypatch):
    # Only hnf builds U; no polygon path reaches it.
    def refuse(rows):
        raise AssertionError("a polygon path built the unimodular factor")

    monkeypatch.setattr(import_module("lattice_equiv.lattices"), "hnf",
                        refuse)
    run_polygon_paths(seeded(47))


def test_no_polygon_path_runs_the_elimination(monkeypatch):
    # A polygon's basis and image follow from its index in closed form, so
    # no polygon path reaches _echelon, under either name its callers look
    # it up by (lattices, and linalg for the span check of dim >= 3); the
    # difference lattice of a 3d polytope does.
    def refuse(h, n):
        raise AssertionError("a path ran the elimination")

    cube = LatticePolytope(3, CUBE)
    for name in ("lattices", "linalg"):
        monkeypatch.setattr(import_module(f"lattice_equiv.{name}"),
                            "_echelon", refuse)
    run_polygon_paths(seeded(59))
    with pytest.raises(AssertionError, match="ran the elimination"):
        sublattice_info(cube)


def test_sublattice_index_examples():
    assert sublattice_info(poly((0, 0), (2, 0), (0, 2))).index == 4
    assert sublattice_info(UNIT).index == 1
    assert sublattice_info(SQUARE).index == 1
    assert sublattice_info(poly((0, 0), (9, 0), (0, 10))).index == 90


def test_sublattice_basis_determinant():
    info = sublattice_info(poly((0, 0), (2, 0), (0, 2)))
    b = info.basis
    assert abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) == info.index


def test_sublattice_from_lattice_points():
    # the vertices alone generate an index-4 lattice, although the
    # triangle's boundary lattice points generate all of Z^2
    wide = poly((0, 0), (2, 0), (0, 2))
    assert sublattice_info(wide).index == 4


def test_attains_minimal_volume():
    assert attains_minimal_volume(UNIT)
    assert not attains_minimal_volume(poly((0, 0), (2, 0), (0, 2)))
    # index is 90 here, so the class minimum (the unit triangle) is missed
    assert not attains_minimal_volume(poly((0, 0), (9, 0), (0, 10)))


def test_shrink_examples():
    img, m = shrink_to_minimal_volume(poly((0, 0), (2, 0), (0, 2)))
    assert img == UNIT
    assert m.determinant == Fraction(1, 4)

    img, m = shrink_to_minimal_volume(UNIT)
    assert img == UNIT
    assert m.matrix == ((1, 0), (0, 1))
    assert m.translation == (0, 0)

    big = dilate(SQUARE, 3)
    img, m = shrink_to_minimal_volume(big)
    assert normalized_volume(img) == 2
    assert sublattice_info(big).index == 9
    assert m.determinant == Fraction(1, 9)


def test_shrink_moves_vertices():
    p = poly((4, 7), (6, 7), (4, 9))
    img, m = shrink_to_minimal_volume(p)
    assert tuple(sorted(m.apply(v) for v in p.vertices)) == \
        tuple(sorted(img.vertices))
    assert attains_minimal_volume(img)


def test_shrink_idempotent_and_bookkeeping():
    rng = seeded(31)
    for _ in range(150):
        p = random_polygon(rng)
        info = sublattice_info(p)
        img, m = shrink_to_minimal_volume(p)
        assert normalized_volume(p) == info.index * normalized_volume(img)
        assert m.determinant == Fraction(1, info.index)
        assert attains_minimal_volume(img)
        again, m2 = shrink_to_minimal_volume(img)
        assert again == img
        assert m2.matrix == ((1, 0), (0, 1)) and m2.translation == (0, 0)


SIMPLEX_3D = LatticePolytope(3, ((1, -1, 0), (3, -1, 0), (2, 0, 0),
                                 (2, -1, 3)))
PRISM_3D = LatticePolytope(3, SIMPLEX_3D.vertices[:3] + tuple(
    (x + 1, y, z + 3) for x, y, z in SIMPLEX_3D.vertices[:3]))


@pytest.mark.parametrize("p, basis", [
    (dilate(LatticePolytope(3, tuple(product((0, 1), repeat=3))), 2),
     ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
    (SIMPLEX_3D, ((1, 0, 3), (0, 1, 3), (0, 0, 6))),
    (PRISM_3D, ((1, 0, 3), (0, 1, 3), (0, 0, 6))),
], ids=["dilated-cube", "simplex", "prism"])
def test_shrink_in_three_dimensions(p, basis):
    # The integer image is the map's image, the volume drops by exactly the
    # index, and the image is its own shrink under the identity map; two of
    # the difference-lattice bases are not diagonal.
    info = sublattice_info(p)
    assert info.basis == basis
    img, move = shrink_to_minimal_volume(p)
    assert img == move.apply_polytope(p)
    assert move.determinant == Fraction(1, info.index)
    assert normalized_volume(p) == info.index * normalized_volume(img)
    assert attains_minimal_volume(img)
    again, m2 = shrink_to_minimal_volume(img)
    assert again == img
    assert m2.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert m2.translation == (0, 0, 0)


def test_unimodular_differences_give_index_one():
    rng = seeded(37)
    checked = 0
    for _ in range(300):
        p = random_polygon(rng)
        v = p.vertices
        diffs = [tuple(a - b for a, b in zip(w, u)) for i, u in enumerate(v)
                 for w in v[i + 1:]]
        has_unimodular_pair = any(
            abs(a[0] * b[1] - a[1] * b[0]) == 1
            for i, a in enumerate(diffs) for b in diffs[i + 1:])
        if has_unimodular_pair:
            checked += 1
            assert sublattice_info(p).index == 1
    assert checked > 50


def test_degenerate_inputs_cannot_be_built():
    # full-dimensionality is enforced by the polytope type itself, so the
    # index computation never sees a rank-deficient difference set
    from lattice_equiv import DegenerateInput
    with pytest.raises(DegenerateInput):
        LatticePolytope(2, ((0, 0), (1, 1), (2, 2)))
