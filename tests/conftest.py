"""Shared helpers: small builders, an independent brute-force polygon
enumerator, the volume-budgeted box search and the per-point growth step
that the by-volume growth is checked against, the frozen triple-loop
facets and projection volume, the Caratheodory vertex test and the
bounding-box filter that the 3d half-spaces, the volume, the hull's
vertices and the polytope listing are checked against,
the deciders' per-attempt search that their witnesses are checked
against, the two-list Hermite form that `hnf` and (as
`reference_sublattice`) `sublattice_info` and the polygon index are
checked against, the small regions and 3d shapes several modules test
on, the Leibniz determinant that `int_det` and a map's determinant are
checked against, and random map generators used across the suite."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod
from pathlib import Path

import lattice_equiv
from lattice_equiv import (
    DegenerateInput, HnfResult, LatticePolytope, RationalAffineMap, Region,
    SublatticeInfo, lattice_points, linalg, oracle_equivalent)
from lattice_equiv.equivalence import (
    EquivalenceWitness, NotEquivalent, _canonical_cycle, _candidate_images,
    _profile)
from lattice_equiv.geometry import _hull_cycle


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

CUBE = tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1))
FRUSTUM = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0),
           (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))
OCTAHEDRON = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
              (0, 0, 1), (0, 0, -1))
PRISM = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1))
SIMPLEX = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def poly(*verts):
    return LatticePolytope(2, tuple(verts))


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def strict_hull(points):
    """Monotone-chain hull keeping only strict vertices.  Deliberately a
    second implementation, kept independent of the package's internals so
    it can serve as an enumeration oracle."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return None
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    cycle = lower[:-1] + upper[:-1]
    return cycle if len(cycle) >= 3 else None


def brute_polygon_sets(points):
    """Every vertex set of a convex polygon on the given points, found by
    checking all subsets for strict convex position.  Exponential, for
    tiny regions only."""
    pts = sorted(set(points))
    found = set()
    for size in range(3, len(pts) + 1):
        for subset in combinations(pts, size):
            hull = strict_hull(subset)
            if hull is not None and len(hull) == size:
                found.add(frozenset(subset))
    return found


def budgeted_root_polygons(points, root_index, max_vertices, max_volume):
    """The strictly convex polygons of normalized volume exactly
    max_volume, with at most max_vertices vertices (None: any number),
    whose lex-least vertex is root = points[root_index], as cycles in
    LatticePolytope's stored order.  `points` is sorted.

    Every later point lies in the half plane lex-greater than the root,
    so fan(p, q) = cross(root, p, q) > 0 says q comes after p
    counterclockwise; a chain whose fans are all positive and which turns
    left at every vertex is convex.  A chain tip tries its children least
    fan first, so the scan stops at the first one over budget."""
    root = points[root_index]
    later = points[root_index + 1:]
    after = [sorted((cross(root, p, q), j) for j, q in enumerate(later)
                    if 0 < cross(root, p, q) <= max_volume) for p in later]
    out = []
    chain = [root]

    def extend(last, volume):
        for fan, j in after[last]:
            if volume + fan > max_volume:
                break
            q = later[j]
            if cross(chain[-2], chain[-1], q) <= 0:
                continue
            chain.append(q)
            if volume + fan == max_volume:
                if cross(chain[-2], q, root) > 0 and cross(q, root, chain[1]) > 0:
                    out.append(tuple(chain))
            elif max_vertices is None or len(chain) < max_vertices:
                extend(j, volume + fan)
            chain.pop()

    for i, p in enumerate(later):
        chain.append(p)
        extend(i, 0)
        chain.pop()
    return out


def volume_forms(side, volume):
    """Canonical cycles of the polygons with vertices in [0, side]^2 and
    normalized volume exactly `volume`.  A form does not depend on
    translation, so only the points with x == 0 are roots (a polygon with
    lex-least vertex (x0, y0) has a translate by (-x0, 0) in the box,
    rooted at (0, y0)), and each cycle is moved to start at the origin,
    which keeps it in stored order, and canonicalized once."""
    pts = lattice_points(Region.box(side))
    translates = {tuple((x - x0, y - y0) for x, y in cycle)
                  for i, (x0, y0) in enumerate(pts) if x0 == 0
                  for cycle in budgeted_root_polygons(pts, i, None, volume)}
    return {_canonical_cycle(cycle) for cycle in translates}


def reference_one_point_growths(cycle, volume, points, max_volume):
    """census._one_point_growths as it was before its row intervals: the
    same yields, in the same order, from every lattice point u of a box
    bounded through the triangle (0, 0), (g, 0), (a, b) of Q's first,
    second and last vertices.  Each u is tested on its own: its added
    volume against the budget, then Pick's theorem for the one new
    lattice point."""
    n = len(cycle)
    shifted = cycle[1:] + cycle[:1]
    lengths = [gcd(qx - px, qy - py)
               for (px, py), (qx, qy) in zip(cycle, shifted)]
    boundary = sum(lengths)
    (g, _), (a, b) = cycle[1], cycle[-1]
    for y in range(-(max_volume // g), max_volume // g + 1):
        lo = y * a + max(-max_volume, g * (b - y) - max_volume)
        hi = y * a + min(max_volume, g * (b - y) + max_volume)
        for x in range(-(-lo // b), hi // b + 1):
            crosses = [(qx - px) * (y - py) - (qy - py) * (x - px)
                       for (px, py), (qx, qy) in zip(cycle, shifted)]
            added = -sum(c for c in crosses if c < 0)
            if not added or volume + added > max_volume:
                continue  # u lies in Q, or P is over budget
            s = next(i for i in range(n) if crosses[i] < 0 <= crosses[i - 1])
            e = s
            while crosses[(e + 1) % n] < 0:
                e += 1
            (sx, sy), (ex, ey) = cycle[s], cycle[(e + 1) % n]
            new_boundary = (
                boundary + gcd(x - sx, y - sy) + gcd(x - ex, y - ey)
                - sum(lengths[i % n] for i in range(s, e + 1)))
            if volume + added + new_boundary != 2 * points:
                continue  # P gains another lattice point besides u
            kept = [cycle[(e + 1 + k) % n] for k in range(n - (e - s))]
            if crosses[s - 1] == 0:
                kept.pop()
            if crosses[(e + 1) % n] == 0:
                kept.pop(0)
            kept.append((x, y))
            yield tuple(kept), volume + added


def reference_facet_inequalities(verts):
    """geometry._facet_inequalities_3d as it was before the facets were
    read from the volume vector's signs, frozen, on a list of 3d points
    (a polytope's vertices, or any points): every triple that spans a
    plane with all the points on one side gives that plane's (normal,
    offset), normal . x + offset <= 0 over their hull, once."""
    seen = set()
    out = []
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                normal = linalg.primitive_normal(
                    (linalg.vec_sub(verts[j], verts[i]),
                     linalg.vec_sub(verts[k], verts[i])))
                if normal is None:
                    continue
                offset = -linalg.vec_dot(normal, verts[i])
                vals = [linalg.vec_dot(normal, v) + offset for v in verts]
                if all(x <= 0 for x in vals):
                    key = (normal, offset)
                elif all(x >= 0 for x in vals):
                    key = (tuple(-c for c in normal), -offset)
                else:
                    continue
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return out


def reference_volume_3d(verts, facets=None):
    """geometry._volume_3d as it was, frozen, on a list of 3d points:
    pyramids from the first point over a fan of each facet of
    reference_facet_inequalities, whose vertex cycle is the hull of the
    facet's points projected along the normal's largest axis.  Points
    that do not span space have volume 0.  `facets`, when given, is
    reference_facet_inequalities(verts), taken by a caller that needs it
    too."""
    if facets is None:
        facets = reference_facet_inequalities(verts)
    apex = verts[0]
    total = 0
    for normal, offset in facets:
        if linalg.vec_dot(normal, apex) + offset == 0:
            continue  # pyramid over this facet is flat
        face = [v for v in verts if linalg.vec_dot(normal, v) + offset == 0]
        drop = max(range(3), key=lambda ax: abs(normal[ax]))
        keep = [ax for ax in range(3) if ax != drop]
        flat = {(v[keep[0]], v[keep[1]]): v for v in face}
        cycle = _hull_cycle(flat.keys()) if len(flat) >= 3 else None
        if cycle is None:
            continue
        f0 = flat[cycle[0]]
        a0 = linalg.vec_sub(f0, apex)
        for i in range(1, len(cycle) - 1):
            a1 = linalg.vec_sub(flat[cycle[i]], apex)
            a2 = linalg.vec_sub(flat[cycle[i + 1]], apex)
            total += abs(linalg.int_det((a0, a1, a2)))
    return total


def reference_vertices(points, d):
    """Indices of the points that are vertices of their hull in R^d, by
    Caratheodory's theorem: a point is not a vertex exactly when it lies
    in a simplex of d + 1 of the other points.  Barycentric coordinates,
    as integers over det(M) through linalg.int_adjugate, test that
    exactly; each simplex is solved once, for every point outside it."""
    vertices = set(range(len(points)))
    for simplex in combinations(range(len(points)), d + 1):
        base = points[simplex[0]]
        m = [linalg.vec_sub(points[i], base) for i in simplex[1:]]
        det = linalg.int_det(m)
        if not det:
            continue
        adj = linalg.int_adjugate(m)
        sign = 1 if det > 0 else -1
        for i in vertices.difference(simplex):
            coords = linalg.row_times_matrix(
                linalg.vec_sub(points[i], base), adj)
            if (all(sign * c >= 0 for c in coords)
                    and sign * sum(coords) <= abs(det)):
                vertices.remove(i)
    return vertices


def reference_polytope_points(p):
    """geometry._polytope_points as it was before its column intervals,
    and without its cap: every point of the bounding box that lies on
    the inner side of each edge of a polygon (a cross product) or each
    facet inequality of a 3d polytope, sorted."""
    lows, highs = p.bounding_box()
    box = product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    if p.dim == 2:
        edges = list(zip(p.vertices, p.vertices[1:] + p.vertices[:1]))
        return sorted(pt for pt in box
                      if all(cross(a, b, pt) >= 0 for a, b in edges))
    facets = reference_facet_inequalities(p.vertices)
    return sorted(pt for pt in box
                  if all(linalg.vec_dot(normal, pt) + offset <= 0
                         for normal, offset in facets))


def reference_hnf(rows):
    """lattices.hnf as it was when it carried U as a second list of rows
    through every row operation, frozen: the reference that the single
    elimination, with U read off an identity block, must equal exactly."""
    m = len(rows)
    if m == 0:
        raise DegenerateInput("empty matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DegenerateInput("ragged matrix")
    h = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    row = 0
    pivots = []
    for col in range(n):
        pivot = next((i for i in range(row, m) if h[i][col]), None)
        if pivot is None:
            continue
        h[row], h[pivot] = h[pivot], h[row]
        u[row], u[pivot] = u[pivot], u[row]
        for i in range(row + 1, m):
            if not h[i][col]:
                continue
            a, b = h[row][col], h[i][col]
            g, x, y = linalg.egcd(a, b)
            p, q = -(b // g), a // g
            h[row], h[i] = (
                [x * ra + y * rb for ra, rb in zip(h[row], h[i])],
                [p * ra + q * rb for ra, rb in zip(h[row], h[i])],
            )
            u[row], u[i] = (
                [x * ra + y * rb for ra, rb in zip(u[row], u[i])],
                [p * ra + q * rb for ra, rb in zip(u[row], u[i])],
            )
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[row])]
        pivots.append(col)
        row += 1
    return HnfResult(
        tuple(tuple(r) for r in h),
        tuple(tuple(r) for r in u),
        row,
        tuple(pivots),
    )


def reference_sublattice(p):
    """The first d rows of the two-list Hermite form of the vertex
    differences v_i - v_0, and the product of their pivots."""
    anchor = p.vertices[0]
    result = reference_hnf([[a - b for a, b in zip(v, anchor)]
                            for v in p.vertices[1:]])
    basis = result.h[:p.dim]
    return SublatticeInfo(basis, prod(
        row[col] for row, col in zip(basis, result.pivot_columns)))


def reference_solve_context(vertices, combo):
    """The anchor tuple, its base vertex, and det and adjugate of its
    difference matrix."""
    base = vertices[combo[0]]
    m = tuple(linalg.vec_sub(vertices[i], base) for i in combo[1:])
    return combo, base, linalg.int_det(m), linalg.int_adjugate(m)


def reference_attempt(p, q, context, image, mode, scaled_targets):
    """One candidate image of the anchor tuple, mapped the direct way:
    A_scaled = adj(M) @ N and the scaled shift det(M) * q0 - p0 @ A_scaled
    are formed first, and every other vertex v of P must land on a vertex
    w of Q with v @ A_scaled + shift == det(M) * w."""
    combo, p0, det_m, adj_m = context
    qv = q.vertices
    q0 = qv[image[0]]
    n_rows = tuple(linalg.vec_sub(qv[j], q0) for j in image[1:])
    det_n = linalg.int_det(n_rows)
    if det_n == 0:
        return None
    if mode == "unimodular" and abs(det_n) != abs(det_m):
        return None
    if mode == "det_one" and det_n != det_m:
        return None
    a_scaled = linalg.mat_mul(adj_m, n_rows)
    if mode == "unimodular":
        if any(x % det_m for row in a_scaled for x in row):
            return None
    d = p.dim
    shift = tuple(det_m * c - x for c, x in
                  zip(q0, linalg.row_times_matrix(p0, a_scaled)))
    bijection = [None] * len(p.vertices)
    for i, j in zip(combo, image):
        bijection[i] = j
    for i, v in enumerate(p.vertices):
        if bijection[i] is not None:
            continue
        img = tuple(
            sum(v[k] * a_scaled[k][c] for k in range(d)) + shift[c]
            for c in range(d))
        j = scaled_targets.get(img)
        if j is None:
            return None
        bijection[i] = j
    matrix = tuple(tuple(Fraction(x, det_m) for x in row) for row in a_scaled)
    translation = tuple(Fraction(s, det_m) for s in shift)
    return EquivalenceWitness(tuple(bijection), RationalAffineMap(matrix, translation))


def reference_search(p, q, mode, combo, images):
    """First witness among the candidate images of P's tuple `combo`, or
    None, trying them in the order given."""
    context = reference_solve_context(p.vertices, combo)
    det_m = context[2]
    scaled_targets = {
        tuple(det_m * c for c in w): j for j, w in enumerate(q.vertices)}
    for image in images:
        witness = reference_attempt(p, q, context, image, mode, scaled_targets)
        if witness is not None:
            return witness
    return None


def reference_decide(p, q, mode):
    """The vertex search of equivalence.decide, done by reference_search:
    the same checks, anchor and candidate order, so for a 3d pair the same
    answer, reason and witness as decide; polygons, which decide answers
    by canonical frames, get the search's truth value.  decide's
    facet-size check is left out on purpose, so that its "facet sizes
    differ" answers are checked against a search that never reads them:
    there this answers no by exhausting its candidates."""
    if len(p.vertices) != len(q.vertices):
        return NotEquivalent("vertex counts differ")
    pp, qp = _profile(p), _profile(q)
    if pp.direction_signature != qp.direction_signature:
        return NotEquivalent("primitive volume vectors differ as multisets")
    if mode in ("unimodular", "det_one") and pp.content != qp.content:
        return NotEquivalent("volume vectors differ as multisets")
    combo, value, _ = pp.anchor
    images = _candidate_images(qp.entry_by_combo, combo, value)
    return reference_search(p, q, mode, combo, images) or NotEquivalent(
        "no vertex correspondence extends to an affine map")


def reference_oracle(p, q, mode):
    """oracle_equivalent with its search done by reference_search."""
    if len(q.vertices) != len(p.vertices):
        return NotEquivalent("vertex counts differ")
    w = _profile(p).volume
    combo = next(c for c, e in zip(w.combinations(), w.entries) if e)
    images = permutations(range(len(p.vertices)), p.dim + 1)
    return reference_search(p, q, mode, combo, images) or \
        NotEquivalent("exhausted all vertex correspondences")


def oracle_class_count(polys, mode):
    reps = []
    for p in polys:
        if not any(oracle_equivalent(p, r, mode) for r in reps):
            reps.append(p)
    return len(reps)


def random_unimodular(rng, shears=4):
    """Random 2x2 integer matrix with determinant +-1, as a product of
    shears, with an optional swap for determinant -1."""
    m = [[1, 0], [0, 1]]
    for _ in range(shears):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
    if rng.random() < 0.5:
        m = [m[1], m[0]]
    return tuple(tuple(row) for row in m)


def random_unimodular_3d(rng):
    return random_unimodular_nd(rng, 3)


def random_unimodular_nd(rng, d):
    """Product of d + 1 integer row shears of the d x d identity, then an
    optional swap of the first two rows."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(d + 1):
        src, dst = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]
    if rng.random() < 0.5:
        m[0], m[1] = m[1], m[0]
    return tuple(map(tuple, m))


def apply_int_map(points, matrix, shift):
    d = len(shift)
    return [tuple(sum(p[i] * matrix[i][j] for i in range(d)) + shift[j]
                  for j in range(d)) for p in points]


def random_polygon(rng, span=4, tries=50):
    """Random small polygon: hull of a handful of random points."""
    for _ in range(tries):
        pts = {(rng.randint(-span, span), rng.randint(-span, span))
               for _ in range(rng.randint(3, 7))}
        hull = strict_hull(pts)
        if hull is not None:
            return LatticePolytope(2, tuple(hull))
    raise AssertionError("random polygon generation failed")


def permutation_det(m):
    """Leibniz expansion: the signed sum over all permutations of the
    products m[0][s(0)] * ... * m[n-1][s(n-1)]."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def seeded(seed):
    return random.Random(seed)


def run_in_small_address_space(code, limit=1 << 28):
    """Run Python source `code` in a child interpreter whose address space
    is capped at `limit` bytes (256 MiB by default), so that a run which
    tries to list a huge region fails there with a MemoryError instead of
    taking the machine's memory.  The cap applies to the child alone."""
    prelude = ("import resource\n"
               f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n")
    src = str(Path(lattice_equiv.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
