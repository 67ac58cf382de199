"""Seeded inputs for the benchmark's decider streams.

Written independently of tests/conftest.py on purpose: editing a test
must not change what the benchmark measures.  Everything here depends
only on the seed string and on LatticePolytope, so the library under
test receives nothing but the generated polytopes.

A stream is a list of (P, Q, mode) triples.  Pair i follows a fixed
schedule so that every seed has the same mix:
  mode        MODES[i % 3]
  kind        KINDS[(i // 3) % 3]: unimodular image, (x, y) -> (k*x, y)
              image under a unimodular map, or an unrelated polytope with
              the same vertex count
  dimension   3 when i % 10 == 9 (shape SHAPES_3D[(i // 10) % 4]), else 2
              with 3 + (i // 9) % 6 vertices
"""

import math
import random

from lattice_equiv import LatticePolytope

MODES = ("affine", "unimodular", "det_one")
KINDS = ("unimodular", "stretched", "unrelated")

# Vertex lists in convex position; the library does not check this in 3d.
_CUBE = tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1))
_FRUSTUM = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0),
            (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))
_OCTAHEDRON = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
               (0, 0, 1), (0, 0, -1))
_PRISM = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1))
SHAPES_3D = ("simplex", "cube", "octahedron", "prism")


def rng_for(*parts):
    """Independent generator for one named input stream of a seed."""
    return random.Random(":".join(str(p) for p in parts))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def strict_hull(points):
    """Monotone-chain hull keeping strict vertices only, counterclockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return None
    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    cycle = chains[0] + chains[1]
    return cycle if len(cycle) >= 3 else None


def polygon_vertices(rng, n):
    """Vertices of a random lattice polygon with exactly n vertices: the
    hull of n rounded points on a random ellipse, retried until all n are
    vertices."""
    while True:
        radius, stretch = rng.uniform(3, 6), rng.uniform(0.6, 1.4)
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
        hull = strict_hull({(round(stretch * radius * math.cos(a)),
                             round(radius * math.sin(a))) for a in angles})
        if hull is not None and len(hull) == n:
            return hull


def unimodular_matrix(rng, dim, shears=3):
    """Product of random integer shears, then an optional row swap."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(shears):
        src, dst = rng.sample(range(dim), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]
    if rng.random() < 0.5:
        m[0], m[1] = m[1], m[0]
    return m


def apply_map(points, matrix, shift):
    """Row vectors times an integer matrix, plus an integer shift."""
    d = len(shift)
    return [tuple(sum(p[i] * matrix[i][j] for i in range(d)) + shift[j]
                  for j in range(d)) for p in points]


def _image(rng, points, stretch):
    d = len(points[0])
    if stretch:
        k = rng.choice((2, 3))
        points = [(k * p[0],) + tuple(p[1:]) for p in points]
    shift = tuple(rng.randint(-3, 3) for _ in range(d))
    return apply_map(points, unimodular_matrix(rng, d), shift)


def _simplex_3d(rng):
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        a, b, c = rows
        det = (a[0] * (b[1] * c[2] - b[2] * c[1])
               - a[1] * (b[0] * c[2] - b[2] * c[0])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        if det:
            return [(0, 0, 0)] + rows


def _shape_3d(rng, shape):
    if shape == "simplex":
        return _simplex_3d(rng), _simplex_3d(rng)
    base, other = {
        "cube": (_CUBE, _FRUSTUM),
        "octahedron": (_OCTAHEDRON, _PRISM),
        "prism": (_PRISM, _OCTAHEDRON),
    }[shape]
    m = unimodular_matrix(rng, 3)
    return apply_map(base, m, (0, 0, 0)), list(other)


def pair(rng, i):
    """The i-th (P, Q, mode) triple of a stream, drawn from rng."""
    mode = MODES[i % 3]
    kind = KINDS[(i // 3) % 3]
    if i % 10 == 9:
        p_pts, unrelated = _shape_3d(rng, SHAPES_3D[(i // 10) % 4])
        q_pts = unrelated if kind == "unrelated" else _image(
            rng, p_pts, kind == "stretched")
        return LatticePolytope(3, tuple(p_pts)), LatticePolytope(3, tuple(q_pts)), mode
    n = 3 + (i // 9) % 6
    p_pts = polygon_vertices(rng, n)
    if kind == "unrelated":
        q_pts = polygon_vertices(rng, n)
    else:
        q_pts = _image(rng, p_pts, kind == "stretched")
    return LatticePolytope(2, tuple(p_pts)), LatticePolytope(2, tuple(q_pts)), mode


def stream(seed, name, count):
    """`count` seeded pairs for the named stream of a seed."""
    rng = rng_for(seed, name)
    return [pair(rng, i) for i in range(count)]
