"""Equivalence deciders and 2d canonical forms.

Two lattice polytopes are affinely equivalent exactly when their vertex
sets have equal primitive volume vectors under some ordering, so every
decider here searches for a vertex correspondence.  The search is
anchored: fix d+1 affinely independent vertices of P whose volume-vector
entry is rare, try matching tuples in Q, and accept a candidate only if
the unique affine map it determines carries vert(P) onto vert(Q) and
passes the mode's determinant test.  The invariants the search reads
sit in one profile per polytope, which lives exactly as long as it.

Modes:
  affine      -- any invertible rational affine map
  unimodular  -- integer matrix, determinant +-1, integer translation
  det_one     -- determinant exactly +1, matrix need not be integral
"""

import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import gcd

from . import linalg
from .caps import resolve
from .errors import DegenerateInput, DimensionMismatch, TooLarge
from .geometry import LatticePolytope, RationalAffineMap, _stored_polygon
# bench/tracing.py patches the names it traces here; keep them bound.
from .invariants import (
    lattice_height_vector,
    primitive_decomposition,
    volume_vector,
)
from .lattices import shrink_to_minimal_volume

MODES = ("affine", "unimodular", "det_one")
# Command-line spelling of each mode -> its name here.
CLI_MODES = {mode.replace("_", "-"): mode for mode in MODES}


@dataclass(frozen=True)
class NotEquivalent:
    """Falsy result carrying the reason the search gave up."""

    reason: str = ""

    def __bool__(self):
        return False


@dataclass(frozen=True)
class EquivalenceWitness:
    """bijection[i] = j means map carries P's vertex i onto Q's vertex j."""

    bijection: tuple
    map: RationalAffineMap


@dataclass(frozen=True)
class CanonicalTriangle:
    """Normal form (0,0), (g,0), (a,b) of a lattice triangle.

    The key (g, b, a) is minimal over all six vertex labelings and both
    reflections, so two triangles have equal keys exactly when they are
    unimodularly equivalent.
    """

    g: int
    a: int
    b: int

    def __post_init__(self):
        if self.g < 1 or self.b < 1 or not 0 <= self.a < self.b:
            raise DegenerateInput("invalid canonical triangle parameters")

    @property
    def key(self):
        return (self.g, self.b, self.a)

    @property
    def normalized_volume(self):
        return self.g * self.b

    def as_polytope(self):
        return LatticePolytope(2, ((0, 0), (self.g, 0), (self.a, self.b)))


class _Profile:
    """Decider invariants of one polytope.  Built from its vertices and
    dimension, never from the polytope itself, so that a profile does not
    keep its own key in _PROFILES alive."""

    def __init__(self, vertices, dim):
        self.vertices = vertices
        self.dim = dim
        self.volume = volume_vector(vertices, dim)
        primitive = primitive_decomposition(self.volume)
        self.direction = primitive.direction
        self.direction_signature = tuple(sorted(abs(x) for x in self.direction))
        self.content = abs(primitive.content)

    @cached_property
    def entry_by_combo(self):
        return dict(zip(self.volume.combinations(), self.direction))

    @cached_property
    def anchor(self):
        """Pruning anchor (combo, |entry|, solve context): the lex-first
        (d+1)-combination of the vertices whose |primitive entry| is
        nonzero and rarest in the multiset."""
        counts = Counter(abs(e) for e in self.direction if e)
        best = None
        for combo, entry in zip(self.volume.combinations(), self.direction):
            if not entry:
                continue
            rank = counts[abs(entry)]
            if best is None or rank < best[0]:
                best = (rank, combo, abs(entry))
        _, combo, value = best
        return combo, value, self.solve_context(combo)

    def solve_context(self, combo):
        """Data for solving maps out of the vertex tuple `combo`: the
        tuple itself, its base vertex, the difference matrix determinant,
        and its adjugate."""
        base = self.vertices[combo[0]]
        m = tuple(linalg.vec_sub(self.vertices[i], base) for i in combo[1:])
        return combo, base, linalg.int_det(m), linalg.int_adjugate(m)


# Each live polytope's profile; an entry goes when its polytope does.
_PROFILES = weakref.WeakKeyDictionary()


def _profile(p):
    profile = _PROFILES.get(p)
    if profile is None:
        profile = _PROFILES[p] = _Profile(p.vertices, p.dim)
    return profile


def _attempt(p, q, context, image, mode, scaled_targets):
    """Try the correspondence sending P's anchor tuple, whose solve
    context is `context`, to Q's vertex tuple `image`; return a witness
    or None.

    Exact integer path: with M, N the difference matrices of the two
    tuples, the candidate map is v -> v @ A + t with A = adj(M) @ N / det(M)
    and t = q0 - p0 @ A, so a vertex v lands on w exactly when
    v @ adj(M) @ N + det(M) * t == det(M) * w, all integers.  As
    M @ adj(M) = det(M) * I, the map carries the anchor tuple onto
    `image` by construction, so only the other vertices are mapped.
    """
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


def _search(p, q, mode, context, images):
    """First witness among the candidate `images` of P's anchor tuple,
    or None."""
    det_m = context[2]
    scaled_targets = {
        tuple(det_m * c for c in w): j for j, w in enumerate(q.vertices)}
    for image in images:
        witness = _attempt(p, q, context, image, mode, scaled_targets)
        if witness is not None:
            return witness
    return None


def _candidate_images(entries, combo, value):
    """Ordered (d+1)-tuples of Q-vertex indices whose underlying
    combination has |primitive entry| equal to the anchor's, given Q's
    entry-by-combination map.  The mirror of P's own anchor tuple is
    ranked first so that self comparison yields the identity witness."""
    mirror = combo if abs(entries.get(combo, 0)) == value else None
    if mirror is not None:
        yield mirror
    for cand, entry in entries.items():
        if abs(entry) != value:
            continue
        for perm in permutations(cand):
            if perm != mirror:
                yield perm


def _check_comparable(p, q, mode):
    if mode not in MODES:
        raise DegenerateInput(f"unknown equivalence mode {mode!r}")
    if p.dim != q.dim:
        raise DimensionMismatch(
            f"cannot compare polytopes of dimension {p.dim} and {q.dim}")


def decide(p, q, mode):
    """Witness of equivalence in `mode` (one of MODES), or NotEquivalent."""
    _check_comparable(p, q, mode)
    if len(p.vertices) != len(q.vertices):
        return NotEquivalent("vertex counts differ")
    pp, qp = _profile(p), _profile(q)
    if pp.direction_signature != qp.direction_signature:
        return NotEquivalent("primitive volume vectors differ as multisets")
    # With equal direction multisets, the volume vectors are equal as
    # multisets of |entries| exactly when their contents agree in size.
    if mode in ("unimodular", "det_one") and pp.content != qp.content:
        return NotEquivalent("volume vectors differ as multisets")
    combo, value, context = pp.anchor
    images = _candidate_images(qp.entry_by_combo, combo, value)
    return _search(p, q, mode, context, images) or NotEquivalent(
        "no vertex correspondence extends to an affine map")


def affine_equivalent(p, q):
    """Witness of some invertible affine map with vert(P) -> vert(Q)."""
    return decide(p, q, "affine")


def unimodular_equivalent(p, q):
    """Witness whose map has integer matrix, det +-1, integer translation."""
    return decide(p, q, "unimodular")


def unimodular_affine_equivalent(p, q):
    """Witness whose map has determinant exactly +1 (volume preserving)."""
    return decide(p, q, "det_one")


def oracle_equivalent(p, q, mode="affine", caps=None):
    """Brute-force decider: try every ordered (d+1)-tuple of Q as the
    image of P's first affinely independent tuple.  Exhaustive, hence
    authoritative, but factorial; guarded by the oracle_vertices cap."""
    _check_comparable(p, q, mode)
    caps = resolve(caps)
    n = len(p.vertices)
    if n > caps.oracle_vertices or len(q.vertices) > caps.oracle_vertices:
        raise TooLarge(
            f"oracle handles at most {caps.oracle_vertices} vertices")
    if len(q.vertices) != n:
        return NotEquivalent("vertex counts differ")
    profile = _profile(p)
    w = profile.volume
    combo = next(c for c, e in zip(w.combinations(), w.entries) if e)
    images = permutations(range(n), p.dim + 1)
    return _search(p, q, mode, profile.solve_context(combo), images) or \
        NotEquivalent("exhausted all vertex correspondences")


def canonical_triangle(t):
    """Unimodular normal form of a lattice triangle, read off its
    canonical cycle (0,0), (g,0), (a,b).  The least edge length g fixes
    b = (normalized volume) / g, so the least cycle, which then has the
    least a, also has the least key (g, b, a)."""
    if t.dim != 2:
        raise DimensionMismatch("canonical_triangle expects a polygon")
    if len(t.vertices) != 3:
        raise DegenerateInput("canonical_triangle expects a triangle")
    _, (g, _), (a, b) = _canonical_cycle(t.vertices)
    return CanonicalTriangle(g=g, a=a, b=b)


def _canonical_cycle(cycle):
    """Smallest framed cycle of a convex lattice polygon's vertex cycle
    (either orientation), as a raw tuple in stored order.

    Each directed boundary edge is an anchor: its start goes to the
    origin, the edge to (g, 0) with g its lattice length, and the
    traversal's last vertex is reflected and sheared to (a, b) with
    0 <= a < b, so the cycle starts at its lex-least vertex and runs
    counterclockwise.  The 2n framed cycles are compared lazily: only
    anchors of least g are framed, vertex k is mapped only for the
    candidates still tied before it, and the one left is mapped in full.
    Tied candidates frame the same cycle, so the representative is the
    one a full comparison picks.
    """
    n = len(cycle)
    edges = [(q[0] - p[0], q[1] - p[1])
             for p, q in zip(cycle, cycle[1:] + cycle[:1])]
    # An edge's lattice length is the same in both orientations.
    lengths = [gcd(ex, ey) for ex, ey in edges]
    g = min(lengths)
    # A candidate traverses cycle[start], cycle[start + step], ... and
    # maps p to (p - o) @ ((xx, xy), (yx, yy)), o = cycle[start].
    frames = []
    for i, length in enumerate(lengths):
        if length != g:
            continue
        alpha, beta = edges[i][0] // g, edges[i][1] // g
        _, x, y = linalg.egcd(alpha, beta)
        for start, step, al, be, u, v in (
                (i, 1, alpha, beta, x, y),
                ((i + 1) % n, -1, -alpha, -beta, -x, -y)):
            ox, oy = cycle[start]
            lx, ly = cycle[(start - step) % n]
            dx, dy = lx - ox, ly - oy
            # ((u, -be), (v, al)) takes the edge to (g, 0) and the last
            # vertex to height h; the sign s reflects it to b = |h| and
            # the shear t (signed) brings its x into [0, b).
            h = dy * al - dx * be
            s = 1 if h > 0 else -1
            t = s * ((dx * u + dy * v) // (s * h))
            frames.append((start, step, ox, oy,
                           u + t * be, -s * be, v - t * al, s * al))
    out = [(0, 0), (g, 0)]
    for k in range(2, n):
        images = []
        for start, step, ox, oy, xx, xy, yx, yy in frames:
            px, py = cycle[(start + step * k) % n]
            px, py = px - ox, py - oy
            images.append((px * xx + py * yx, px * xy + py * yy))
        least = min(images)
        out.append(least)
        if len(images) > 1:
            frames = [f for f, image in zip(frames, images) if image == least]
    return tuple(out)


def canonical_polygon(p):
    """Minimal unimodular representative of a lattice polygon, built
    from its smallest framed vertex cycle: a complete invariant for
    unimodular equivalence.  The framed cycle starts at the origin, has
    its first edge on (g, 0) and runs counterclockwise, so it is already
    in stored order and is stored without the constructor's check
    (tests/test_census.py::test_census_path_polygons_pass_the_check)."""
    if p.dim != 2:
        raise DimensionMismatch("canonical_polygon expects a polygon")
    return _stored_polygon(_canonical_cycle(p.vertices))


def affine_key(p):
    """Normal form of a polygon's affine class: the canonical polygon of
    its minimal-volume image.  An affine map between two polygons whose
    vertex differences generate Z^2 carries Z^2 onto Z^2, so it is
    unimodular; hence equal keys mean exactly affine equivalence."""
    return canonical_polygon(shrink_to_minimal_volume(p)[0])
