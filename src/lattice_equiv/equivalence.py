"""Equivalence deciders and 2d canonical forms.

Two lattice polytopes are affinely equivalent exactly when their vertex
sets have equal primitive volume vectors under some ordering, so every
decider here searches for a vertex correspondence.  The search is
anchored: fix d+1 affinely independent vertices of P whose volume-vector
entry is rare, try matching tuples in Q, and accept a candidate only if
the unique affine map it determines carries vert(P) onto vert(Q) and
passes the mode's determinant test.

Modes:
  affine      -- any invertible rational affine map
  unimodular  -- integer matrix, determinant +-1, integer translation
  det_one     -- determinant exactly +1, matrix need not be integral
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd

from . import linalg
from .caps import resolve
from .errors import DegenerateInput, DimensionMismatch, TooLarge
from .geometry import LatticePolytope, RationalAffineMap, normalized_volume
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


@lru_cache(maxsize=None)
def _volume_profile(p):
    """(volume vector, primitive decomposition) of a polytope's vertices."""
    w = volume_vector(p.vertices, p.dim)
    return w, primitive_decomposition(w)


@lru_cache(maxsize=None)
def _direction_signature(p):
    _, prim = _volume_profile(p)
    return tuple(sorted(abs(x) for x in prim.direction))


@lru_cache(maxsize=None)
def _entry_signature(p):
    w, _ = _volume_profile(p)
    return tuple(sorted(abs(x) for x in w.entries))


@lru_cache(maxsize=None)
def _height_signature(p):
    return lattice_height_vector(p.vertices, p.dim).abs_signature()


@lru_cache(maxsize=None)
def _anchor(p):
    """Pruning anchor: the lex-first (d+1)-combination of P's vertices
    whose |primitive entry| is nonzero and rarest in the multiset."""
    w, prim = _volume_profile(p)
    counts = Counter(abs(e) for e in prim.direction if e)
    best = None
    for combo, entry in zip(w.combinations(), prim.direction):
        if not entry:
            continue
        rank = counts[abs(entry)]
        if best is None or rank < best[0]:
            best = (rank, combo, abs(entry))
    rank, combo, value = best
    return combo, value


@lru_cache(maxsize=None)
def _entry_by_combo(p):
    w, prim = _volume_profile(p)
    return dict(zip(w.combinations(), prim.direction))


@lru_cache(maxsize=None)
def _solve_context(p, combo):
    """Anchor data for solving maps out of P: base vertex, the difference
    matrix determinant, and its adjugate."""
    base = p.vertices[combo[0]]
    m = tuple(linalg.vec_sub(p.vertices[i], base) for i in combo[1:])
    det = linalg.int_det(m)
    return base, det, linalg.int_adjugate(m)


def _attempt(p, q, combo, image, mode, scaled_targets):
    """Try the correspondence sending P's anchor `combo` to Q's vertex
    tuple `image`; return a witness or None.

    Exact integer path: with M, N the difference matrices of the two
    tuples, the candidate matrix is A = adj(M) @ N / det(M), and a vertex
    v lands on w exactly when (v - p0) @ adj(M) @ N == det(M) * (w - q0).
    """
    p0, det_m, adj_m = _solve_context(p, combo)
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
    shift = tuple(det_m * c for c in q0)
    bijection = []
    for v in p.vertices:
        dv = linalg.vec_sub(v, p0)
        img = tuple(
            sum(dv[k] * a_scaled[k][c] for k in range(d)) + shift[c]
            for c in range(d))
        j = scaled_targets.get(img)
        if j is None:
            return None
        bijection.append(j)
    matrix = tuple(tuple(Fraction(x, det_m) for x in row) for row in a_scaled)
    translation = linalg.vec_sub(q0, linalg.row_times_matrix(p0, matrix))
    return EquivalenceWitness(tuple(bijection), RationalAffineMap(matrix, translation))


def _candidate_images(p, q, combo, value):
    """Ordered (d+1)-tuples of Q-vertex indices whose underlying
    combination has |primitive entry| equal to the anchor's.  The
    mirror of P's own anchor tuple is ranked first so that self
    comparison yields the identity witness."""
    entries = _entry_by_combo(q)
    mirror = combo if abs(entries.get(combo, 0)) == value else None
    if mirror is not None:
        yield mirror
    for cand, entry in entries.items():
        if abs(entry) != value:
            continue
        for perm in permutations(cand):
            if perm != mirror:
                yield perm


def decide(p, q, mode):
    """Witness of equivalence in `mode` (one of MODES), or NotEquivalent."""
    if mode not in MODES:
        raise DegenerateInput(f"unknown equivalence mode {mode!r}")
    if p.dim != q.dim:
        raise DimensionMismatch(
            f"cannot compare polytopes of dimension {p.dim} and {q.dim}")
    if len(p.vertices) != len(q.vertices):
        return NotEquivalent("vertex counts differ")
    if _direction_signature(p) != _direction_signature(q):
        return NotEquivalent("primitive volume vectors differ as multisets")
    if mode in ("unimodular", "det_one"):
        if _entry_signature(p) != _entry_signature(q):
            return NotEquivalent("volume vectors differ as multisets")
        if p.dim == 2:
            if normalized_volume(p) != normalized_volume(q):
                return NotEquivalent("normalized volumes differ")
            if mode == "unimodular" and _height_signature(p) != _height_signature(q):
                return NotEquivalent("lattice height multisets differ")
    combo, value = _anchor(p)
    _, det_m, _ = _solve_context(p, combo)
    scaled_targets = {
        tuple(det_m * c for c in w): j for j, w in enumerate(q.vertices)}
    for image in _candidate_images(p, q, combo, value):
        witness = _attempt(p, q, combo, image, mode, scaled_targets)
        if witness is not None:
            return witness
    return NotEquivalent("no vertex correspondence extends to an affine map")


def affine_equivalent(p, q):
    """Witness of some invertible affine map with vert(P) -> vert(Q)."""
    return decide(p, q, "affine")


def unimodular_equivalent(p, q):
    """Witness whose map has integer matrix, det +-1, integer translation."""
    return decide(p, q, "unimodular")


def unimodular_affine_equivalent(p, q):
    """Witness whose map has determinant exactly +1 (volume preserving)."""
    return decide(p, q, "det_one")


@lru_cache(maxsize=None)
def _first_independent_combo(p):
    w, _ = _volume_profile(p)
    for combo, entry in zip(w.combinations(), w.entries):
        if entry:
            return combo
    raise DegenerateInput("no affinely independent vertex tuple")


def oracle_equivalent(p, q, mode="affine", caps=None):
    """Brute-force decider: try every ordered (d+1)-tuple of Q as the
    image of P's first affinely independent tuple.  Exhaustive, hence
    authoritative, but factorial; guarded by the oracle_vertices cap."""
    mode = CLI_MODES.get(mode, mode)
    if mode not in MODES:
        raise DegenerateInput(f"unknown equivalence mode {mode!r}")
    if p.dim != q.dim:
        raise DimensionMismatch(
            f"cannot compare polytopes of dimension {p.dim} and {q.dim}")
    caps = resolve(caps)
    n = len(p.vertices)
    if n > caps.oracle_vertices or len(q.vertices) > caps.oracle_vertices:
        raise TooLarge(
            f"oracle handles at most {caps.oracle_vertices} vertices")
    if len(q.vertices) != n:
        return NotEquivalent("vertex counts differ")
    combo = _first_independent_combo(p)
    _, det_m, _ = _solve_context(p, combo)
    scaled_targets = {
        tuple(det_m * c for c in w): j for j, w in enumerate(q.vertices)}
    for image in permutations(range(n), p.dim + 1):
        witness = _attempt(p, q, combo, image, mode, scaled_targets)
        if witness is not None:
            return witness
    return NotEquivalent("exhausted all vertex correspondences")


def _edge_frame(origin, along, points):
    """Unimodular image of `points` - `origin` taking `along` - `origin`
    onto the positive x axis at (g, 0): each difference is multiplied by
    the frame ((x, -beta), (y, alpha)) with x*alpha + y*beta = 1."""
    ox, oy = origin
    ux, uy = along[0] - ox, along[1] - oy
    g = gcd(ux, uy)
    alpha, beta = ux // g, uy // g
    _, x, y = linalg.egcd(alpha, beta)
    return g, [((px - ox) * x + (py - oy) * y,
                (py - oy) * alpha - (px - ox) * beta)
               for px, py in points]


def canonical_triangle(t):
    """Unimodular normal form of a lattice triangle.

    For each of the six labelings (p0, p1, p2): translate p0 to the
    origin, send p1 to (g, 0) with g = gcd(p1 - p0), reflect so p2's
    image has positive y, and shear its x into [0, b).  The labeling
    with minimal (g, b, a) wins.
    """
    if t.dim != 2:
        raise DimensionMismatch("canonical_triangle expects a polygon")
    if len(t.vertices) != 3:
        raise DegenerateInput("canonical_triangle expects a triangle")
    best = None
    for p0, p1, p2 in permutations(t.vertices):
        g, (_, _, w) = _edge_frame(p0, p1, (p0, p1, p2))
        b = abs(w[1])
        a = w[0] % b
        key = (g, b, a)
        if best is None or key < best:
            best = key
    g, b, a = best
    return CanonicalTriangle(g=g, a=a, b=b)


def canonical_polygon(p):
    """Minimal unimodular representative of a lattice polygon.

    Every directed boundary edge is tried as the anchor: its start goes
    to the origin, the edge onto the positive x axis, and the anchor's
    other neighbor (the last vertex of the traversal) is normalized by
    reflection and shear exactly as in canonical_triangle.  The result is
    the smallest of these 2n candidate vertex cycles, each in stored
    order, and only it is built as a polytope.  This makes the result a
    complete invariant for unimodular equivalence.
    """
    if p.dim != 2:
        raise DimensionMismatch("canonical_polygon expects a polygon")
    cycle = p.vertices
    n = len(cycle)
    best = None
    for tr in (cycle, cycle[::-1]):
        for i in range(n):
            order = tr[i:] + tr[:i]
            _, pts = _edge_frame(order[0], order[1], order)
            ref_y = pts[-1][1]
            if ref_y < 0:
                pts = [(x, -y) for x, y in pts]
                ref_y = -ref_y
            shear = pts[-1][0] // ref_y
            if shear:
                pts = [(x - shear * y, y) for x, y in pts]
            # The anchor's edges now run along (g, 0) and (a, b) with
            # 0 <= a < b, and the polygon lies in the cone between them:
            # the origin is the lex-least vertex and the cycle runs
            # counterclockwise, so pts is already in stored order.
            if best is None or pts < best:
                best = pts
    return LatticePolytope(2, tuple(best))


def affine_key(p):
    """Normal form of a polygon's affine class: the canonical polygon of
    its minimal-volume image.  An affine map between two polygons whose
    vertex differences generate Z^2 carries Z^2 onto Z^2, so it is
    unimodular; hence equal keys mean exactly affine equivalence."""
    return canonical_polygon(shrink_to_minimal_volume(p)[0])
