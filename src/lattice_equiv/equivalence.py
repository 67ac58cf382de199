"""Equivalence deciders and 2d canonical forms.

Polygons are unimodularly equivalent exactly when their canonical cycles
are equal, and affinely equivalent exactly when the cycles of their
minimal-volume images (`lattices._least_image`) are, so `decide` answers
every polygon pair, in every mode, by canonical frames.  Higher
dimensions, and the factorial oracle, search for a vertex
correspondence: two lattice polytopes are affinely equivalent exactly
when their vertex sets have equal primitive volume vectors under some
ordering.  Before the search, `decide` rejects a pair whose vertex
counts differ, whose primitive volume vectors differ as multisets of
absolute values, and then, in the unimodular and det_one modes, whose
contents differ, or in the affine mode, whose facet sizes differ: the
vertex counts of the facets in the record that the polytope's
constructor left (`LatticePolytope._record`; "facet sizes differ", a
shortcut the oracle does not take).  The search is anchored: fix d+1 affinely
independent vertices of P whose volume-vector entry is rare, try
matching tuples in Q, and accept a candidate only if the unique affine
map it determines carries vert(P) onto vert(Q) and passes the mode's
determinant test.  The invariants the search reads sit in a profile;
from dimension 3 on, each polytope keeps its own in its record, which
also gives the profile its volume vector, so deciding computes none:
the constructor did.

Modes:
  affine      -- any invertible rational affine map
  unimodular  -- integer matrix, determinant +-1, integer translation
  det_one     -- determinant exactly +1, matrix need not be integral
"""

from collections import Counter
from functools import cached_property
from itertools import permutations
from math import gcd
from operator import mul

from . import linalg
from .caps import resolve
from .errors import DegenerateInput, DimensionMismatch, TooLarge
from .geometry import (
    LatticePolytope, _Value, _map_over, _stored_polygon, _whole,
    normalized_volume)
# bench/tracing.py patches the names it traces here; keep them bound.
from .invariants import (
    _volume_vector,
    lattice_height_vector,
    primitive_decomposition,
    volume_vector,
)
from .lattices import _least_image

MODES = ("affine", "unimodular", "det_one")
# Command-line spelling of each mode -> its name here.
CLI_MODES = {mode.replace("_", "-"): mode for mode in MODES}


class NotEquivalent(_Value):
    """Falsy result carrying the reason the search gave up."""

    __slots__ = ("reason",)
    _defaults = {"reason": ""}

    def __bool__(self):
        return False


class EquivalenceWitness(_Value):
    """bijection[i] = j means `map`, a RationalAffineMap, carries P's
    vertex i onto Q's vertex j."""

    __slots__ = ("bijection", "map")


class CanonicalTriangle(_Value):
    """Normal form (0,0), (g,0), (a,b) of a lattice triangle: plain ints
    g, b >= 1 and 0 <= a < b (`_whole`).

    The key (g, b, a) is minimal over all six vertex labelings and both
    reflections, so two triangles have equal keys exactly when they are
    unimodularly equivalent.
    """

    __slots__ = ("g", "a", "b")

    def __post_init__(self):
        _whole(self.g, 1, "g")
        _whole(self.a, 0, "a")
        _whole(self.b, 1, "b")
        if self.a >= self.b:
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
    volume vector, never from the polytope itself: the profile sits in
    its polytope's record, and a `VolumeVector` holds no reference to its
    polytope either, so polytope, record and profile form no cycle and
    reference counting frees them together."""

    def __init__(self, vertices, volume):
        self.vertices = vertices
        self.volume = volume
        primitive = primitive_decomposition(self.volume)
        self.direction = primitive.direction
        self.direction_signature = tuple(sorted(map(abs, self.direction)))
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
        return combo, value, _solve_context(self.vertices, combo)


def _solve_context(verts, combo):
    """Data for solving maps out of the vertex tuple `combo`: the tuple
    itself, its base vertex p0, det M and adj(M) for the difference
    matrix M with rows v_i - p0 (i in combo[1:]), and the anchor
    coordinates (v - p0) @ adj(M) of every other vertex v, paired with
    its index.  As M @ adj(M) = det(M) * I, these are det(M) times v's
    coordinates in the affine frame of the tuple, so they do not depend
    on the image tried."""
    base = verts[combo[0]]
    m = tuple(linalg.vec_sub(verts[i], base) for i in combo[1:])
    adj = linalg.int_adjugate(m)
    coords = tuple(
        (i, linalg.row_times_matrix(linalg.vec_sub(v, base), adj))
        for i, v in enumerate(verts) if i not in combo)
    return combo, base, linalg.int_det(m), adj, coords


def _profile(p):
    """The profile of `p`: from dimension 3 on, the one its record holds,
    built on first use from the record's volume vector.  Segments have
    no record, so each call builds theirs anew."""
    if p.dim < 3:
        return _Profile(p.vertices, volume_vector(p.vertices, p.dim))
    record = p._record
    if record[3] is None:
        record[3] = _Profile(p.vertices, record[0])
    return record[3]


def _attempt(p, q, context, image, mode, scaled_targets):
    """Try the correspondence sending P's anchor tuple, whose solve
    context is `context`, to Q's vertex tuple `image`; return a witness
    or None.

    Exact integer path: with M, N the difference matrices of the two
    tuples, based at p0 and q0, the candidate map is v -> v @ A + t with
    A = adj(M) @ N / det(M) and t = q0 - p0 @ A.  Then
    det(M) * (v @ A + t) = ((v - p0) @ adj(M)) @ N + det(M) * q0, so a
    vertex v lands on w exactly when
    ((v - p0) @ adj(M)) @ N + det(M) * q0 == det(M) * w, all integers.
    The anchor coordinates (v - p0) @ adj(M) come with the context, so
    each vertex costs d * d products here.  The anchor tuple lands on
    `image` by construction, so only the other vertices are mapped; once
    all have landed, `_map_over` divides adj(M) @ N and det(M) * t by det(M).
    """
    combo, p0, det_m, adj_m, coords = context
    qv = q.vertices
    q0 = qv[image[0]]
    n_rows = tuple(linalg.vec_sub(qv[j], q0) for j in image[1:])
    det_n = linalg.int_det(n_rows)
    if det_n == 0:
        return None
    if mode == "det_one" and det_n != det_m:
        return None
    a_scaled = None
    if mode == "unimodular":
        if abs(det_n) != abs(det_m):
            return None
        a_scaled = linalg.mat_mul(adj_m, n_rows)
        if any(x % det_m for row in a_scaled for x in row):
            return None
    columns = tuple(zip(*n_rows))
    base = tuple(det_m * c for c in q0)
    bijection = [None] * len(p.vertices)
    for i, j in zip(combo, image):
        bijection[i] = j
    for i, u in coords:
        j = scaled_targets.get(tuple(
            sum(map(mul, u, col)) + b for col, b in zip(columns, base)))
        if j is None:
            return None
        bijection[i] = j
    if a_scaled is None:
        a_scaled = linalg.mat_mul(adj_m, n_rows)
    shift = tuple(b - x for b, x in
                  zip(base, linalg.row_times_matrix(p0, a_scaled)))
    return EquivalenceWitness(tuple(bijection),
                              _map_over(a_scaled, shift, det_m))


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


def _traversal(n, start, step, flipped):
    """The indices of an n-cycle in the order a frame reads them."""
    read = [(start + step * k) % n for k in range(n)]
    return [n - 1 - i for i in read] if flipped else read


def _by_frames(p, q, mode):
    """Equivalence of two polygons with equal vertex counts, by the
    canonical frames of P and Q (unimodular mode) or of their
    minimal-volume images P' and Q' (`_least_image`).  Equal cycles mean
    equivalent, and the frames read them in corresponding order: that is
    the bijection, and the witness is the one affine map sending P's
    first three vertices (affinely independent, as P is strictly convex)
    onto their partners.  Each tied frame of P' followed by the inverse
    of Q's frame is a map P' -> Q', and shrinks have determinant
    1/index > 0, so det_one asks for equal volumes (hence indices) and a
    tied frame with the step of Q's."""
    if mode != "affine" and normalized_volume(p) != normalized_volume(q):
        return NotEquivalent("normalized volumes differ")
    pv, qv = (p.vertices, q.vertices) if mode == "unimodular" else (
        _least_image(p), _least_image(q))
    p_form, p_flipped, p_frames = _canonical_frame(pv)
    q_form, q_flipped, ((q_start, q_step, *_), *_) = _canonical_frame(qv)
    p_frame = p_frames[0] if mode != "det_one" else next(
        (frame for frame in p_frames if frame[1] == q_step), None)
    if p_form != q_form or p_frame is None:
        return NotEquivalent(
            "no vertex correspondence extends to an affine map")
    n = len(pv)
    bijection = [None] * n
    for i, j in zip(_traversal(n, p_frame[0], p_frame[1], p_flipped),
                    _traversal(n, q_start, q_step, q_flipped)):
        bijection[i] = j
    # M, N: the difference rows of the two triples from p0 and q0; the
    # map is v -> ((v - p0) @ adj(M) @ N) / det(M) + q0, as in _attempt.
    (x0, y0), (x1, y1), (x2, y2) = p.vertices[:3]
    (u0, v0), (u1, v1), (u2, v2) = (q.vertices[j] for j in bijection[:3])
    a, b, c, d = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    e, f, g, h = u1 - u0, v1 - v0, u2 - u0, v2 - v0
    det = a * d - b * c
    rows = ((d * e - b * g, d * f - b * h), (a * g - c * e, a * h - c * f))
    shift = (det * u0 - x0 * rows[0][0] - y0 * rows[1][0],
             det * v0 - x0 * rows[0][1] - y0 * rows[1][1])
    return EquivalenceWitness(tuple(bijection), _map_over(rows, shift, det))


def decide(p, q, mode):
    """Witness of equivalence in `mode` (one of MODES), or NotEquivalent.

    Polygons are decided by canonical frames (`_by_frames`) in every
    mode, other dimensions by the vertex correspondence search."""
    _check_comparable(p, q, mode)
    if len(p.vertices) != len(q.vertices):
        return NotEquivalent("vertex counts differ")
    if p.dim == 2:
        return _by_frames(p, q, mode)
    pp, qp = _profile(p), _profile(q)
    if pp.direction_signature != qp.direction_signature:
        return NotEquivalent("primitive volume vectors differ as multisets")
    if mode != "affine":
        # With equal direction multisets, the volume vectors are equal as
        # multisets of |entries| exactly when their contents agree in size.
        if pp.content != qp.content:
            return NotEquivalent("volume vectors differ as multisets")
    elif p.dim >= 3 and (sorted(map(len, p._record[1]))
                         != sorted(map(len, q._record[1]))):
        # The octahedron and the prism agree in both volume vectors and
        # differ only here.  The other modes reject them by content, so
        # there the facet sizes would only cost the positive pairs.
        return NotEquivalent("facet sizes differ")
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
    # The constructor checked the vertices; from dimension 3 on, it kept w.
    w = p._record[0] if p.dim >= 3 else _volume_vector(p.vertices, p.dim)
    combo = next(c for c, e in zip(w.combinations(), w.entries) if e)
    images = permutations(range(n), p.dim + 1)
    return _search(p, q, mode, _solve_context(p.vertices, combo), images) \
        or NotEquivalent("exhausted all vertex correspondences")


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
    (either orientation), as a raw tuple in stored order: the cycle part
    of `_canonical_frame`, which the census and the growth key forms by."""
    return _canonical_frame(cycle)[0]


def _canonical_frame(cycle):
    """(form, flipped, frames): the smallest framed cycle of a convex
    lattice polygon's vertex cycle (either orientation), as a raw tuple
    in stored order, and the frames that yield it.

    `flipped` says whether `cycle` ran clockwise and was read reversed.
    The frame (start, step, ox, oy, xx, xy, yx, yy) reads the (reversed,
    if flipped) cycle c as c[start], c[start + step], ... (indices mod n,
    step +-1) and maps each p to (p - (ox, oy)) @ ((xx, xy), (yx, yy)),
    an integer matrix of determinant step, so that the k-th vertex read
    lands on form[k].  Every frame giving the form is returned, in the
    kernel's order: these are all the unimodular maps onto the form, each
    fixed by the least-length edge it sends to (0, 0) -> (g, 0).

    Each directed boundary edge is an anchor: its start goes to the
    origin, the edge to (g, 0) with g its lattice length, and the
    traversal's last vertex is reflected and sheared to (a, b) with
    0 <= a < b, so the cycle starts at its lex-least vertex and runs
    counterclockwise.  A clockwise cycle is reversed once, so forward
    frames keep the orientation, backward frames reflect, and no frame
    tests a sign.  Only anchors of least g are framed, both directions
    of an edge in one step, and vertex 2's image is taken in that same
    step: a frame is kept only while it ties the least image so far.
    From vertex 3 on, vertex k is mapped only for the frames still tied
    before it, and the one left is mapped in full.  Tied frames frame
    the same cycle, so the representative is the one a full comparison
    of all 2n framed cycles picks.
    """
    n = len(cycle)
    (x0, y0), (x1, y1), (x2, y2) = cycle[:3]
    flipped = (x1 - x0) * (y2 - y0) < (y1 - y0) * (x2 - x0)
    if flipped:
        cycle = cycle[::-1]
    # Indices into the doubled cycle need no modulo: a traversal reads
    # ring[start + step * k] with 0 <= start <= n, 0 <= k < n and step
    # +-1, and a negative index counts back from the end of the cycle.
    ring = cycle + cycle
    edges = [(qx - px, qy - py)
             for (px, py), (qx, qy) in zip(ring, ring[1:n + 1])]
    lengths = [gcd(ex, ey) for ex, ey in edges]
    g = min(lengths)
    # A frame traverses ring[start], ring[start + step], ... and maps
    # p to (p - o) @ ((xx, xy), (yx, yy)), o = ring[start].
    least = None
    for i, length in enumerate(lengths):
        if length != g:
            continue
        alpha, beta = edges[i][0] // g, edges[i][1] // g
        # Any Bezout pair u*alpha + v*beta = 1 will do: the shear below
        # makes each frame unique.
        if beta:
            u = pow(alpha, -1, abs(beta))
            v = (1 - u * alpha) // beta
        else:
            u, v = alpha, 0
        # p -> (p.(u, v), alpha*py - beta*px) has determinant 1 and
        # takes the edge e to (g, 0).  The edges a before e and b after
        # it turn left, so the previous vertex o - a lands at height
        # ha > 0 and the one after next, o + e + b, at height hb > 0.
        # The forward frame (origin o, last vertex o - a, vertex 2
        # o + e + b) shears by ta, which puts the last vertex's x in
        # [0, ha); the backward frame (origin o + e, step -1, last vertex
        # o + e + b, vertex 2 o - a) reflects by negating (u, v) and
        # shears by tb.  Vertex 2's x is g + pb - ta*hb forward and
        # g + pa - tb*ha backward; every frame shares the g, so the
        # images compared leave it out.
        (ax, ay), (bx, by) = edges[i - 1], edges[i + 1 - n]
        ha = ax * beta - ay * alpha
        hb = by * alpha - bx * beta
        pa = ax * u + ay * v
        pb = bx * u + by * v
        ta = -pa // ha
        tb = -pb // hb
        (ox, oy), (px, py) = ring[i], ring[i + 1]
        image = (pb - ta * hb, hb)
        if least is None or image < least:
            least = image
            frames = [(i, 1, ox, oy,
                       u + ta * beta, -beta, v - ta * alpha, alpha)]
        elif image == least:
            frames.append((i, 1, ox, oy,
                           u + ta * beta, -beta, v - ta * alpha, alpha))
        image = (pa - tb * ha, ha)
        if image < least:
            least = image
            frames = [(i + 1, -1, px, py,
                       tb * beta - u, -beta, -v - tb * alpha, alpha)]
        elif image == least:
            frames.append((i + 1, -1, px, py,
                           tb * beta - u, -beta, -v - tb * alpha, alpha))
    out = [(0, 0), (g, 0), (g + least[0], least[1])]
    k = 3
    while len(frames) > 1 and k < n:
        # One pass: the least image of vertex k and the frames tied on it.
        least = None
        for frame in frames:
            start, step, ox, oy, xx, xy, yx, yy = frame
            px, py = ring[start + step * k]
            px -= ox
            py -= oy
            image = (px * xx + py * yx, px * xy + py * yy)
            if least is None or image < least:
                least = image
                tied = [frame]
            elif image == least:
                tied.append(frame)
        out.append(least)
        frames = tied
        k += 1
    start, step, ox, oy, xx, xy, yx, yy = frames[0]
    for j in range(k, n):
        px, py = ring[start + step * j]
        px -= ox
        py -= oy
        out.append((px * xx + py * yx, px * xy + py * yy))
    return tuple(out), flipped, frames


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
    its minimal-volume image (`_least_image`), stored unchecked as in
    canonical_polygon.  An affine map between two polygons whose vertex
    differences generate Z^2 carries Z^2 onto Z^2, so it is unimodular;
    hence equal keys mean exactly affine equivalence."""
    if p.dim != 2:
        raise DimensionMismatch("affine_key expects a polygon")
    return _stored_polygon(_canonical_cycle(_least_image(p)))


def _form_key(form):
    """affine_key of a polygon already in canonical form, as the census
    holds them: a form that is its own minimal-volume image is its own
    canonical polygon, hence its own key, and is not framed again."""
    image = _least_image(form)
    if image is form.vertices:
        return form
    return _stored_polygon(_canonical_cycle(image))
