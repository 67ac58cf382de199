"""Core exact geometry: lattice polytopes, rational affine maps, regions.

All coordinates are Python ints (or Fractions where a map is involved),
so every predicate in this module is exact.  Points are row vectors and
affine maps act on the right: p -> p @ A + v.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import isqrt, lcm

from . import linalg
from .errors import DegenerateInput, DimensionMismatch


def _as_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise DegenerateInput(f"coordinates must be plain integers, got {x!r}")
    return x


def _point_tuples(points, what="points"):
    """The points as coordinate tuples, coordinates not yet checked."""
    try:
        return tuple(map(tuple, points))
    except TypeError:
        raise DegenerateInput(
            f"{what} {points!r} are not a sequence of "
            f"coordinate sequences") from None


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_cycle(points):
    """Strict convex hull of 2d points, counterclockwise, lex-least first.

    Returns only the vertices: points interior to the hull or interior to
    an edge are dropped.  Raises DegenerateInput if fewer than three
    distinct points remain or all points are collinear.
    """
    pts = sorted(set(points))
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 distinct points for a polygon")
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 3:
        raise DegenerateInput("points are collinear")
    return cycle


def _ccw_lex_least(cycle):
    """A convex polygon's vertex cycle in stored order: rotated to start
    at the lexicographically smallest vertex, and reversed if it then
    runs clockwise.  `cycle` is a tuple of the vertices in boundary
    order, either way round."""
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    if _cross(cycle[0], cycle[1], cycle[-1]) < 0:
        cycle = cycle[:1] + cycle[:0:-1]
    return cycle


def _is_convex_cycle(cycle):
    """True when the cycle turns strictly left at every vertex and its fan
    from cycle[0] does too: cross(c0, ci, ci+1) > 0 for i = 1..n-2.

    For a cycle starting at its lex-least vertex, every other vertex lies
    in the half plane lex-greater than c0, so the fan test puts them in
    strictly increasing angular order around c0, which makes the cycle
    simple; a simple cycle turning strictly left everywhere is strictly
    convex and counterclockwise.  A pentagram order turns left everywhere
    but fails the fan test."""
    (px, py), (qx, qy) = cycle[-2], cycle[-1]
    for rx, ry in cycle:
        if (qx - px) * (ry - qy) - (qy - py) * (rx - qx) <= 0:
            return False
        px, py, qx, qy = qx, qy, rx, ry
    (x0, y0), (x1, y1) = cycle[0], cycle[1]
    ax, ay = x1 - x0, y1 - y0
    for x, y in cycle[2:]:
        bx, by = x - x0, y - y0
        if ax * by - ay * bx <= 0:
            return False
        ax, ay = bx, by
    return True


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional lattice polytope given by its ordered vertex list.

    For dim == 2 the vertices are stored in the order `_ccw_lex_least`
    gives (counterclockwise from the lexicographically smallest one); the
    constructor accepts any rotation or reversal of that cycle and
    normalizes it.  The check is linear in the vertex count: the cycle in
    stored order must turn strictly left at every vertex, and so must its
    fan from the lex-least vertex.  Only a rejected cycle has its convex
    hull taken, to tell points out of strictly convex position from a
    wrong vertex order.  For dim 1 the vertices must be the segment's two
    endpoints, stored lesser first.  For dim >= 3 the list is stored as
    given and convex position is not verified.

    The census path stores cycles it built itself without this check,
    through `_stored_polygon`: in `enumerate_convex_polygons`,
    `_chunk_forms`, `_form_counts`, `build_volume_representatives` and
    `canonical_polygon` (its docstring names the test behind each).
    Every other construction runs it.
    """

    dim: int
    vertices: tuple

    def __post_init__(self):
        verts = _point_tuples(self.vertices, "vertices")
        if not all(type(c) is int for v in verts for c in v):
            verts = tuple(tuple(_as_int(c) for c in v) for v in verts)
        if type(self.dim) is not int or self.dim < 1:
            raise DegenerateInput("dimension must be an integer >= 1")
        for v in verts:
            if len(v) != self.dim:
                raise DimensionMismatch(
                    f"vertex {v} does not have {self.dim} coordinates")
        if len(set(verts)) != len(verts):
            raise DegenerateInput("duplicate vertices")
        if len(verts) < self.dim + 1:
            raise DegenerateInput("too few vertices to be full-dimensional")
        if self.dim == 1:
            if len(verts) != 2:
                raise DegenerateInput("a 1-dimensional polytope is a segment")
            verts = (min(verts), max(verts))
        elif self.dim == 2:
            cycle = _ccw_lex_least(verts)
            if not _is_convex_cycle(cycle):
                if len(_hull_cycle(verts)) != len(verts):
                    raise DegenerateInput("vertices are not in strictly convex position")
                raise DegenerateInput("vertex order is not a convex cycle")
            verts = cycle
        else:
            diffs = [linalg.vec_sub(v, verts[0]) for v in verts[1:]]
            if linalg.int_rank(diffs) != self.dim:
                raise DegenerateInput("vertices do not span the ambient space")
        object.__setattr__(self, "vertices", verts)

    def serialize(self):
        """Flat tuple of the vertex coordinates, in stored order."""
        return tuple(c for v in self.vertices for c in v)

    def bounding_box(self):
        lows = tuple(min(v[i] for v in self.vertices) for i in range(self.dim))
        highs = tuple(max(v[i] for v in self.vertices) for i in range(self.dim))
        return lows, highs

    def contains(self, point):
        if self.dim == 2:
            verts = self.vertices
            n = len(verts)
            for i in range(n):
                if _cross(verts[i], verts[(i + 1) % n], point) < 0:
                    return False
            return True
        if self.dim == 3:
            return all(linalg.vec_dot(normal, point) + offset <= 0
                       for normal, offset in _facet_inequalities_3d(self))
        raise DimensionMismatch("membership implemented for dim 2 and 3 only")


def _stored_polygon(cycle):
    """The polygon LatticePolytope(2, cycle), built without running its
    check: `vertices` is `cycle` itself.

    Precondition: `cycle` is a tuple of 2-tuples of plain ints, strictly
    convex and already in stored order (lex-least vertex first, then
    counterclockwise), so the check would pass and keep it unchanged.
    Every call site, with the test in tests/test_census.py that proves
    it meets this:
    - `enumerate_convex_polygons` and `_chunk_forms` (root-search
      cycles): test_root_search_emits_cycles_in_stored_order;
    - `canonical_polygon` and `_form_counts` (canonical cycles, also
      back from the pool): test_census_path_polygons_pass_the_check;
    - `build_volume_representatives` (grown canonical cycles, for their
      index only): test_grown_forms_pass_the_check.

    Call it by this name.  bench/tracing.py replaces `LatticePolytope`
    in the census and equivalence namespaces by a plain function, which
    has no `__new__` to build through."""
    p = object.__new__(LatticePolytope)
    object.__setattr__(p, "dim", 2)
    object.__setattr__(p, "vertices", cycle)
    return p


@dataclass(frozen=True)
class RationalAffineMap:
    """Invertible-or-not affine map p -> p @ matrix + translation."""

    matrix: tuple
    translation: tuple

    def __post_init__(self):
        m = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        t = tuple(Fraction(x) for x in self.translation)
        if len(m) != len(t) or any(len(row) != len(t) for row in m):
            raise DimensionMismatch("matrix and translation sizes disagree")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", t)

    @cached_property
    def determinant(self):
        """Exact determinant: the matrix scaled to integers by the lcm of
        its denominators, then divided by that lcm to the n-th power."""
        scale = lcm(*(x.denominator for row in self.matrix for x in row))
        rows = [[x.numerator * (scale // x.denominator) for x in row]
                for row in self.matrix]
        return Fraction(linalg.int_det(rows), scale ** len(rows))

    def apply(self, point):
        img = linalg.row_times_matrix(point, self.matrix)
        return tuple(x + t for x, t in zip(img, self.translation))

    def apply_polytope(self, p):
        imgs = [self.apply(v) for v in p.vertices]
        ints = []
        for img in imgs:
            if any(x.denominator != 1 for x in img):
                raise DegenerateInput("image is not a lattice polytope")
            ints.append(tuple(int(x) for x in img))
        return LatticePolytope(p.dim, tuple(ints))

    def then(self, other):
        """Composite map: apply self first, then other."""
        m = linalg.mat_mul(self.matrix, other.matrix)
        t = linalg.vec_add(linalg.row_times_matrix(self.translation, other.matrix),
                           other.translation)
        return RationalAffineMap(m, t)

    @property
    def is_integral(self):
        return (all(x.denominator == 1 for row in self.matrix for x in row)
                and all(x.denominator == 1 for x in self.translation))

    @property
    def is_unimodular(self):
        return self.is_integral and abs(self.determinant) == 1


_REGION_KINDS = ("ball", "box", "orthant-ball")


def _rational(value, name):
    """value as an exact Fraction, or DegenerateInput if Fraction cannot
    read it.  A float would be read at its binary value and a bool as 0
    or 1, so both are rejected."""
    if isinstance(value, (bool, float)):
        raise DegenerateInput(
            f"{name} must be an int or a Fraction, got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise DegenerateInput(
            f"{name} must be a rational number, got {value!r}") from None


@dataclass(frozen=True)
class Region:
    """Origin-anchored search region: a ball, a box [0, side]^d, or the
    nonnegative part of a ball.  Balls carry an exact squared radius."""

    kind: str
    size: Fraction     # squared radius for balls, side length for boxes
    dim: int = 2

    def __post_init__(self):
        if self.kind not in _REGION_KINDS:
            raise DegenerateInput(f"unknown region kind {self.kind!r}")
        size = _rational(self.size, "region size")
        if size < 0:
            raise DegenerateInput("region size must be nonnegative")
        if type(self.dim) is not int or self.dim < 1:
            raise DegenerateInput("region dimension must be an integer >= 1")
        object.__setattr__(self, "size", size)

    @staticmethod
    def _squared_radius(radius, radius_sq):
        if (radius is None) == (radius_sq is None):
            raise DegenerateInput("give exactly one of radius, radius_sq")
        if radius is not None:
            radius = _rational(radius, "radius")
            if radius < 0:
                raise DegenerateInput("radius must be nonnegative")
            return radius ** 2
        return _rational(radius_sq, "radius_sq")

    @classmethod
    def ball(cls, radius=None, *, radius_sq=None, dim=2):
        return cls("ball", cls._squared_radius(radius, radius_sq), dim)

    @classmethod
    def box(cls, side, dim=2):
        return cls("box", side, dim)

    @classmethod
    def orthant_ball(cls, radius=None, *, radius_sq=None, dim=2):
        return cls("orthant-ball", cls._squared_radius(radius, radius_sq), dim)

    def label(self):
        if self.kind == "box":
            s = self.size
        else:
            # show the radius when it is exact, else the squared radius
            root = isqrt(self.size.numerator)
            if self.size.denominator == 1 and root * root == self.size:
                s = root
            else:
                s = f"sqrt({self.size})"
        return f"{self.kind}:{s}"


def convex_hull_2d(points):
    """Strict convex hull of a 2d point set as a LatticePolytope."""
    pts = [tuple(_as_int(c) for c in p) for p in _point_tuples(points)]
    if any(len(p) != 2 for p in pts):
        raise DimensionMismatch("convex_hull_2d expects 2d points")
    return LatticePolytope(2, tuple(_hull_cycle(pts)))


def simplex_determinant(points):
    """Signed determinant of the simplex spanned by d+1 points in d-space.

    This is the determinant of the (d+1)x(d+1) matrix whose first row is
    all ones and whose columns are the points; it vanishes exactly when
    the points are affinely dependent and changes sign under swaps.
    """
    pts = [tuple(_as_int(x) for x in p) for p in _point_tuples(points)]
    if not pts:
        raise DegenerateInput("empty point set")
    d = len(pts[0])
    if len(pts) != d + 1 or any(len(p) != d for p in pts):
        raise DimensionMismatch("need d+1 points of dimension d")
    rows = [linalg.vec_sub(p, pts[0]) for p in pts[1:]]
    return linalg.int_det(rows)


def normalized_volume(p):
    """d! times the Euclidean volume, an exact positive integer.

    Computed by fan triangulation from the first vertex (dim 2), by the
    simplex determinant (any dimension, d+1 vertices), or by pyramids
    over facet triangulations (dim 3).
    """
    verts = p.vertices
    if len(verts) == p.dim + 1:
        return abs(simplex_determinant(verts))
    if p.dim == 2:
        v0 = verts[0]
        return sum(_cross(v0, verts[i], verts[i + 1])
                   for i in range(1, len(verts) - 1))
    if p.dim == 3:
        return _volume_3d(p)
    raise DimensionMismatch(
        "volume of a non-simplex is implemented for dim 2 and 3 only")


def dilate(p, k):
    """Scale every vertex by a positive integer."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DegenerateInput("dilation factor must be a positive integer")
    return LatticePolytope(
        p.dim, tuple(tuple(k * c for c in v) for v in p.vertices))


def _floor_sqrt(frac):
    # floor(sqrt(p/q)) for a nonnegative rational
    return isqrt(frac.numerator // frac.denominator)


def lattice_points(target):
    """Sorted list of all lattice points of a Region or a LatticePolytope."""
    if isinstance(target, Region):
        return _region_points(target)
    if isinstance(target, LatticePolytope):
        return _polytope_points(target)
    raise DegenerateInput(f"cannot enumerate lattice points of {target!r}")


def _region_points(region):
    d = region.dim
    if region.kind == "box":
        side = region.size.numerator // region.size.denominator
        return sorted(product(range(side + 1), repeat=d))
    r = _floor_sqrt(region.size)
    lo = 0 if region.kind == "orthant-ball" else -r
    ranges = [range(lo, r + 1)] * d
    out = [pt for pt in product(*ranges)
           if sum(c * c for c in pt) <= region.size]
    return sorted(out)


def _polytope_points(p):
    lows, highs = p.bounding_box()
    if p.dim in (2, 3):
        ranges = [range(lo, hi + 1) for lo, hi in zip(lows, highs)]
        return sorted(pt for pt in product(*ranges) if p.contains(pt))
    raise DimensionMismatch("lattice point enumeration needs dim 2 or 3")


def _facet_inequalities_3d(p):
    """All supporting facet inequalities (normal, offset) with
    normal . x + offset <= 0 over the polytope."""
    verts = p.vertices
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


def _volume_3d(p):
    verts = p.vertices
    apex = verts[0]
    total = 0
    for normal, offset in _facet_inequalities_3d(p):
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
