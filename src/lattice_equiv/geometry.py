"""Core exact geometry: lattice polytopes, rational affine maps, regions.

All coordinates are Python ints, and a map is ints over one denominator,
so every predicate in this module is exact.  Points are row vectors and
affine maps act on the right: p -> p @ A + v.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, compress, islice
from math import comb, gcd, isqrt, lcm

from . import linalg
from .errors import (
    CapExceeded, DegenerateInput, DimensionMismatch, RegionTooLarge)


def _whole(value, least, name):
    """`value`, once it is a plain int (not a bool or another subclass) of
    at least `least`: the one check of a count from outside the package,
    such as a dimension, a vertex or worker count, a volume or a cap."""
    if type(value) is not int or value < least:
        raise DegenerateInput(f"{name} must be an integer >= {least}")
    return value


def _exact(value, name):
    """`value` as a Fraction: the one check of a rational number from
    outside the package (a map entry, a region's size or radius).  A
    float, a bool, a string or a Decimal would be read inexactly or by
    guess, so only an int (not a bool) or a Fraction passes."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DegenerateInput(
            f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def _plain_ints(rows, what):
    """Refuse, with DegenerateInput, any entry of the rows that is not a
    plain int: a bool, float, Fraction, str or Decimal would be read
    inexactly or by guess; an int subclass is kept as given."""
    if not all(type(c) is int for row in rows for c in row):
        for c in chain.from_iterable(rows):
            if isinstance(c, bool) or not isinstance(c, int):
                raise DegenerateInput(
                    f"{what} must be plain integers, got {c!r}")


def _int_points(points, dim=None, what="points"):
    """The points as coordinate tuples, and their dimension: the one check
    of points from outside the package, a single point passed as (point,).

    Every coordinate must pass `_plain_ints`, and every point be `dim`
    long.  `dim`, taken from the first point when it is None, passes
    `_whole` as an integer >= 1.
    """
    try:
        pts = tuple(map(tuple, points))
    except TypeError:
        raise DegenerateInput(
            f"{what} {points!r} are not a sequence of "
            f"coordinate sequences") from None
    _plain_ints(pts, "coordinates")
    if dim is None:
        if not pts:
            raise DegenerateInput("empty point set")
        dim = len(pts[0])
    _whole(dim, 1, "dimension")
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatch(f"point {p} does not have {dim} coordinates")
    return pts, dim


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


class _Value:
    """Base of the library's immutable value classes.

    A subclass names its fields, in order, in `__slots__`; a slot whose
    name starts with an underscore (`_record`, `__weakref__`) is not a
    field, and equality, hashing, repr and pickling never see it.  The
    last fields may take defaults from a `_defaults` dict.  For each
    subclass the base compiles, as dataclasses would, an `__init__` taking
    the fields by position or keyword and then running the class's
    `__post_init__`, if it has one, and an `__eq__` (same class, equal
    fields in order) and a `__hash__` (that of the field tuple) that read
    the fields directly.  A class that writes its own `__init__` keeps it
    and gets the compiled one as `_fill`, which sets the fields unchecked.
    Assigning or deleting any attribute raises AttributeError, so
    `__post_init__` sets a field through `object.__setattr__`; pickle and
    copy rebuild a value through its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls._fields = tuple(
            name for name in cls.__slots__ if not name.startswith("_"))
        defaults = getattr(cls, "_defaults", {})
        own = "".join(f"self.{name}, " for name in fields)
        lines = ["def __eq__(self, other):",
                 " if other.__class__ is self.__class__:",
                 f"  return ({own}) == ({own.replace('self.', 'other.')})",
                 " return NotImplemented",
                 "def __hash__(self):",
                 f" return hash(({own}))"]
        init = "_fill" if "__init__" in vars(cls) else "__init__"
        lines.append("def {}(self, {}):".format(init, ", ".join(
            f"{name}=defaults[{name!r}]" if name in defaults else name
            for name in fields)))
        lines += [f" set_{name}(self, {name})" for name in fields]
        if init == "__init__" and hasattr(cls, "__post_init__"):
            lines.append(" self.__post_init__()")
        namespace = {f"set_{name}": getattr(cls, name).__set__
                     for name in fields}
        namespace["defaults"] = defaults
        exec("\n".join(lines), namespace)
        for name in ("__eq__", "__hash__", init):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, namespace[name])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class LatticePolytope(_Value):
    """Full-dimensional lattice polytope given by its ordered vertex list.

    The vertices and `dim` pass `_int_points`, then a shape check.  For
    dim == 2 the vertices are stored in the order `_ccw_lex_least` gives
    (counterclockwise from the lexicographically smallest one); the
    constructor accepts any rotation or reversal of that cycle and
    normalizes it.  The check is linear in the vertex count: the cycle in
    stored order must turn strictly left at every vertex, and so must its
    fan from the lex-least vertex.  Only a rejected cycle has its convex
    hull taken, to tell points out of strictly convex position from a
    wrong vertex order.  For dim 1 the vertices must be the segment's two
    endpoints, stored lesser first.  For dim >= 3 the list is stored as
    given once `_hull_of` finds that it spans space and that every point
    is a vertex, and the polytope keeps that hull's record in its
    `_record` slot: [volume vector, facets (the sorted vertex indices of
    each), half-spaces], the last None until `_half_spaces` fills it on
    first use.  The 3d
    `normalized_volume` reads the first two, the deciders the volume
    vector and the affine decider the facets.  A polygon or a segment
    leaves the slot unset.

    The census path stores cycles it built itself without this check,
    through `_stored_polygon`: in `enumerate_convex_polygons`, in
    `_form_counts`, `canonical_polygon` and `affine_key` (its docstring
    names the test behind each).  Every other construction runs it, the
    `shrink_to_minimal_volume` image included.

    Slotted, so the many polygons of a one-worker census carry no
    `__dict__`, and with no slot for weak references: nothing outside a
    polytope holds its derived data.  `_record` is a slot, not a field, so
    equality, hashing, repr and pickling see `dim` and `vertices` only;
    pickle and copy rebuild a polytope through the check.
    """

    __slots__ = ("dim", "vertices", "_record")

    def __post_init__(self):
        verts, _ = _int_points(self.vertices, self.dim, "vertices")
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
        object.__setattr__(self, "vertices", verts)
        if self.dim >= 3:
            volume, planes, corners = _hull_of(verts, self.dim)
            if len(corners) != len(verts):
                raise DegenerateInput("vertices are not in strictly convex position")
            object.__setattr__(
                self, "_record", [volume, planes, None])

    def serialize(self):
        """Flat tuple of the vertex coordinates, in stored order."""
        return tuple(c for v in self.vertices for c in v)

    def bounding_box(self):
        lows = tuple(min(v[i] for v in self.vertices) for i in range(self.dim))
        highs = tuple(max(v[i] for v in self.vertices) for i in range(self.dim))
        return lows, highs

    def contains(self, point):
        """Whether the polytope (dim 2 or 3) holds `point`, which passes
        `_int_points` like the vertices do."""
        (point,), _ = _int_points((point,), self.dim, "point")
        return all(linalg.vec_dot(normal, point) + offset <= 0
                   for normal, offset in _half_spaces(self))


# The unchecked builds' setters: the slots' own descriptors, bound once.
_set_dim = LatticePolytope.dim.__set__
_set_vertices = LatticePolytope.vertices.__set__
_set_record = LatticePolytope._record.__set__


def _stored_polygon(cycle):
    """The polygon LatticePolytope(2, cycle), built without running its
    check: `vertices` is `cycle` itself.

    Precondition: `cycle` is a tuple of 2-tuples of plain ints, strictly
    convex and already in stored order (lex-least vertex first, then
    counterclockwise), so the check would pass and keep it unchanged.
    Every call site, with the test in tests/test_census.py that proves
    it meets this:
    - `enumerate_convex_polygons` (root-search cycles):
      test_root_search_emits_cycles_in_stored_order;
    - `canonical_polygon`, `affine_key`, `_form_counts` (canonical
      cycles, also from the pool): test_census_path_polygons_pass_the_check.

    Call it by this name.  bench/tracing.py replaces `LatticePolytope`
    in the census and equivalence namespaces by a plain function, which
    has no `__new__` to build through.  The slots are set through their
    member descriptors' setters, bound once above, which skip the lookup
    by name that `object.__setattr__` makes on every call."""
    p = object.__new__(LatticePolytope)
    _set_dim(p, 2)
    _set_vertices(p, cycle)
    return p



class RationalAffineMap(_Value):
    """Affine map p -> p @ matrix + translation, held as ints over one
    denominator, p -> (p @ rows + shift) / den, with den > 0 and the gcd
    of den and every entry 1, so that equal maps have equal fields.  The
    Fraction `matrix`, `translation` and `determinant` are computed on
    each read, so equality, hashing and pickling see the ints only.  The
    constructor's entries pass `_exact`, as a region's size and radius
    do; the library builds its own maps from ints through `_map_over`,
    and so do pickle and copy."""

    __slots__ = ("rows", "shift", "den")

    def __init__(self, matrix, translation):
        m = [[_exact(x, "map entry") for x in row] for row in matrix]
        t = [_exact(x, "map entry") for x in translation]
        if len(m) != len(t) or any(len(row) != len(t) for row in m):
            raise DimensionMismatch("matrix and translation sizes disagree")
        # Over the lcm of their denominators, the entries are in lowest terms.
        den = lcm(*(x.denominator for x in chain(t, *m)))
        self._fill(tuple(tuple(int(x * den) for x in row) for row in m),
                   tuple(int(x * den) for x in t), den)

    def __reduce__(self):
        return _map_over, (self.rows, self.shift, self.den)

    @property
    def matrix(self):
        return tuple([tuple([Fraction(x, self.den) for x in row])
                      for row in self.rows])

    @property
    def translation(self):
        return tuple([Fraction(s, self.den) for s in self.shift])

    @property
    def determinant(self):
        return Fraction(linalg.int_det(self.rows), self.den ** len(self.rows))

    def _check_dim(self, dim, what):
        if dim != len(self.shift):
            raise DimensionMismatch(f"a map of dimension {len(self.shift)} "
                                    f"cannot {what} of dimension {dim}")

    def _scaled(self, point):
        return [x + s for x, s in zip(
            linalg.row_times_matrix(point, self.rows), self.shift)]

    def apply(self, point):
        """The image, as Fractions, of a lattice point that passes
        `_int_points` with the map's dimension."""
        (point,), _ = _int_points((point,), len(self.shift), "point")
        return tuple(Fraction(x, self.den) for x in self._scaled(point))

    def apply_polytope(self, p):
        self._check_dim(p.dim, "map a polytope")
        ints = []
        for img in map(self._scaled, p.vertices):
            if any(x % self.den for x in img):
                raise DegenerateInput("image is not a lattice polytope")
            ints.append(tuple(x // self.den for x in img))
        return LatticePolytope(p.dim, tuple(ints))

    def then(self, other):
        """Composite map: apply self first, then other."""
        other._check_dim(len(self.shift), "follow a map")
        moved = linalg.row_times_matrix(self.shift, other.rows)
        return _map_over(linalg.mat_mul(self.rows, other.rows), tuple(
            x + self.den * s for x, s in zip(moved, other.shift)),
            self.den * other.den)

    @property
    def is_integral(self):
        return self.den == 1

    @property
    def is_unimodular(self):
        return self.is_integral and abs(self.determinant) == 1


def _map_over(rows, shift, den):
    """The map p -> (p @ rows + shift) / den for a tuple of d tuples of d
    ints, a tuple of d ints and a nonzero int den, divided by their gcd
    with its sign: the library's one path from an integer solution to a
    map, with no Fraction and without the constructor's checks (tested
    in tests/test_equivalence.py: *_maps_equal_the_publicly_built_maps)."""
    g = gcd(den, *shift, *chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g != 1:
        rows = tuple([tuple([x // g for x in row]) for row in rows])
        shift, den = tuple([s // g for s in shift]), den // g
    m = object.__new__(RationalAffineMap)
    m._fill(rows, shift, den)
    return m


_REGION_KINDS = ("ball", "box", "orthant-ball")


class Region(_Value):
    """Origin-anchored search region: a ball, a box [0, side]^d, or the
    nonnegative part of a ball, of exact size (`_exact`, as map entries;
    a ball's is its squared radius, a box's its side length) and
    dimension (`_whole`, 2 by default)."""

    __slots__ = ("kind", "size", "dim")
    _defaults = {"dim": 2}

    def __post_init__(self):
        if self.kind not in _REGION_KINDS:
            raise DegenerateInput(f"unknown region kind {self.kind!r}")
        size = _exact(self.size, "region size")
        if size < 0:
            raise DegenerateInput("region size must be nonnegative")
        _whole(self.dim, 1, "region dimension")
        object.__setattr__(self, "size", size)

    @staticmethod
    def _squared_radius(radius, radius_sq):
        if (radius is None) == (radius_sq is None):
            raise DegenerateInput("give exactly one of radius, radius_sq")
        if radius is not None:
            radius = _exact(radius, "radius")
            if radius < 0:
                raise DegenerateInput("radius must be nonnegative")
            return radius ** 2
        return _exact(radius_sq, "radius_sq")

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
            root = Fraction(isqrt(self.size.numerator),
                            isqrt(self.size.denominator))
            s = root if root * root == self.size else f"sqrt({self.size})"
        return f"{self.kind}:{s}"


def convex_hull_2d(points):
    """Strict convex hull of a 2d point set as a LatticePolytope."""
    pts, _ = _int_points(points, 2)
    return LatticePolytope(2, tuple(_hull_cycle(pts)))


def simplex_determinant(points):
    """Signed determinant of the simplex spanned by d+1 points in d-space.

    This is the determinant of the (d+1)x(d+1) matrix whose first row is
    all ones and whose columns are the points; it vanishes exactly when
    the points are affinely dependent and changes sign under swaps.
    """
    pts, d = _int_points(points)
    if len(pts) != d + 1:
        raise DimensionMismatch("need d+1 points of dimension d")
    rows = [linalg.vec_sub(p, pts[0]) for p in pts[1:]]
    return linalg.int_det(rows)


def normalized_volume(p):
    """d! times the Euclidean volume, an exact positive integer.

    Computed by fan triangulation from the first vertex (dim 2), by the
    simplex determinant (other dimensions, d+1 vertices), or (dim 3) as
    entries of the volume vector in the polytope's `_record`: vertex 0
    over the fan of each facet without it from the facet's first vertex,
    along its edges (pairs of its vertices on a second facet).  Each
    entry is read at the lex rank of its sorted index quadruple, a sum of
    binomial coefficients, so no table of positions is built or kept."""
    verts = p.vertices
    if p.dim == 2:
        v0 = verts[0]
        return sum(_cross(v0, verts[i], verts[i + 1])
                   for i in range(1, len(verts) - 1))
    if len(verts) == p.dim + 1:
        return abs(simplex_determinant(verts))
    if p.dim == 3:
        volume, planes = p._record[:2]
        entries, last = volume.entries, len(verts) - 1
        edges = Counter(chain.from_iterable(
            combinations(on, 2) for on in planes))
        # Among the 4-subsets of range(n) in lex order, the sorted
        # (c0, c1, c2, c3) has rank C(n, 4) - 1 - sum_i C(n - 1 - ci, 4 - i);
        # with c0 = 0, C(n, 4) - C(n - 1, 4) leaves C(n - 1, 3).
        top = comb(last, 3) - 1
        return sum(abs(entries[top - comb(last - apex, 3)
                               - comb(last - a, 2) - (last - b)])
                   for apex, *rest in planes if apex
                   for a, b in combinations(rest, 2) if edges[a, b] == 2)
    raise DimensionMismatch(
        "volume of a non-simplex is implemented for dim 2 and 3 only")


def dilate(p, k):
    """Scale every vertex by an integer k >= 1 (`_whole`)."""
    _whole(k, 1, "dilation factor")
    return LatticePolytope(
        p.dim, tuple(tuple(k * c for c in v) for v in p.vertices))


def lattice_points(target):
    """Sorted list of all lattice points of a Region or a LatticePolytope,
    held to the environment's caps.hull_points: above it a Region raises
    RegionTooLarge at its (cap + 1)-th point, a polygon CapExceeded by
    Pick's theorem before any point is listed, and a 3d polytope
    CapExceeded at its (cap + 1)-th point.  A polytope is listed row by
    row (`_polytope_points`), so a thin polygon costs its points, not its
    bounding box."""
    if not isinstance(target, (Region, LatticePolytope)):
        raise DegenerateInput(f"cannot enumerate lattice points of {target!r}")
    # caps imports geometry (for _whole), so geometry imports caps here.
    from .caps import Caps
    cap = Caps.from_env().hull_points
    if isinstance(target, Region):
        return _region_points(target, cap)
    if target.dim == 2:
        _polygon_point_count(target, cap)
    return _polytope_points(target, cap)


def _region_points(region, cap):
    """The sorted lattice points of a region, in any dimension: the one
    listing of a region, which is its own count, RegionTooLarge (a
    CapExceeded) at the (cap + 1)-th point.  Each coordinate in turn runs
    over the range the earlier ones leave it: 0..floor(side) in a box,
    |x| <= isqrt(room) in a ball (x >= 0 in an orthant ball), room being
    the floor of the squared radius less the squares so far.  Every
    prefix extends to a point, so no level outgrows the listing."""
    n = region.size.numerator // region.size.denominator

    def values(room):
        if region.kind == "box":
            return range(n + 1)
        r = isqrt(room)
        return range(0 if region.kind == "orthant-ball" else -r, r + 1)

    level = [((), n)]
    for _ in range(region.dim):
        grown = ((prefix + (x,), room - x * x)
                 for prefix, room in level for x in values(room))
        level = list(islice(grown, cap + 1))
        if len(level) > cap:
            raise RegionTooLarge(
                f"{region.label()} has more lattice points than the cap {cap}")
    return [point for point, _ in level]


def _capped_points(region, cap):
    """The sorted lattice points of a 2d region, as a tuple, for the
    census: _region_points under its cap, behind the census's check that
    the region is planar."""
    if region.dim != 2:
        raise DimensionMismatch("polygon enumeration requires dimension 2")
    return tuple(_region_points(region, cap))


def _polygon_point_count(p, cap):
    """The number of lattice points of a polygon, by Pick's theorem,
    without listing them: (normalized volume + boundary points) / 2 + 1.
    CapExceeded above `cap`."""
    verts = p.vertices
    boundary = sum(gcd(qx - px, qy - py) for (px, py), (qx, qy)
                   in zip(verts, verts[1:] + verts[:1]))
    count = (normalized_volume(p) + boundary) // 2 + 1
    if count > cap:
        raise CapExceeded(
            f"the polygon has {count} lattice points, above the cap {cap}")
    return count


def _interval(terms, budget=0):
    """The range of integers t with d*t - c <= budget for every term
    (c, d), empty if a term with d == 0 fails; `terms` must hold a term
    with d < 0 and one with d > 0."""
    lows, highs = [], []
    for c, d in terms:
        if d > 0:
            highs.append((c + budget) // d)
        elif d < 0:
            lows.append(-((c + budget) // -d))
        elif c + budget < 0:
            return range(0)
    return range(max(lows), min(highs) + 1)


def _edge_half_spaces(cycle):
    """The (normal, offset) pairs, one per edge, whose
    normal . x + offset <= 0 cut out the polygon with the counterclockwise
    vertex cycle `cycle`."""
    return [((qy - py, px - qx), (qx - px) * py - (qy - py) * px)
            for (px, py), (qx, qy) in zip(cycle, cycle[1:] + cycle[:1])]


def _half_spaces(p):
    """The (normal, offset) pairs whose normal . x + offset <= 0 cut out a
    polygon (one per edge) or a 3d polytope (one per facet of its
    `_record`: the normal of its first three vertices, never collinear in
    a facet of vertices, turned toward a vertex off it; built on first
    use and kept in the record)."""
    verts = p.vertices
    if p.dim == 2:
        return _edge_half_spaces(verts)
    if p.dim != 3:
        raise DimensionMismatch("membership and listing need dim 2 or 3")
    record = p._record
    if record[2] is None:
        record[2] = halves = []
        for on in record[1]:
            i, j, k = on[:3]
            normal = linalg.primitive_normal(
                (linalg.vec_sub(verts[j], verts[i]),
                 linalg.vec_sub(verts[k], verts[i])))
            offset = -linalg.vec_dot(normal, verts[i])
            off = next(v for l, v in enumerate(verts) if l not in on)
            s = -1 if linalg.vec_dot(normal, off) + offset > 0 else 1
            halves.append((tuple(s * c for c in normal), s * offset))
    return record[2]


def _lift(prefixes, halves):
    """Each prefix, in order, followed by every integer of the last
    coordinate that the half-spaces leave it: a lazy, sorted listing when
    the prefixes come sorted."""
    for prefix in prefixes:
        for t in _interval(
                [(-linalg.vec_dot(normal[:-1], prefix) - offset, normal[-1])
                 for normal, offset in halves]):
            yield prefix + (t,)


def _polygon_points(cycle):
    """The lattice points of the polygon with the counterclockwise vertex
    cycle `cycle`, lazily, row by row above its first edge.  With w = (a, b)
    that edge's primitive direction, g its lattice length, o = cycle[0]
    and ua + vb = 1, the unimodular p -> (t, s) = (det(w, p - o),
    (p - o).(u, v)) lays the edge on the row t = 0.  The rows run to the
    polygon's lattice height over that edge, at most its normalized volume
    over g, so the time follows the point count (Pick), not the width.
    Each row is lifted by its edges and mapped back by p = o + s*w +
    t*(-v, u): the points come in row order, not sorted."""
    (ox, oy), (x1, y1) = cycle[:2]
    g = gcd(x1 - ox, y1 - oy)
    a, b = (x1 - ox) // g, (y1 - oy) // g
    _, u, v = linalg.egcd(a, b)
    # The map has determinant -1, so the reversed cycle's image runs
    # counterclockwise.
    image = [(a * (y - oy) - b * (x - ox), u * (x - ox) + v * (y - oy))
             for x, y in reversed(cycle)]
    rows = range(max(t for t, _ in image) + 1)
    return ((ox + s * a - t * v, oy + s * b + t * u)
            for t, s in _lift(((t,) for t in rows), _edge_half_spaces(image)))


def _polytope_points(p, cap):
    """The sorted lattice points of a polygon or a 3d polytope, row by
    row: a polygon's rows lie above its first edge (`_polygon_points`),
    and a 3d polytope's (x, y) run over the lattice points of its (x, y)
    shadow, the hull of its projected vertices, each lifted by the
    _interval of z that the _half_spaces (read once) leave.  A thin
    polygon costs its points, not its bounding box, and a thin 3d
    polytope its shadow's.  The at most `cap` points listed are sorted;
    CapExceeded at point cap + 1."""
    if p.dim == 2:
        points = _polygon_points(p.vertices)
    else:
        halves = _half_spaces(p)  # DimensionMismatch unless dim 3
        shadow = _hull_cycle({v[:2] for v in p.vertices})
        points = _lift(_polygon_points(shadow), halves)
    listed = list(islice(points, cap + 1))
    if len(listed) > cap:
        raise CapExceeded(
            f"the polytope has more lattice points than the cap {cap}")
    return sorted(listed)


def _hull_of(points, d):
    """(volume, facets, vertices) of a tuple of n distinct points in
    dimension d >= 3 that have passed `_int_points` (the constructor,
    which keeps the first two in the polytope's `_record`, and
    `cli.parse_polytope` check them first): their `VolumeVector`, its
    `invariants.facets`, and the vertex indices by the meet rule: i is a
    vertex exactly when the point sets of the facets through i meet in
    {i} (through an interior point none pass, and they meet in every
    point).  DegenerateInput when the volume vector is zero, as it is for
    fewer than d + 1 points."""
    # invariants imports geometry, so geometry imports invariants here.
    from .invariants import _volume_vector, facets
    try:
        volume = _volume_vector(points, d)
    except DegenerateInput:
        raise DegenerateInput("vertices do not span the ambient space") from None
    n = volume.n
    planes, every = facets(volume.entries, n, d), set(range(n))
    return volume, planes, {i for i in every if len(every.intersection(
        *(on for on in planes if i in on))) == 1}


def _hull_polytope(points, d):
    """The LatticePolytope of the vertices of the hull of `points`, in
    their order: distinct points in dimension d >= 3 that have passed
    `_int_points` (`cli.parse_polytope`'s hull), whose record is the one
    `_hull_of`, as the constructor's would be.  When a point is not a
    vertex, the kept vertices' entries are those at index tuples of kept
    points alone, and their facets the facets re-indexed to them."""
    volume, planes, corners = _hull_of(points, d)
    if len(corners) < len(points):
        # invariants imports geometry, so geometry imports invariants here.
        from .invariants import VolumeVector, index_combinations
        new = {old: i for i, old in enumerate(sorted(corners))}
        volume = VolumeVector(len(new), d, tuple(compress(volume.entries, map(
            corners.issuperset, index_combinations(len(points), d + 1)))))
        planes = tuple(tuple(new[i] for i in on if i in new) for on in planes)
        points = tuple(points[i] for i in new)
    p = object.__new__(LatticePolytope)
    _set_dim(p, d)
    _set_vertices(p, points)
    _set_record(p, [volume, planes, None])
    return p
