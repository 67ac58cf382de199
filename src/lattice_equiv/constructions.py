"""Doubled orthant-ball hulls with a one-step cap, and lattice shaving.

The base polytope is twice the convex hull of the nonnegative lattice
points of a ball.  Appending the half-integer cap next to its extreme
x-coordinate and doubling again adds exactly one new lattice point
column, which the report verifies against the expected two-case formula.
"""

from .caps import resolve
from .errors import DegenerateInput, DegenerateResult, DimensionMismatch
from .geometry import (
    Region,
    _Value,
    _int_points,
    _polygon_point_count,
    _polytope_points,
    _region_points,
    convex_hull_2d,
    dilate,
    lattice_points,
    normalized_volume,
)


class ConstructionReport(_Value):
    __slots__ = (
        "radius_sq",        # the quarter ball's squared radius, a Fraction
        "p",                # largest x over the quarter-ball lattice points
        "case",             # 1 if (p, 0) is alone on x = p, else 2
        "base",             # doubled quarter-ball hull, a LatticePolytope
        "augmented",        # base plus the doubled cap, a LatticePolytope
        "b",                # cap column: ((x, 0), (x, 1)) at x = 2p or 2p+1
        "volume_delta",
        "added_points",     # lattice points of augmented not in base
        "identity_holds",   # added_points == b without its first element
    )


def orthant_hull_construction(r=None, *, radius_sq=None, caps=None):
    """Build the doubled quarter-ball hull and its capped extension.

    The cap column sits at x = 2p when (p, 0) is the only lattice point
    of the hull on x = p (case 1), and at x = 2p + 1 when the points
    (p, 0) and (p, 1) are both present (case 2).  Non-integer radii are
    supported through their exact square.

    The quarter ball is listed under caps.hull_points, and the augmented
    hull, which contains the base, is counted against it by Pick's
    theorem before either hull is listed: above it the quarter ball
    raises RegionTooLarge, a CapExceeded (geometry._region_points), and
    the augmented hull CapExceeded (geometry._polygon_point_count).
    Both hulls are then listed under this cap too, not the environment's.
    """
    region = Region.orthant_ball(radius=r, radius_sq=radius_sq)
    if region.size < 1:
        raise DegenerateInput("construction needs radius at least 1")
    cap = resolve(caps).hull_points
    pts = _region_points(region, cap)
    base = dilate(convex_hull_2d(pts), 2)
    p = max(x for x, _ in pts)
    column = [pt for pt in pts if pt[0] == p]
    case = 1 if column == [(p, 0)] else 2
    anchor = 2 * p if case == 1 else 2 * p + 1
    b = ((anchor, 0), (anchor, 1))
    augmented = convex_hull_2d(base.vertices + b)
    _polygon_point_count(augmented, cap)
    base_points = set(_polytope_points(base, cap))
    added = tuple(
        pt for pt in _polytope_points(augmented, cap) if pt not in base_points)
    return ConstructionReport(
        radius_sq=region.size,
        p=p,
        case=case,
        base=base,
        augmented=augmented,
        b=b,
        volume_delta=normalized_volume(augmented) - normalized_volume(base),
        added_points=added,
        identity_holds=added == b[1:],
    )


def shave(q, w):
    """Remove the vertices `w` (2d points, checked by `_int_points`) from
    the polygon's points and retake the hull.  lattice_points lists them,
    so a polygon above the environment's caps.hull_points raises CapExceeded.

    Returns (polytope, normalized volume removed).  Removing the members
    of `w` one at a time, in any order, gives the same result, because a
    vertex never re-enters the hull of the remaining points.
    """
    if q.dim != 2:
        raise DimensionMismatch("shaving is implemented for polygons")
    doomed = set(_int_points(w, 2, "vertices")[0])
    if not doomed <= set(q.vertices):
        raise DegenerateInput("can only shave vertices of the polytope")
    if not doomed:
        return q, 0
    remaining = [pt for pt in lattice_points(q) if pt not in doomed]
    try:
        shaved = convex_hull_2d(remaining)
    except DegenerateInput as exc:
        raise DegenerateResult(
            "remainder is not full-dimensional") from exc
    return shaved, normalized_volume(q) - normalized_volume(shaved)
