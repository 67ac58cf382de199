"""Census experiments: enumerate convex lattice polygons in small regions
and count their unimodular and affine classes by normal form.

The enumerator is an anchored depth-first search.  Each polygon is
generated exactly once, rooted at its lexicographically smallest vertex:
the remaining vertices appear in counterclockwise order, so chains are
built over the root's later points, in their sorted order, with exact
integer turn tests.

The by-volume counts search no region: they grow every unimodular class
of bounded volume from the unimodular triangle, one lattice point at a
time (_growth_levels).  A point u added to a form Q adds to its volume
the sum of the triangles over the edges u sees, a convex piecewise-linear
function of u's x on each row, so each row is walked only over the
interval its edge half-planes leave in budget (geometry._interval, the
polytope listing's too), skipping ahead while over (_one_point_growths).
"""

from collections import Counter
from math import gcd

from .caps import resolve
# bench/tracing.py patches the names it traces here; keep them bound.
from .equivalence import (
    _canonical_cycle,
    _form_key,
    affine_equivalent,
    canonical_polygon,
)
from .errors import CapExceeded, DegenerateInput
from .geometry import (
    LatticePolytope,
    _Value,
    _capped_points,
    _interval,
    _stored_polygon,
    _whole,
    normalized_volume,
)
# No census code calls sublattice_info; bench/tracing.py still patches it.
from .lattices import _form_index, sublattice_info


class ClassCensus(_Value):
    __slots__ = (
        "region",
        "h",                 # polygons in the region
        "k",                 # unimodular classes among them
        "a",                 # affine classes among them
        "volume_histogram",  # sorted (normalized volume, polygon count) pairs
    )


class PrimitivityReport(_Value):
    __slots__ = (
        "region",
        "examined",          # polygons whose vertex differences span Z^2
        "counterexamples",   # always (): |content| equals the index
    )


class AffineMapCensus(_Value):
    __slots__ = (
        "region",
        "examined_pairs",
        "distinct_maps",
        "max_row_norm_sq",         # exact Fraction, or None if no witness
        "normalized_constant_sq",  # max_row_norm_sq / r**4 for balls
    )


def _root_polygons(points, root_index, max_vertices, first_edges=None):
    """All strictly convex polygons whose lex-least vertex is
    root = points[root_index], as counterclockwise vertex tuples (each
    already in LatticePolytope's stored order), in strictly increasing
    tuple order.  `points` is sorted.  With `first_edges`, only the
    polygons whose first edge vector cycle[1] - root is in it.

    Every later point is lex-greater than the root, so its direction
    from the root has x > 0, or x = 0 and y > 0: any two such directions
    are less than a half turn apart, and a positive fan cross(root, p, q)
    says q comes after p counterclockwise.  The fans along a chain are
    positive, so its directions strictly increase, and the turn at the
    root is always left: the only closing test is the left turn at the
    last vertex.  Children are walked in
    increasing point order and each chain is emitted before its
    extensions, so the cycles come out in increasing tuple order
    (tests/test_census.py::test_root_search_matches_reference_in_order).
    """
    rx, ry = root = points[root_index]
    later = points[root_index + 1:]
    # after[i]: the later points at a positive fan from later[i].
    after = [[j for j, (qx, qy) in enumerate(later)
              if (px - rx) * (qy - ry) - (py - ry) * (qx - rx) > 0]
             for px, py in later]
    out = []
    chain = [root]

    def extend(last):
        prev, tip = chain[-2], chain[-1]
        for j in after[last]:
            q = later[j]
            if ((tip[0] - prev[0]) * (q[1] - tip[1])
                    - (tip[1] - prev[1]) * (q[0] - tip[0])) <= 0:
                continue  # not a strict left turn at the chain tip
            chain.append(q)
            if ((q[0] - tip[0]) * (ry - q[1])
                    - (q[1] - tip[1]) * (rx - q[0])) > 0:
                out.append(tuple(chain))
            if max_vertices is None or len(chain) < max_vertices:
                extend(j)
            chain.pop()

    for i, p in enumerate(later):
        if first_edges is None or (p[0] - rx, p[1] - ry) in first_edges:
            chain.append(p)
            extend(i)
            chain.pop()
    return out


def enumerate_convex_polygons(region, max_vertices=None, *, caps=None):
    """Every full-dimensional convex polygon whose vertex set lies in the
    region's lattice points, each exactly once, sorted by (vertex count,
    vertex cycle).  Points interior to the hull or to an edge
    never count as vertices.  `max_vertices` is None or an integer >= 3
    (geometry._whole).  The region's points are listed under
    caps.region_points, RegionTooLarge at the (cap + 1)-th point
    (geometry._capped_points).
    The root search runs in the calling process; a census pool runs its
    own search instead (_share_forms).

    The roots are taken in sorted order and each root's cycles come out
    in increasing tuple order, so the concatenated cycles are already in
    tuple order and a stable sort by vertex count finishes the job.  The
    root search emits each cycle in LatticePolytope's stored order
    (tests/test_census.py::test_root_search_emits_cycles_in_stored_order),
    so the polygons are stored without the constructor's check.
    """
    if max_vertices is not None:
        _whole(max_vertices, 3, "max_vertices")
    pts = _capped_points(region, resolve(caps).region_points)
    cycles = [cycle for i in range(len(pts))
              for cycle in _root_polygons(pts, i, max_vertices)]
    cycles.sort(key=len)
    return [_stored_polygon(cycle) for cycle in cycles]


def _one_point_growths(cycle, volume, points, max_volume):
    """(cycle, normalized volume) of each polygon P = conv(Q + {u}) with
    volume <= max_volume and exactly one lattice point more than Q, where
    Q is the canonical cycle `cycle` of normalized volume `volume` with
    `points` lattice points.  P's cycle runs counterclockwise from some
    vertex; it is not reduced.

    For an edge e = (p, q) of Q, cross_e(u) = det(q - p, u - p) is twice
    the signed area of the triangle p, q, u.  The triangles over the
    edges that u sees (cross_e(u) < 0) tile P \\ Q, so P adds
    f(u) = sum_e max(0, -cross_e(u)) to Q's volume, and u is in budget
    when f(u) <= B = max_volume - volume.  Each term is at most f, so an
    in-budget u lies in every half-plane -cross_e(u) <= B.  Q starts
    (0, 0), (g, 0), so its bottom edge gives y >= -(B // g); the triangle
    (0, 0), (g, 0), u lies inside P, so g*y <= max_volume; and a
    horizontal top edge bounds y too.  On a row y, -cross_e is
    dy_e*x - c_e, linear in x, so the half-planes give an exact integer
    interval (geometry._interval), and f, a sum of maxima of linear
    functions, is convex and piecewise linear in x: its in-budget points
    form one run.  The walk starts at the interval's left end.  As f is
    convex, f(x + k) >= f(x) + k*s for k >= 0, s being f's right slope
    at x: over budget with s >= 0 the row has nothing left, and with
    s < 0 nothing is in budget before x + ceil((f(x) - B) / -s).  A
    point with f = 0 lies in Q; the next one outside ends Q's own
    interval on the row (budget 0).  After the run, f rises at the first
    point over budget, so s > 0 there and the row ends.  Rows and points
    are walked in increasing order, so the yields come out in (y, x) order.

    The edges of Q that u sees form one chain, and P is Q with that
    chain replaced by u; an endpoint of the chain collinear with u and
    its outer neighbour is no vertex of P.  The boundary count of P is
    Q's, less the chain's edges, plus the lattice lengths of the two
    edges to u, and Pick's theorem gives its lattice points as
    (vol + B)/2 + 1."""
    n = len(cycle)
    shifted = cycle[1:] + cycle[:1]
    lengths = [gcd(qx - px, qy - py)
               for (px, py), (qx, qy) in zip(cycle, shifted)]
    boundary = sum(lengths)
    budget = max_volume - volume
    # -cross_e(x, y) = dy*x - (dx*y + k) for the edge (dx, dy) from (px, py).
    edges = [(qx - px, qy - py, (qy - py) * px - (qx - px) * py)
             for (px, py), (qx, qy) in zip(cycle, shifted)]
    g = cycle[1][0]
    top = min(((budget + k) // -dx for dx, dy, k in edges
               if not dy and dx < 0), default=max_volume // g)
    for y in range(-(budget // g), min(top, max_volume // g) + 1):
        row = [(dx * y + k, dy) for dx, dy, k in edges]
        span = _interval(row, budget)
        x = span.start
        while x < span.stop:
            crosses = [c - dy * x for c, dy in row]
            added = -sum(c for c in crosses if c < 0)
            if added > budget:
                slope = sum(dy for cr, (_, dy) in zip(crosses, row)
                            if cr < 0 or cr == 0 < dy)
                if slope >= 0:
                    break  # f only grows from here
                # Skip ceil((added - budget) / -slope) points.
                x += (added - budget - slope - 1) // -slope
                continue
            if not added:
                x = _interval(row).stop
                continue  # u lies in Q: jump to the first point outside
            s = next(i for i in range(n) if crosses[i] < 0 <= crosses[i - 1])
            e = s
            while crosses[(e + 1) % n] < 0:
                e += 1
            (sx, sy), (ex, ey) = cycle[s], cycle[(e + 1) % n]
            new_boundary = (
                boundary + gcd(x - sx, y - sy) + gcd(x - ex, y - ey)
                - sum(lengths[i % n] for i in range(s, e + 1)))
            if volume + added + new_boundary == 2 * points:  # P gains only u
                kept = [cycle[(e + 1 + k) % n] for k in range(n - (e - s))]
                if crosses[s - 1] == 0:
                    kept.pop()
                if crosses[(e + 1) % n] == 0:
                    kept.pop(0)
                kept.append((x, y))
                yield tuple(kept), volume + added
            x += 1


def _growth_levels(max_volume):
    """Every unimodular class of normalized volume <= max_volume, by
    lattice-point count: levels[k] maps the canonical cycle (raw tuple)
    of each class with k + 3 lattice points to its normalized volume.

    Level 3 is the unimodular triangle, the only class with 3 points
    (Pick).  A convex lattice polygon P with m >= 4 lattice points has a
    vertex u such that the other m - 1 points still span the plane (if
    they are collinear, an end of their segment is such a vertex), so
    Q = conv(P's points less u) has m - 1 lattice points, volume below
    P's, and P = conv(Q + {u}); constructions.shave is this step.  Hence
    growing each canonical Q of level m - 1 by one point
    (_one_point_growths) reaches a unimodular image of every class of
    level m.  Growth after Koelman (1991) and Balletti, "Enumeration of
    lattice polytopes by their volume" (DCG 2021).  Integer arithmetic
    throughout; no search box: each Q is grown over the rows
    -(B // g) <= y <= max_volume // g, B = max_volume - vol(Q), and on
    each row only over the exact interval that Q's edge half-planes
    allow, walked in budget (see _one_point_growths)."""
    level = {((0, 0), (1, 0), (0, 1)): 1}
    levels = []
    points = 3
    while level:
        levels.append(level)
        grown = {}
        for cycle, volume in level.items():
            if volume < max_volume:
                for new, new_volume in _one_point_growths(
                        cycle, volume, points, max_volume):
                    grown[_canonical_cycle(new)] = new_volume
        level = grown
        points += 1
    return levels


def _share_forms(task):
    """Counter of the canonical cycles of the polygons on `points` whose
    first edge vector is in `share`, for a census pool task.  The points
    are moved to put each root at the origin, so the search emits
    root-relative cycles, the Counter merges each translation class, and
    each class is canonicalized once."""
    points, share = task
    share = set(share)
    classes = Counter()
    for i, (rx, ry) in enumerate(points):
        moved = tuple((x - rx, y - ry) for x, y in points[i:])
        classes.update(_root_polygons(moved, 0, None, share))
    forms = Counter()
    for cycle, n in classes.items():
        forms[_canonical_cycle(cycle)] += n
    return forms


def _form_counts(region, caps, workers):
    """The one stage that walks the region's polygons: a Counter mapping
    each canonical form to the number of polygons that reduce to it.
    census and primitivity_scan read only this, so every unimodular
    invariant they need is taken once per form, weighted by its count.

    `workers`, None or an integer >= 1 (geometry._whole), is checked
    first.  With one worker the enumerated polygons go straight to
    canonical_polygon, one call each.  Otherwise each task of the
    call's one pool gets the region's points and a strided share
    of their sorted lex-positive differences q - p, at most one share per
    point; a translation class fixes its first edge vector, so each falls
    in one share (_share_forms).  The Counters are merged in share order;
    no polygon or cycle crosses the pool.  The per-form work of census
    and primitivity_scan (index tests, affine keys) stays in the parent.
    A polygon is built once per distinct form.  The pool modules load
    here, on a process's first pooled census or scan, and nowhere else."""
    share_count = 0
    if workers is not None and _whole(workers, 1, "workers") > 1:
        points = _capped_points(region, resolve(caps).region_points)
        vectors = sorted({(qx - px, qy - py)
                          for i, (px, py) in enumerate(points)
                          for qx, qy in points[i + 1:]})
        share_count = min(workers, len(points), len(vectors))
    if share_count <= 1:
        # bench/tracing.py counts calls through these two names.
        polygons = enumerate_convex_polygons(region, caps=caps)
        counts = Counter(canonical_polygon(poly).vertices for poly in polygons)
    else:
        tasks = [(points, tuple(vectors[k::share_count]))
                 for k in range(share_count)]
        from concurrent.futures import ProcessPoolExecutor
        counts = Counter()
        with ProcessPoolExecutor(max_workers=share_count) as pool:
            for forms in pool.map(_share_forms, tasks):
                counts.update(forms)
    return Counter({_stored_polygon(form): n for form, n in counts.items()})


def census(region, *, caps=None, workers=None):
    """Counts (|H|, |K|, |A|): all polygons in the region, their
    unimodular classes (distinct canonical forms), and their affine
    classes (distinct affine keys).
    Normalized volume is a unimodular invariant, so the histogram adds
    each form's volume once, weighted by its polygon count.  `workers`
    sizes the call's one pool, which searches and canonicalizes; see
    _form_counts."""
    counts = _form_counts(region, caps, workers)
    keys = {_form_key(form) for form in counts}
    histogram = Counter()
    for form, n in counts.items():
        histogram[normalized_volume(form)] += n
    return ClassCensus(region, counts.total(), len(counts), len(keys),
                       tuple(sorted(histogram.items())))


def _check_size(value, caps, name):
    """Reject a volume unless it passes geometry._whole as an integer
    >= 1 and is at most caps.max_volume."""
    if _whole(value, 1, name) > caps.max_volume:
        raise CapExceeded(f"{name} {value} above cap {caps.max_volume}")


def _divisors(v):
    return [i for i in range(1, v + 1) if v % i == 0]


def classes_by_volume(volume, shape="all", *, caps=None):
    """Number of unimodular classes with the given normalized volume.

    shape="triangles" reduces the candidates (0,0), (g,0), (a,b) with
    g*b = volume and 0 <= a < b to their canonical cycles and counts the
    distinct ones.  shape="all" counts the classes of that volume among
    the forms grown one lattice point at a time (_growth_levels).  Both
    are exact and need no search box.
    """
    caps = resolve(caps)
    _check_size(volume, caps, "volume")
    if shape == "triangles":
        return len({_canonical_cycle(((0, 0), (g, 0), (a, volume // g)))
                    for g in _divisors(volume) for a in range(volume // g)})
    if shape != "all":
        raise DegenerateInput(f"unknown shape {shape!r}")
    return sum(v == volume for level in _growth_levels(volume)
               for v in level.values())


def build_volume_representatives(volume, *, caps=None):
    """Pairwise unimodular-inequivalent polytopes of normalized volume V,
    one per affine class with minimum volume V/i, over the divisors i,
    each found as a canonical index-1 form without pairwise search.

    One growth to V (_growth_levels) holds every class of volume V/i.
    The forms of index 1, whose vertex differences generate Z^2, are the
    classes that attain their minimum: an affine map between two of them
    is unimodular, so distinct forms are distinct affine classes.  The
    index is tested on the forms, not on the polygons: a unimodular map
    carries a polygon's difference lattice onto its form's, so both have
    the same index.  Applying the determinant-i embedding
    (x, y) -> (i*x, y) to an index-1 form of volume V/i yields volume V
    again.  Distinct divisors give distinct class minima, so the combined
    list stays pairwise non-equivalent.  Within a divisor the forms are
    sorted by (vertex count, vertex cycle).
    """
    caps = resolve(caps)
    _check_size(volume, caps, "volume")
    forms = {cycle: v for level in _growth_levels(volume)
             for cycle, v in level.items()}
    out = []
    for i in _divisors(volume):
        reps = sorted((cycle for cycle, v in forms.items()
                       if v == volume // i
                       and _form_index(cycle) == 1),
                      key=lambda cycle: (len(cycle), cycle))
        out.extend(LatticePolytope(2, tuple((i * x, y) for x, y in cycle))
                   for cycle in reps)
    return out


def primitivity_scan(region, *, caps=None, workers=None):
    """Count the polygons whose vertex differences generate all of Z^2,
    the ones that could have a volume vector of content larger than 1.
    None can: `counterexamples` is always (), and the field stays so that
    the report and the CLI document keep their shape.

    |content| equals the index: with vertices v_0, ..., v_n the index is
    the gcd of the 2x2 minors of the rows v_i - v_0, which are exactly
    the entries that contain vertex 0, and every other entry
    det(v_j - v_i, v_k - v_i) = det(v_j - v_0, v_k - v_0)
    - det(v_i - v_0, v_k - v_0) - det(v_j - v_0, v_i - v_0) is an integer
    combination of them.  A unimodular map carries a polygon's difference
    lattice onto its form's, so the index is taken once per canonical
    form, weighted by its polygon count.  `workers` sizes the pool, as
    in census."""
    counts = _form_counts(region, caps, workers)
    return PrimitivityReport(
        region, sum(n for form, n in counts.items()
                    if _form_index(form.vertices) == 1), ())


def affine_map_census(region, budget, *, caps=None):
    """Collect the distinct witness matrices over ordered polygon pairs
    of the region, up to `budget` pairs, with the largest squared row
    norm seen.  The distinct count is bounded by the number of ordered
    simplex pairs, since a witness matrix is determined by an anchor
    simplex and its image.  `budget` passes geometry._whole as an integer
    >= 1."""
    _whole(budget, 1, "budget")
    polys = enumerate_convex_polygons(region, caps=caps)
    examined = 0
    matrices = set()
    max_sq = None
    for first in polys:
        if examined >= budget:
            break
        for second in polys:
            if examined >= budget:
                break
            examined += 1
            witness = affine_equivalent(first, second)
            if witness:
                matrix = witness.map.matrix
                matrices.add(matrix)
                for row in matrix:
                    norm_sq = sum(x * x for x in row)
                    if max_sq is None or norm_sq > max_sq:
                        max_sq = norm_sq
    constant = None
    if max_sq is not None and region.kind != "box" and region.size:
        constant = max_sq / region.size ** 2
    return AffineMapCensus(region, examined, len(matrices), max_sq, constant)
