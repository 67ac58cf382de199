"""Census experiments: enumerate convex lattice polygons in small regions
and count their unimodular and affine classes by normal form.

The enumerator is an anchored depth-first search.  Each polygon is
generated exactly once, rooted at its lexicographically smallest vertex:
the remaining vertices appear in counterclockwise order, which as seen
from the root is strictly increasing angular order, so chains are built
over an angle-sorted candidate list with exact integer turn tests.  At
each chain tip the later candidates are tried least fan first (the
normalized volume of the triangle they add at the root), so a
volume-budgeted search stops at the first one over budget.
"""

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from math import gcd

from .caps import resolve
# bench/tracing.py patches the names it traces here; keep them bound.
from .equivalence import (
    _canonical_cycle,
    affine_equivalent,
    affine_key,
    canonical_polygon,
)
from .errors import (
    CapExceeded,
    DegenerateInput,
    DimensionMismatch,
    RegionTooLarge,
)
from .geometry import (
    LatticePolytope,
    Region,
    _stored_polygon,
    lattice_points,
    normalized_volume,
)
from .invariants import primitive_decomposition, volume_vector
from .lattices import sublattice_info


@dataclass(frozen=True)
class ClassCensus:
    region: Region
    h: int  # polygons in the region
    k: int  # unimodular classes among them
    a: int  # affine classes among them
    volume_histogram: tuple  # sorted (normalized volume, polygon count) pairs


@dataclass(frozen=True)
class PrimitivityReport:
    region: Region
    examined: int            # polygons whose vertex differences span Z^2
    counterexamples: tuple   # those among them with volume-vector content > 1


@dataclass(frozen=True)
class AffineMapCensus:
    region: Region
    examined_pairs: int
    distinct_maps: int
    max_row_norm_sq: object        # exact Fraction, or None if no witness
    normalized_constant_sq: object  # max_row_norm_sq / r**4 for balls


def _angle_sorted(root, points):
    """(direction, point) pairs sorted counterclockwise around the root,
    nearer point first on a shared ray.  All inputs are lex-greater than
    the root, so every direction lies in the right half plane and the
    cross-product comparison is a total order on rays."""
    items = [((q[0] - root[0], q[1] - root[1]), q) for q in points]

    def compare(a, b):
        (ax, ay), _ = a
        (bx, by), _ = b
        c = ax * by - ay * bx
        if c:
            return -1 if c > 0 else 1
        return (ax * ax + ay * ay) - (bx * bx + by * by)

    return sorted(items, key=cmp_to_key(compare))


def _root_polygons(points, root_index, max_vertices, max_volume):
    """All strictly convex polygons whose lex-least vertex is
    points[root_index], as counterclockwise vertex tuples (each already
    in LatticePolytope's stored order).  With a volume budget only the
    polygons of normalized volume exactly max_volume are emitted.

    The children of a chain tip are scanned least fan triangle first, so
    a budgeted scan stops at the first one that overshoots.  A tip still
    visits the same children as an angle-ordered scan, only in another
    order, so each root emits the same multiset of cycles."""
    v0 = points[root_index]
    cands = _angle_sorted(v0, points[root_index + 1:])
    dirs = [c[0] for c in cands]
    pos = [c[1] for c in cands]
    m = len(cands)
    # after[i]: the (fan, j) pairs with j > i, fan the normalized volume
    # of the triangle (root, pos[i], pos[j]), positive and within budget.
    after = []
    for i, (ax, ay) in enumerate(dirs):
        fans = [(ax * by - ay * bx, j)
                for j, (bx, by) in enumerate(dirs[i + 1:], i + 1)]
        after.append(sorted(f for f in fans if f[0] > 0 and (
            max_volume is None or f[0] <= max_volume)))
    out = []
    chain = [v0]

    def extend(last, partial):
        tip = chain[-1]
        prev = chain[-2]
        for fan, j in after[last]:
            vol = partial + fan
            if max_volume is not None and vol > max_volume:
                break  # every later child has at least this fan
            pj = pos[j]
            if ((tip[0] - prev[0]) * (pj[1] - tip[1])
                    - (tip[1] - prev[1]) * (pj[0] - tip[0])) <= 0:
                continue  # not a strict left turn at the chain tip
            close_tip = ((pj[0] - tip[0]) * (v0[1] - pj[1])
                         - (pj[1] - tip[1]) * (v0[0] - pj[0]))
            close_root = ((v0[0] - pj[0]) * (chain[1][1] - v0[1])
                          - (v0[1] - pj[1]) * (chain[1][0] - v0[0]))
            chain.append(pj)
            if close_tip > 0 and close_root > 0 and (
                    max_volume is None or vol == max_volume):
                out.append(tuple(chain))
            if (max_vertices is None or len(chain) < max_vertices) and (
                    max_volume is None or vol < max_volume):
                extend(j, vol)
            chain.pop()

    for i in range(m):
        chain.append(pos[i])
        extend(i, 0)
        chain.pop()
    return out


def _root_worker(task):
    return _root_polygons(*task)


def _map(fn, tasks, workers):
    """[fn(t) for t in tasks], in task order: inline for one worker, else
    through a process pool of at most one worker per task."""
    workers = min(workers or 1, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def enumerate_convex_polygons(region, max_vertices=None, *, caps=None,
                              workers=None):
    """Every full-dimensional convex polygon whose vertex set lies in the
    region's lattice points, each exactly once, sorted by (vertex count,
    vertex cycle).  Points interior to the hull or to an edge
    never count as vertices.  The root branches are independent, so they
    are distributed over worker processes (one task per lattice point,
    hence at most one worker per point) without changing the output.

    The root search emits each cycle in LatticePolytope's stored order
    (tests/test_census.py::test_root_search_emits_cycles_in_stored_order),
    so the polygons are stored without the constructor's check.
    """
    if region.dim != 2:
        raise DimensionMismatch("polygon enumeration requires dimension 2")
    if max_vertices is not None and (
            type(max_vertices) is not int or max_vertices < 3):
        raise DegenerateInput("max_vertices must be None or an integer >= 3")
    if workers is not None and (type(workers) is not int or workers < 1):
        raise DegenerateInput("workers must be None or an integer >= 1")
    caps = resolve(caps)
    pts = tuple(lattice_points(region))
    if len(pts) > caps.region_points:
        raise RegionTooLarge(
            f"{region.label()} has {len(pts)} lattice points, "
            f"cap is {caps.region_points}")
    tasks = [(pts, i, max_vertices, None) for i in range(len(pts))]
    chunks = _map(_root_worker, tasks, workers)
    polys = [_stored_polygon(verts) for chunk in chunks for verts in chunk]
    polys.sort(key=lambda p: (len(p.vertices), p.vertices))
    return polys


def _volume_forms(side, volume):
    """Canonical cycles (raw tuples) of the polygons with vertices in
    [0, side]^2 and normalized volume exactly `volume`, via the budgeted
    root search (no region-size cap: the volume budget prunes the tree).
    The search emits strictly convex vertex cycles, so they are
    canonicalized without building a polygon.

    Two reductions leave the set of forms unchanged, because a form does
    not depend on translation:
    - Roots are only the points with x == 0.  A polygon with lex-least
      vertex (x0, y0) has every vertex at x >= x0, so its translate by
      (-x0, 0) lies in the same box and is rooted at (0, y0).
    - Each cycle is translated so that its first vertex is the origin,
      and each distinct translate is canonicalized once.  A translate
      keeps the stored order: the first vertex stays lex-least and the
      orientation counterclockwise."""
    pts = lattice_points(Region.box(side))
    translates = {tuple((x - x0, y - y0) for x, y in cycle)
                  for i, (x0, y0) in enumerate(pts) if x0 == 0
                  for cycle in _root_polygons(pts, i, None, volume)}
    return {_canonical_cycle(cycle) for cycle in translates}


def _chunk_forms(cycles):
    """Counter of the canonical cycles of some root-search cycles, each
    canonicalized through this module's name canonical_polygon."""
    return Counter(canonical_polygon(_stored_polygon(cycle)).vertices
                   for cycle in cycles)


def _form_counts(region, caps, workers):
    """The one stage that walks the region's polygons: a Counter mapping
    each canonical form to the number of polygons that reduce to it.
    census and primitivity_scan read only this, so every unimodular
    invariant they need is taken once per form, weighted by its count.

    Both the root search and the canonicalization run in the worker
    pool; the per-form work of census and primitivity_scan (index tests,
    affine keys) stays in the parent.  The polygons' raw cycles (cheaper
    to send than polygons) are dealt into strided chunks, at most one per
    lattice point of the region; each chunk comes back as a Counter
    (smaller than its list of forms), and the Counters are merged in
    chunk order.  A polygon is built once per distinct form."""
    cycles = [poly.vertices for poly in
              enumerate_convex_polygons(region, caps=caps, workers=workers)]
    chunk_count = min(workers or 1, len(lattice_points(region)), len(cycles))
    counts = Counter()
    for chunk in _map(_chunk_forms, [cycles[k::chunk_count]
                                     for k in range(chunk_count)], workers):
        counts.update(chunk)
    return Counter({_stored_polygon(form): n for form, n in counts.items()})


def _form_index(form):
    """sublattice_info(form).index for a canonical form.  The form starts
    at the origin, so its vertex differences are its vertices, and the
    index of the lattice they generate is the gcd of the 2x2 minors
    det(v_i, v_j), as in primitivity_scan's docstring."""
    return gcd(*(x1 * y2 - y1 * x2 for (x1, y1), (x2, y2)
                 in combinations(form.vertices[1:], 2)))


def census(region, *, caps=None, workers=None):
    """Counts (|H|, |K|, |A|): all polygons in the region, their
    unimodular classes (distinct canonical forms), and their affine
    classes (distinct affine keys; an index-1 form is its own key).
    Normalized volume is a unimodular invariant, so the histogram adds
    each form's volume once, weighted by its polygon count."""
    counts = _form_counts(region, caps, workers)
    keys = {form if _form_index(form) == 1 else affine_key(form)
            for form in counts}
    histogram = Counter()
    for form, n in counts.items():
        histogram[normalized_volume(form)] += n
    return ClassCensus(region, counts.total(), len(counts), len(keys),
                       tuple(sorted(histogram.items())))


def _check_size(value, caps, name, capped_name=None):
    """Reject a volume or box side unless it is a plain int (not a bool)
    in [1, caps.max_volume]."""
    if type(value) is not int or value < 1:
        raise DegenerateInput(f"{name} must be a positive integer")
    if value > caps.max_volume:
        raise CapExceeded(
            f"{capped_name or name} {value} above cap {caps.max_volume}")


def _divisors(v):
    return [i for i in range(1, v + 1) if v % i == 0]


def classes_by_volume(volume, shape="all", search_box_side=None, *, caps=None):
    """Number of unimodular classes with the given normalized volume.

    shape="triangles" reduces the candidates (0,0), (g,0), (a,b) with
    g*b = volume and 0 <= a < b to their canonical cycles and counts the
    distinct ones; this is exact and needs no search box.  shape="all"
    searches the box [0, side]^2 (default side = volume) and counts
    canonical forms, so it is exact only for classes that have a member
    in that box.
    """
    caps = resolve(caps)
    _check_size(volume, caps, "volume")
    if shape == "triangles":
        return len({_canonical_cycle(((0, 0), (g, 0), (a, volume // g)))
                    for g in _divisors(volume) for a in range(volume // g)})
    if shape != "all":
        raise DegenerateInput(f"unknown shape {shape!r}")
    side = volume if search_box_side is None else search_box_side
    _check_size(side, caps, "search box side", "box side")
    return len(_volume_forms(side, volume))


def _minimal_volume_class_reps(volume):
    """Canonical representatives, one per affine class, of the polygons
    with normalized volume `volume` whose vertex differences already
    generate Z^2 (so the class minimum is attained).  Searched within
    the box [0, volume]^2.  An affine map between two such polygons is
    unimodular, so distinct canonical forms are distinct affine classes.
    The index is tested on the forms, not on the polygons: a unimodular
    map carries a polygon's difference lattice onto its form's, so both
    have the same index."""
    forms = [LatticePolytope(2, c) for c in _volume_forms(volume, volume)]
    return sorted((f for f in forms if sublattice_info(f).index == 1),
                  key=lambda p: (len(p.vertices), p.vertices))


def build_volume_representatives(volume, *, caps=None):
    """Pairwise unimodular-inequivalent polytopes of normalized volume V,
    one per affine class with minimum volume V/i, over the divisors i,
    each found as a canonical index-1 form without pairwise search.

    A representative whose class minimum is m = V/i is an index-1 polygon
    of volume m; applying the determinant-i embedding (x, y) -> (i*x, y)
    yields volume V again.  Distinct divisors give distinct class minima,
    so the combined list stays pairwise non-equivalent.
    """
    caps = resolve(caps)
    _check_size(volume, caps, "volume")
    out = []
    for i in _divisors(volume):
        for rep in _minimal_volume_class_reps(volume // i):
            out.append(LatticePolytope(
                2, tuple((i * x, y) for x, y in rep.vertices)))
    return out


def primitivity_scan(region, *, caps=None, workers=None):
    """Look for polygons whose vertex differences generate all of Z^2 but
    whose volume vector still has content larger than 1.  An empty
    counterexample list means none exists at this scale.

    Both tests run once per canonical form.  A unimodular map carries a
    polygon's difference lattice onto its form's and multiplies every
    volume-vector entry by its determinant +-1, so the index and
    |content| are the same for a polygon and its form.  In fact
    |content| equals the index: with vertices v_0, ..., v_n the index is
    the gcd of the 2x2 minors of the rows v_i - v_0, which are exactly
    the entries that contain vertex 0, and every other entry
    det(v_j - v_i, v_k - v_i) = det(v_j - v_0, v_k - v_0)
    - det(v_i - v_0, v_k - v_0) - det(v_j - v_0, v_i - v_0) is an integer
    combination of them.  Only if a form failed would the region be
    enumerated again, to list its polygons in enumeration order."""
    counts = _form_counts(region, caps, workers)
    index_one = [form for form in counts if _form_index(form) == 1]
    failed = {form for form in index_one if abs(primitive_decomposition(
        volume_vector(form.vertices, 2)).content) > 1}
    bad = ()
    if failed:
        bad = tuple(poly for poly in enumerate_convex_polygons(
            region, caps=caps, workers=workers)
            if canonical_polygon(poly) in failed)
    return PrimitivityReport(region, sum(counts[f] for f in index_one), bad)


def affine_map_census(region, budget, *, caps=None):
    """Collect the distinct witness matrices over ordered polygon pairs
    of the region, up to `budget` pairs, with the largest squared row
    norm seen.  The distinct count is bounded by the number of ordered
    simplex pairs, since a witness matrix is determined by an anchor
    simplex and its image."""
    if type(budget) is not int or budget < 1:
        raise DegenerateInput("budget must be a positive integer")
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
                matrices.add(witness.map.matrix)
                for row in witness.map.matrix:
                    norm_sq = sum(x * x for x in row)
                    if max_sq is None or norm_sq > max_sq:
                        max_sq = norm_sq
    constant = None
    if max_sq is not None and region.kind != "box" and region.size:
        constant = max_sq / region.size ** 2
    return AffineMapCensus(region, examined, len(matrices), max_sq, constant)
