"""Ordering-sensitive invariants of finite lattice point sets.

The volume vector collects the simplex determinants of all (d+1)-subsets
of an ordered point set; its primitive decomposition splits off the gcd
content.  The lattice height vector collects, for every point, its exact
integer heights over the hyperplanes spanned by the remaining points.
The facets of the points' hull are read from the volume vector's signs
alone, for `geometry._hull_of`, the one hull routine of the library.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import itemgetter

from . import linalg
from .errors import DegenerateInput, DimensionMismatch, ZeroVector
from .geometry import _Value, _int_points, _plain_ints


@lru_cache(maxsize=None)
def index_combinations(n, k):
    """Lexicographically ordered k-subsets of range(n)."""
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def index_positions(n, k):
    """The position of each k-subset of range(n) in index_combinations."""
    return {sub: i for i, sub in enumerate(index_combinations(n, k))}


@lru_cache(maxsize=None)
def face_positions(n, d):
    """For each (d+1)-subset of range(n), in index_combinations order,
    the positions in index_combinations(n, d) of its faces: those that
    drop its 0th, 2nd, ... index, then those that drop its 1st, 3rd, ..."""
    position = index_positions(n, d)
    out = []
    for combo in index_combinations(n, d + 1):
        faces = [position[combo[:k] + combo[k + 1:]] for k in range(d + 1)]
        out.append((tuple(faces[0::2]), tuple(faces[1::2])))
    return tuple(out)


@lru_cache(maxsize=None)
def side_positions(n, d):
    """(gather, chunks): where to read the sign of det(S, l), the
    determinant with l last, for each d-subset S of range(n) (in
    index_combinations order) and each l in range(n) not in S (in
    increasing order).

    Moving l from last place to its sorted place in S plus l passes the
    members of S above l, so det(S, l) is the volume-vector entry of S
    plus l, negated when that count is odd.  Applied to the entries'
    signs followed by their negations, `gather` picks for every (S, l) in
    turn the entry's lex position in index_combinations(n, d + 1),
    shifted into the negations when the count is odd; `chunks` slices
    what it picks into one run of n - d per S."""
    position = index_positions(n, d + 1)
    flip = len(position)
    picks = []
    for sub in index_combinations(n, d):
        for l in range(n):
            if l not in sub:
                above = sum(i > l for i in sub)
                picks.append(position[tuple(sorted(sub + (l,)))]
                             + flip * (above % 2))
    m = n - d
    return itemgetter(*picks), tuple(
        slice(k, k + m) for k in range(0, len(picks), m))


# Swaps the sign bytes of positive (1) and negative (2) entries.
_NEGATE_SIGNS = bytes.maketrans(b"\x01\x02", b"\x02\x01")


def _sides(entries, n, d):
    """For each d-subset S of n points, in index_combinations order, the
    bytes run of the signs of det(S, l) over the other points l in
    increasing order (0 zero, 1 positive, 2 negative), read from the
    signs of their volume vector's `entries`."""
    gather, chunks = side_positions(n, d)
    signs = bytes((e > 0) + 2 * (e < 0) for e in entries)
    sides = bytes(gather(signs + signs.translate(_NEGATE_SIGNS)))
    return map(sides.__getitem__, chunks)


def facets(entries, n, d):
    """The facets of the hull of n points in dimension d, read from the
    signs of their volume vector's `entries`: a dict from the sorted
    indices of the points on each facet to the first d-subset that spans
    it.  S spans a facet when det(S, l) has one sign over the other points
    l, zeros (the other points on it) allowed; an S with every det(S, l)
    zero spans no hyperplane and is skipped."""
    out = {}
    for sub, run in zip(index_combinations(n, d), _sides(entries, n, d)):
        if (1 not in run or 2 not in run) and run.count(0) < n - d:
            rest = iter(run)
            out.setdefault(tuple(
                l for l in range(n) if l in sub or not next(rest)), sub)
    return out


class VolumeVector(_Value):
    # A weak reference can watch a polytope's record free its vector.
    __slots__ = ("n", "dim", "entries", "__weakref__")

    def combinations(self):
        return index_combinations(self.n, self.dim + 1)

    def __len__(self):
        return len(self.entries)


class PrimitiveVolumeVector(_Value):
    __slots__ = (
        "content",    # signed: content * direction reproduces the vector
        "direction",  # gcd 1, first nonzero entry positive
    )


class PrimitiveHyperplane(_Value):
    """Primitive integer equation normal . x + offset = 0."""

    __slots__ = ("normal", "offset")

    def height(self, point):
        return linalg.vec_dot(self.normal, point) + self.offset


class LatticeHeightVector(_Value):
    __slots__ = (
        "n",
        "dim",
        "blocks",  # blocks[i][j]: height of point i over j-th d-subset of the rest
    )

    def abs_signature(self):
        """Relabeling-invariant summary: sorted |heights| plus the count of
        degenerate (undefined) entries."""
        entries = [e for block in self.blocks for e in block]
        values = sorted(abs(e) for e in entries if e is not None)
        return tuple(values), len(entries) - len(values)


def _differences(pts, combo):
    """Rows pts[i] - pts[combo[0]] for the later indices i of combo."""
    base = pts[combo[0]]
    return [linalg.vec_sub(pts[i], base) for i in combo[1:]]


def volume_vector(points, dim=None):
    """Simplex determinants of all (d+1)-subsets, in lexicographic order.

    The order of the input points matters: swapping two points permutes
    the entries and flips the signs of entries containing both.

    An entry is the determinant of its points with a column of ones
    prepended; expanding along that column makes it the alternating sum
    of the d x d determinants of its faces' points, each of which is
    computed once for all the entries that share it.
    """
    pts, d = _int_points(points, dim)
    if len(pts) < d + 1:
        raise DegenerateInput(f"need at least {d + 1} points in dimension {d}")
    return _volume_vector(pts, d)


def _volume_vector(pts, d):
    """`volume_vector` of a tuple of points that have passed `_int_points`
    in dimension d, without checking them again: the one computation,
    which `geometry._hull_of` calls for the points its callers checked.
    Fewer than d + 1 points give the zero vector's DegenerateInput."""
    minor = [linalg.int_det(rows) for rows in combinations(pts, d)].__getitem__
    entries = tuple(sum(map(minor, even)) - sum(map(minor, odd))
                    for even, odd in face_positions(len(pts), d))
    if not any(entries):
        raise DegenerateInput("points are not full-dimensional")
    return VolumeVector(len(pts), d, entries)


def primitive_decomposition(w):
    """Split a volume vector as content * direction with primitive direction.

    The direction has coprime entries and a positive first nonzero entry;
    the signed content absorbs the rest.  Raises ZeroVector on the zero
    vector, and DegenerateInput on what is not a sequence or on a raw
    sequence with an entry that is not a plain int (`_plain_ints`); a
    VolumeVector is read unchecked.
    """
    if isinstance(w, VolumeVector):
        entries = w.entries
    else:
        try:
            entries = tuple(w)
        except TypeError:
            raise DegenerateInput(
                f"volume vector {w!r} is not a sequence") from None
        _plain_ints((entries,), "volume vector entries")
    g = gcd(*entries)
    if g == 0:
        raise ZeroVector("volume vector is identically zero")
    first = next(e for e in entries if e)
    if first < 0:
        g = -g
    return PrimitiveVolumeVector(g, tuple(e // g for e in entries))


def primitive_hyperplane(points):
    """Primitive integer equation of the hyperplane through d points in Z^d.

    The normal is normalized to gcd 1 with positive first nonzero entry.
    Raises DegenerateInput when the points do not span a hyperplane.
    """
    pts, d = _int_points(points)
    if len(pts) != d:
        raise DimensionMismatch(f"need exactly {d} points in dimension {d}")
    normal = linalg.primitive_normal(_differences(pts, range(d)))
    if normal is None:
        raise DegenerateInput("points do not span a hyperplane")
    return PrimitiveHyperplane(normal, -linalg.vec_dot(normal, pts[0]))


def lattice_height_vector(points, dim=None):
    """Heights of each point over the hyperplanes through the other points.

    Block i lists, for every d-subset of the remaining points in
    lexicographic index order, the integer height of point i over that
    subset's hyperplane, or None when the subset is degenerate.  Only the
    absolute values are ordering-independent; signs follow the primitive
    normal convention of primitive_hyperplane.
    """
    pts, d = _int_points(points, dim)
    n = len(pts)
    if n < d + 1:
        raise DegenerateInput(f"need at least {d + 1} points in dimension {d}")
    if len(set(pts)) != n:
        raise DegenerateInput("points must be distinct")
    planes = [(sub, linalg.primitive_normal(_differences(pts, sub)))
              for sub in index_combinations(n, d)]
    blocks = []
    for i, p in enumerate(pts):
        blocks.append(tuple(
            None if normal is None else
            linalg.vec_dot(normal, linalg.vec_sub(p, pts[sub[0]]))
            for sub, normal in planes if i not in sub))
    return LatticeHeightVector(n, d, tuple(blocks))
