"""Ordering-sensitive invariants of finite lattice point sets.

The volume vector collects the simplex determinants of all (d+1)-subsets
of an ordered point set; its primitive decomposition splits off the gcd
content.  The lattice height vector collects, for every point, its exact
integer heights over the hyperplanes spanned by the remaining points.
The facets of the points' hull are read from the volume vector's signs
alone, through `face_positions`, the position table the vector is built
from, for `geometry._hull_of`, the one hull routine of the library.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd

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
    drop its 0th, 2nd, ... index, then those that drop its 1st, 3rd, ...
    `_volume_vector` sums over it and `facets` reads its signs through it."""
    position = index_positions(n, d)
    out = []
    for combo in index_combinations(n, d + 1):
        faces = [position[combo[:k] + combo[k + 1:]] for k in range(d + 1)]
        out.append((tuple(faces[0::2]), tuple(faces[1::2])))
    return tuple(out)


def facets(entries, n, d):
    """The facets of the hull of n points in dimension d, read from the
    signs of their volume vector's `entries`: the sorted indices of the
    points on each facet, ordered by the first d-subset that spans it.
    The face S of an entry C that drops l = C[k] has det(S, l), with l
    last, equal to (-1)**(d - k) * entry(C): l passes the d - k indices
    after it.  S spans a facet when the entries it is a face of give it
    one sign and not the other (up to the sign (-1)**d shared by all);
    the facet holds S and each l whose entry is zero."""
    pos, neg, zeros = [], [], {}
    for combo, e, (even, odd) in zip(
            index_combinations(n, d + 1), entries, face_positions(n, d)):
        if e > 0:
            pos += even
            neg += odd
        elif e < 0:
            pos += odd
            neg += even
        else:
            for at, l in zip(even + odd, combo[0::2] + combo[1::2]):
                zeros[at] = zeros.get(at, ()) + (l,)
    subs = index_combinations(n, d)
    return tuple(dict.fromkeys(
        tuple(sorted(subs[at] + zeros.get(at, ())))
        for at in sorted(set(pos).symmetric_difference(neg))))


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


def _volume_of(p):
    """The volume vector of the LatticePolytope `p`, whose constructor
    checked its vertices: from dimension 3 on the one its record keeps,
    else computed by `_volume_vector` without a second check."""
    return p._record[0] if p.dim >= 3 else _volume_vector(p.vertices, p.dim)


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
