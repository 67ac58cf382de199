"""Ordering-sensitive invariants of finite lattice point sets.

The volume vector collects the simplex determinants of all (d+1)-subsets
of an ordered point set; its primitive decomposition splits off the gcd
content.  The lattice height vector collects, for every point, its exact
integer heights over the hyperplanes spanned by the remaining points.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd

from . import linalg
from .errors import DegenerateInput, DimensionMismatch, ZeroVector
from .geometry import _as_int


@lru_cache(maxsize=None)
def index_combinations(n, k):
    """Lexicographically ordered k-subsets of range(n)."""
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def face_positions(n, d):
    """For each (d+1)-subset of range(n), in index_combinations order,
    the positions in index_combinations(n, d) of its faces: those that
    drop its 0th, 2nd, ... index, then those that drop its 1st, 3rd, ..."""
    position = {sub: k for k, sub in enumerate(index_combinations(n, d))}
    out = []
    for combo in index_combinations(n, d + 1):
        faces = [position[combo[:k] + combo[k + 1:]] for k in range(d + 1)]
        out.append((tuple(faces[0::2]), tuple(faces[1::2])))
    return tuple(out)


@dataclass(frozen=True)
class VolumeVector:
    n: int
    dim: int
    entries: tuple

    def combinations(self):
        return index_combinations(self.n, self.dim + 1)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class PrimitiveVolumeVector:
    content: int      # signed: content * direction reproduces the vector
    direction: tuple  # gcd 1, first nonzero entry positive


@dataclass(frozen=True)
class PrimitiveHyperplane:
    """Primitive integer equation normal . x + offset = 0."""

    normal: tuple
    offset: int

    def height(self, point):
        return linalg.vec_dot(self.normal, point) + self.offset


@dataclass(frozen=True)
class LatticeHeightVector:
    n: int
    dim: int
    blocks: tuple  # blocks[i][j]: height of point i over j-th d-subset of the rest

    def abs_signature(self):
        """Relabeling-invariant summary: sorted |heights| plus the count of
        degenerate (undefined) entries."""
        entries = [e for block in self.blocks for e in block]
        values = sorted(abs(e) for e in entries if e is not None)
        return tuple(values), len(entries) - len(values)


def _infer_dim(points, dim):
    if dim is None:
        if not points:
            raise DegenerateInput("empty point set")
        dim = len(points[0])
    if dim < 1:
        raise DegenerateInput("dimension must be at least 1")
    for p in points:
        if len(p) != dim:
            raise DimensionMismatch(f"point {p} does not have {dim} coordinates")
        for x in p:
            _as_int(x)
    return dim


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
    pts = [tuple(p) for p in points]
    d = _infer_dim(pts, dim)
    if len(pts) < d + 1:
        raise DegenerateInput(f"need at least {d + 1} points in dimension {d}")
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
    vector.
    """
    entries = tuple(w.entries) if isinstance(w, VolumeVector) else tuple(w)
    g = linalg.vec_gcd(entries)
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
    pts = [tuple(p) for p in points]
    d = _infer_dim(pts, None)
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
    pts = [tuple(p) for p in points]
    d = _infer_dim(pts, dim)
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


def height_signature(points, w):
    """lattice_height_vector(points, d).abs_signature(), read off the
    volume vector w of the same points.

    Over a d-subset S, the point p has height |entry(S + p)| / g with g
    the gcd of the minors of S's difference rows (the content of its
    hyperplane's integer normal); g = 0 means S spans no hyperplane, and
    the height is undefined.  Each (d+1)-subset supplies the heights of
    each of its points over the face of the other d.
    """
    d = w.dim
    contents = []
    for sub in combinations(points, d):
        diffs = _differences(sub, range(d))
        minors = [linalg.int_det([r[:j] + r[j + 1:] for r in diffs])
                  for j in range(d)]
        contents.append(gcd(*minors))
    values = []
    undefined = 0
    for entry, (even, odd) in zip(w.entries, face_positions(w.n, d)):
        for face in even + odd:
            g = contents[face]
            if g:
                values.append(abs(entry) // g)
            else:
                undefined += 1
    return tuple(sorted(values)), undefined
