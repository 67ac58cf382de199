"""Hermite normal form and the vertex-difference sublattice of a polytope.

A polytope attains the minimal volume in its affine equivalence class
exactly when its vertex differences generate all of Z^d; the shrink map
below sends any polytope to such a representative by the inverse of a
triangular basis of the difference lattice.
"""

from dataclasses import dataclass

from . import linalg
from .errors import DegenerateInput
from .geometry import LatticePolytope, _map_over


@dataclass(frozen=True)
class HnfResult:
    """Row-style Hermite normal form h = u @ m with unimodular u.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), and zero rows sit at the bottom.
    """

    h: tuple
    u: tuple
    rank: int
    pivot_columns: tuple


def hnf(rows):
    m = len(rows)
    if m == 0:
        raise DegenerateInput("empty matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DegenerateInput("ragged matrix")
    h = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    row = 0
    pivots = []
    for col in range(n):
        pivot = next((i for i in range(row, m) if h[i][col]), None)
        if pivot is None:
            continue
        h[row], h[pivot] = h[pivot], h[row]
        u[row], u[pivot] = u[pivot], u[row]
        for i in range(row + 1, m):
            if not h[i][col]:
                continue
            a, b = h[row][col], h[i][col]
            g, x, y = linalg.egcd(a, b)
            p, q = -(b // g), a // g
            h[row], h[i] = (
                [x * ra + y * rb for ra, rb in zip(h[row], h[i])],
                [p * ra + q * rb for ra, rb in zip(h[row], h[i])],
            )
            u[row], u[i] = (
                [x * ra + y * rb for ra, rb in zip(u[row], u[i])],
                [p * ra + q * rb for ra, rb in zip(u[row], u[i])],
            )
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[row])]
        pivots.append(col)
        row += 1
    return HnfResult(
        tuple(tuple(r) for r in h),
        tuple(tuple(r) for r in u),
        row,
        tuple(pivots),
    )


@dataclass(frozen=True)
class SublatticeInfo:
    basis: tuple  # rows of an upper-triangular lattice basis
    index: int    # index in Z^d, the product of the basis pivots


def sublattice_info(p):
    """Basis and index of the difference lattice of a polytope: the
    lattice generated by the pairwise vertex differences (equivalently
    v_i - v_1)."""
    anchor = p.vertices[0]
    diffs = [linalg.vec_sub(q, anchor) for q in p.vertices[1:]]
    result = hnf(diffs)
    if result.rank != p.dim:
        raise DegenerateInput("difference lattice is not full-dimensional")
    basis = result.h[:p.dim]
    index = 1
    for i in range(p.dim):
        index *= basis[i][i]
    return SublatticeInfo(basis, index)


def attains_minimal_volume(p):
    """True when the vertex differences generate Z^d, i.e. when the
    polytope already has the smallest volume in its affine class."""
    return sublattice_info(p).index == 1


def _shrink(p):
    """The shrink in integers, (image, adj, index, basis, origin): v goes
    to (v - origin) @ adj // index, exactly, in P's vertex order, with
    origin the lex-least vertex and adj the adjugate of the triangular
    difference-lattice basis B; the inverse is z -> z @ B + origin."""
    info = sublattice_info(p)
    adj = linalg.int_adjugate(info.basis)
    origin = min(p.vertices)
    image = tuple(
        tuple(x // info.index for x in
              linalg.row_times_matrix(linalg.vec_sub(v, origin), adj))
        for v in p.vertices)
    return image, adj, info.index, info.basis, origin


def shrink_to_minimal_volume(p):
    """Map a polytope onto the minimal-volume representative of its class.

    Returns (image, map): `_shrink`'s image and v -> (v - o) @ adj(B) /
    index, of determinant 1/index, so normalized_volume(p) == index *
    normalized_volume(image).  On an image the map is the identity, so
    the operation is idempotent."""
    image, adj, index, _, origin = _shrink(p)
    shift = tuple(-x for x in linalg.row_times_matrix(origin, adj))
    return LatticePolytope(p.dim, image), _map_over(adj, shift, index)
