"""Hermite normal form and the vertex-difference sublattice of a polytope.

A polytope attains the minimal volume in its affine equivalence class
exactly when its vertex differences generate all of Z^d; the shrink map
below sends any polytope to such a representative by the inverse of a
triangular basis of the difference lattice.  A polygon's index is the
gcd of its 2x2 minors, and its basis and image follow in closed form
from that index; `linalg._echelon` serves `hnf` and the basis in other
dimensions.  Census and equivalence read a polygon's index and its
minimal-volume image (`_least_image`) here, never the shrink map.
"""

from itertools import combinations
from math import gcd, prod

from . import linalg
from .linalg import _echelon
from .errors import DegenerateInput
from .geometry import LatticePolytope, _Value, _map_over, _plain_ints


class HnfResult(_Value):
    """Row-style Hermite normal form h = u @ m with unimodular u.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), and zero rows sit at the bottom.
    """

    __slots__ = ("h", "u", "rank", "pivot_columns")


def hnf(rows):
    """HnfResult of a sequence of rows of plain ints
    (`geometry._plain_ints`); U is what `_echelon`'s row operations make
    of an appended identity block."""
    try:
        rows = tuple(map(tuple, rows))
    except TypeError:
        raise DegenerateInput(
            f"matrix {rows!r} is not a sequence of rows") from None
    m = len(rows)
    if m == 0:
        raise DegenerateInput("empty matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DegenerateInput("ragged matrix")
    _plain_ints(rows, "matrix entries")
    h = [list(r) + [int(i == j) for j in range(m)]
         for i, r in enumerate(rows)]
    rank, pivots = _echelon(h, n)
    return HnfResult(tuple(tuple(r[:n]) for r in h),
                     tuple(tuple(r[n:]) for r in h), rank, pivots)


class SublatticeInfo(_Value):
    __slots__ = (
        "basis",  # rows of an upper-triangular lattice basis
        "index",  # index in Z^d, the product of the basis pivots
    )


def sublattice_info(p):
    """Basis and index of the difference lattice of a polytope: the
    lattice generated by the pairwise vertex differences (equivalently
    v_i - v_1).  A polygon's is closed-form (`_form_index`, `_basis_2d`);
    other dimensions run `_echelon` on the differences."""
    index = _form_index(p.vertices) if p.dim == 2 else 0
    if index:
        return SublatticeInfo(_basis_2d(p.vertices, index), index)
    anchor = p.vertices[0]
    diffs = [linalg.vec_sub(q, anchor) for q in p.vertices[1:]]
    _echelon(diffs, p.dim)  # full rank: the polytope's constructor checked
    basis = tuple(map(tuple, diffs[:p.dim]))
    return SublatticeInfo(basis, prod(basis[i][i] for i in range(p.dim)))


def attains_minimal_volume(p):
    """True when the vertex differences generate Z^d, i.e. when the
    polytope already has the smallest volume in its affine class."""
    return sublattice_info(p).index == 1


def _shrink(p, index=None):
    """The shrink in integers, (image, adj, index, origin): v goes to
    (v - origin) @ adj // index, exactly, in P's vertex order, with origin
    the lex-least vertex and adj the adjugate of the triangular
    difference-lattice basis B; the inverse is z -> z @ B + origin.  A
    polygon's index may be passed in, and its image is written out from
    B = ((a, b), (0, c)) and adj = ((c, -b), (0, a)).  Only
    `shrink_to_minimal_volume` reads the map; `_least_image` reads the
    image."""
    origin = min(p.vertices)
    if p.dim == 2:
        index = index or _form_index(p.vertices)
        (a, b), (_, c) = _basis_2d(p.vertices, index)
        ox, oy = origin
        image = tuple(((x - ox) // a, (a * (y - oy) - b * (x - ox)) // index)
                      for x, y in p.vertices)
        return image, ((c, -b), (0, a)), index, origin
    info = sublattice_info(p)
    adj = linalg.int_adjugate(info.basis)
    image = tuple(
        tuple(x // info.index for x in
              linalg.row_times_matrix(linalg.vec_sub(v, origin), adj))
        for v in p.vertices)
    return image, adj, info.index, origin


def _form_index(cycle):
    """sublattice_info(P).index for a polygon's vertex cycle: the index in
    Z^2 of the lattice its vertex differences generate, which is the gcd
    of the 2x2 minors det(v_i - v_0, v_j - v_0), taken until it is 1."""
    x0, y0 = cycle[0]
    index = 0
    for (x1, y1), (x2, y2) in combinations(cycle[1:], 2):
        index = gcd(index, (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        if index == 1:
            break
    return index


def _basis_2d(cycle, index):
    """The Hermite basis ((a, b), (0, c)) of the difference lattice of a
    polygon's vertex cycle, given its index (`_form_index`): a is the gcd
    of the x-differences, b the y of a lattice vector with x = a (one
    Bezout chain over the differences) reduced mod c, and c = index // a."""
    (x0, y0), a, b = cycle[0], 0, 0
    for x, y in cycle[1:]:
        a, s, t = linalg.egcd(a, x - x0)
        b = s * b + t * (y - y0)
    c = index // a
    return (a, b % c), (0, c)


def _least_image(p):
    """A polygon's minimal-volume image, in P's vertex order: its own cycle
    at index 1, else the `_shrink` image, which takes the index
    `_form_index` found."""
    index = _form_index(p.vertices)
    return _shrink(p, index)[0] if index > 1 else p.vertices


def shrink_to_minimal_volume(p):
    """Map a polytope onto the minimal-volume representative of its class.

    Returns (image, map): `_shrink`'s image and v -> (v - o) @ adj(B) /
    index, of determinant 1/index, so normalized_volume(p) == index *
    normalized_volume(image).  On an image the map is the identity, so
    the operation is idempotent."""
    image, adj, index, origin = _shrink(p)
    shift = tuple(-x for x in linalg.row_times_matrix(origin, adj))
    return LatticePolytope(p.dim, image), _map_over(adj, shift, index)
