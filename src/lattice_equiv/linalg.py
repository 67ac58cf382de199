"""Small exact linear algebra helpers over int.

Matrices are row-major tuples of tuples and points are row vectors, so
an affine image is computed as p @ A + v.  Determinants and inverses are
fraction-free: closed forms or Bareiss elimination, and the adjugate, so
callers with rational entries scale them to integers first.  The one
row elimination, `_echelon`, brings a list of rows to Hermite form in
place, for `lattices`.
"""

from math import gcd
from operator import mul


def egcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_dot(a, b):
    return sum(map(mul, a, b))


def row_times_matrix(v, m):
    """v @ m for a row vector v and row-major matrix m."""
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def int_det(rows):
    """Exact determinant of a square integer matrix: closed forms up to
    3x3, Bareiss elimination beyond."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_adjugate(rows):
    """Adjugate of a square integer matrix: adj(M) @ M = det(M) * I.
    Closed forms up to 3x3, as in `int_det`; cofactors beyond."""
    n = len(rows)
    if n == 1:
        return ((1,),)
    if n == 2:
        (a, b), (c, d) = rows
        return ((d, -b), (-c, a))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return ((e * i - f * h, c * h - b * i, b * f - c * e),
                (f * g - d * i, a * i - c * g, c * d - a * f),
                (d * h - e * g, b * g - a * h, a * e - b * d))
    return _cofactor_adjugate(rows)


def _cofactor_adjugate(rows):
    """adj(M) by cofactors, of any size: entry (i, j) is the signed minor
    of M without row j and column i.  `int_adjugate` beyond 3x3, and the
    reference its closed forms are tested against."""
    n = len(rows)
    return tuple(tuple((-1) ** (i + j) * int_det(
        [[x for c, x in enumerate(r) if c != i]
         for k, r in enumerate(rows) if k != j]) for j in range(n))
        for i in range(n))


def _echelon(h, n):
    """Bring the first n columns of the int rows h (a list whose rows are
    replaced, not written into) to Hermite form in place; later columns
    take the same row operations.  Returns (rank, pivot columns)."""
    row = 0
    pivots = []
    for col in range(n):
        pivot = next((i for i in range(row, len(h)) if h[i][col]), None)
        if pivot is None:
            continue
        h[row], h[pivot] = h[pivot], h[row]
        for i in range(row + 1, len(h)):
            if not h[i][col]:
                continue
            a, b = h[row][col], h[i][col]
            g, x, y = egcd(a, b)
            p, q = -(b // g), a // g
            h[row], h[i] = (
                [x * ra + y * rb for ra, rb in zip(h[row], h[i])],
                [p * ra + q * rb for ra, rb in zip(h[row], h[i])],
            )
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[row])]
        pivots.append(col)
        row += 1
    return row, tuple(pivots)


def primitive_normal(diffs):
    """Primitive integer normal to the d-1 row vectors `diffs` in Z^d.

    Entry j is the signed minor of `diffs` without column j, divided by
    the gcd and signed so that the first nonzero entry is positive.
    Returns None when the rows are linearly dependent.
    """
    d = len(diffs) + 1
    normal = []
    sign = 1
    for j in range(d):
        minor = [row[:j] + row[j + 1:] for row in diffs]
        normal.append(sign * int_det(minor))
        sign = -sign
    g = gcd(*normal)
    if g == 0:
        return None
    if next(c for c in normal if c) < 0:
        g = -g
    return tuple(c // g for c in normal)
