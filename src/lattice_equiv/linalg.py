"""Small exact linear algebra helpers over int.

Everything here works on tuples of tuples.  Matrices are row-major and
points are row vectors, so an affine image is computed as p @ A + v.
Determinants and inverses are fraction-free: closed forms or Bareiss
elimination, and the adjugate, so callers with rational entries scale
them to integers first.
"""

from math import gcd


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


def vec_gcd(values):
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def row_times_matrix(v, m):
    """v @ m for a row vector v and row-major matrix m."""
    cols = len(m[0])
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(cols))


def mat_mul(a, b):
    cols = len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for i in range(len(a))
    )


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
    """Adjugate of a square integer matrix: adj(M) @ M = det(M) * I."""
    n = len(rows)
    if n == 1:
        return ((1,),)
    if n == 2:
        (a, b), (c, d) = rows
        return ((d, -b), (-c, a))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            row.append((-1) ** (i + j) * int_det(minor))
        out.append(tuple(row))
    return tuple(out)


def int_rank(rows):
    """Rank of an integer matrix, by exact fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    col = 0
    while rank < len(m) and col < cols:
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col]
                p = m[rank][col]
                m[i] = [p * a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


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
    g = vec_gcd(normal)
    if g == 0:
        return None
    if next(c for c in normal if c) < 0:
        g = -g
    return tuple(c // g for c in normal)
