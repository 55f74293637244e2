"""Small exact linear algebra over rationals and integers.

Everything is sized for polytope work in ambient dimension <= 7 or so.  Ranks
and facet normals come from fraction-free (Bareiss) elimination of integer
rows, rational rows being scaled to integers first; solving runs plain
Gaussian elimination over Fraction, exact and fast enough at that scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import IdentityViolated


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def matrix_rank(rows) -> int:
    return _int_rank(_scaled(list(rows))[1])


def determinant(rows) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def solve_unique(rows, rhs):
    """Solve A x = b exactly for the unique solution.

    A may be overdetermined.  Returns None when inconsistent; raises
    ValueError when the solution space has positive dimension.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivots) != n:
        raise ValueError("solution is not unique")
    x = [Fraction(0)] * n
    for row, c in enumerate(pivots):
        x[c] = aug[row][n]
    return tuple(x)


def primitive_row(values) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction."""
    fracs = [Fraction(v) for v in values]
    scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * scale) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _scaled(points):
    """(L, the points times L as integer tuples), L the lcm of their denominators."""
    # a set keeps lcm's argument tuple short; long tuples of many sizes fill CPython's free lists
    scale = lcm(*{c.denominator for p in points for c in p})
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix, and the
    column of each row's pivot.  Every entry is a minor of the input, so each
    division is exact; the last pivot is, up to sign, the pivot minor."""
    m = [list(row) for row in rows]
    pivots, prev = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top, pv = m[r], m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], top)]
        pivots.append(c)
        prev = pv
    return m, pivots


def _int_rank(rows) -> int:
    return len(_echelon(rows)[1])


def _int_normal(rows, d):
    """Primitive integer normal to d-1 linearly independent integer rows in Z^d.

    Back substitution in the fraction-free echelon form, with the free
    coordinate set to the last pivot, gives the cofactor vector up to sign,
    so every division is exact.  Raises ValueError for dependent rows.
    """
    m, pivots = _echelon(rows)
    if len(m) != d - 1 or len(pivots) != d - 1:
        raise ValueError("need d-1 independent rows in dimension d")
    x = [0] * d
    x[next(c for c in range(d) if c not in pivots)] = m[-1][pivots[-1]] if m else 1
    for row, c in reversed(list(zip(m, pivots))):
        x[c] = -dot(row, x) // row[c]
    g = gcd(*x)
    return tuple(a // g for a in x)


def diagonalize(rows, want_u=False):
    """Unimodular diagonalization of an integer matrix with full column rank.

    Returns (diag, V) -- or (diag, V, U) -- with U*A*V diagonal, diag positive.
    No divisibility chain is enforced; |prod(diag)| is still the lattice index
    of the column span inside its saturation.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    u = [[int(i == j) for j in range(m)] for i in range(m)] if want_u else None

    for t in range(n):
        while True:
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                raise ValueError("matrix does not have full column rank")
            pi, pj = pivot
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                if want_u:
                    u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            dirty = False
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                if q:
                    for j in range(n):
                        a[i][j] -= q * a[t][j]
                    if want_u:
                        for j in range(m):
                            u[i][j] -= q * u[t][j]
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    for i in range(m):
                        a[i][j] -= q * a[i][t]
                    for i in range(n):
                        v[i][j] -= q * v[i][t]
                if a[t][j]:
                    dirty = True
            if not dirty:
                break

    diag = []
    for t in range(n):
        entry = a[t][t]
        if entry < 0:
            entry = -entry
            if want_u:
                for j in range(m):
                    u[t][j] = -u[t][j]
        diag.append(entry)
    if want_u:
        return diag, v, u
    return diag, v


def invert_unimodular(mat):
    """Exact inverse of a unimodular integer matrix, returned with int entries."""
    n = len(mat)
    columns = [solve_unique(mat, [int(i == j) for i in range(n)]) for j in range(n)]
    if any(x.denominator != 1 for col in columns for x in col):
        raise IdentityViolated("matrix was not unimodular")
    return [[int(col[i]) for col in columns] for i in range(n)]


def interpolate_polynomial(xs, ys):
    """Exact coefficients (low degree first) of the polynomial through the points."""
    n = len(xs)
    rows = [[Fraction(x) ** k for k in range(n)] for x in xs]
    coeffs = solve_unique(rows, ys)
    if coeffs is None:
        raise ValueError("interpolation points are inconsistent")
    return coeffs
