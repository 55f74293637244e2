"""Small exact linear algebra over rationals and integers.

Everything is sized for polytope work in ambient dimension <= 7 or so.  Ranks
and facet normals come from fraction-free (Bareiss) elimination of integer
rows, rational rows being scaled to integers first; determinants and unique
solutions read the same elimination, so no row operation runs over Fraction.
The unimodular diagonalization runs in integers too: its V alone gives the
lattice index of a column span and a basis of the span's saturation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


def dot(a, b):
    return sum(map(mul, a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def determinant(rows) -> Fraction:
    scale, ints = _scaled(rows)
    m, pivots, swaps = _echelon(ints)
    if len(pivots) < len(ints):
        return Fraction(0)
    return Fraction((-1) ** swaps * (m[-1][pivots[-1]] if pivots else 1), scale ** len(ints))


def solve_unique(rows, rhs):
    """Solve A x = b exactly for the unique solution.

    A may be overdetermined.  Returns None when inconsistent; raises
    ValueError when the solution is not unique or b's length is not A's row
    count.  x is read off the kernel vector of the integer-scaled (A | b).
    """
    if len(rhs) != len(rows):
        raise ValueError("need one right-hand side per row")
    n = len(rows[0]) if rows else 0
    m, pivots, _ = _echelon(_scaled([list(row) + [b] for row, b in zip(rows, rhs)])[1])
    if pivots and pivots[-1] == n:
        return None
    if len(pivots) != n:
        raise ValueError("solution is not unique")
    kernel = _kernel(m, pivots, n + 1)
    return tuple(Fraction(-k, kernel[n]) for k in kernel[:n])


def primitive_row(values) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction."""
    ints = _scaled([values])[1][0]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _scaled(points):
    """(L, the points times L as integer tuples), L the lcm of their denominators."""
    # a set keeps lcm's argument tuple short; long tuples of many sizes fill CPython's free lists
    scale = lcm(*{c.denominator for p in points for c in p})
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]


def _homogenized(point) -> tuple[int, ...]:
    """(L·point, L) as one integer tuple, L the least common denominator."""
    scale, (ints,) = _scaled([point])
    return ints + (scale,)


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix, the
    column of each row's pivot and the number of row swaps.  Every entry is a
    minor of the input, so each division is exact; the last pivot is, up to
    the sign of the swaps, the pivot minor."""
    m = [list(row) for row in rows]
    pivots, prev, swaps = [], 1, 0
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        swaps += pivot != r
        top, pv = m[r], m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], top)]
        pivots.append(c)
        prev = pv
    return m, pivots, swaps


def _kernel(m, pivots, d):
    """Integer kernel vector of an echelon form with d - 1 pivots in d columns:
    back substitution with the free coordinate set to the last pivot gives the
    cofactor vector of the pivot rows up to sign, so every division is exact."""
    x = [0] * d
    free = next(c for c in range(d) if c not in pivots)
    x[free] = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    for row, c in reversed(list(zip(m, pivots))):
        x[c] = -dot(row, x) // row[c]
    return x


def _int_rank(rows) -> int:
    return len(_echelon(rows)[1])


def _residue_count(columns):
    """Residue count of the parallelepiped of independent integer columns, the
    index of their lattice in its saturation: the product of the Smith
    invariants (None when the columns are dependent)."""
    if _int_rank(columns) != len(columns):
        return None
    return prod(diagonalize(list(zip(*columns)))[0])


def _int_normal(rows, d):
    """Primitive integer normal to d-1 linearly independent integer rows in Z^d.

    Raises ValueError for dependent rows.
    """
    m, pivots, _ = _echelon(rows)
    if len(m) != d - 1 or len(pivots) != d - 1:
        raise ValueError("need d-1 independent rows in dimension d")
    x = _kernel(m, pivots, d)
    g = gcd(*x)
    return tuple(a // g for a in x)


def diagonalize(rows):
    """Unimodular diagonalization of an integer matrix with full column rank.

    Returns (diag, V) with U*A*V diagonal for a unimodular U that is not
    formed, diag positive.  No divisibility chain is enforced; |prod(diag)|
    is still the lattice index of the column span inside its saturation, and
    column j of A*V divided by diag[j] is column j of U^-1.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    v = [[int(i == j) for j in range(n)] for i in range(n)]

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

    return [abs(a[t][t]) for t in range(n)], v


def interpolate_polynomial(xs, ys):
    """Exact coefficients (low degree first) of the polynomial through the points."""
    n = len(xs)
    rows = [[Fraction(x) ** k for k in range(n)] for x in xs]
    coeffs = solve_unique(rows, ys)
    if coeffs is None:
        raise ValueError("interpolation points are inconsistent")
    return coeffs
