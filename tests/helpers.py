"""Independent brute-force oracles, and a call counter, used only by the tests.

These deliberately avoid the residue-enumeration kernel: parallelepiped
points are found by scanning the integer bounding box and solving for the
generator coefficients, and half-open membership counts go through the
barycentric definition.  Visibility masks have a reference of their own,
the slack signs of each cell's facet halfspaces, facet descriptions one in
vertex enumeration, and the hull one that tries every Fraction hyperplane
through d of the points; a facet is spanned when its tight vertices have
rank d homogenized.  The pulling rule is checked face by face from the
facet inequalities, and volumes by coning boundary pieces over a point.
Ranks, determinants and exact solves run Gaussian elimination over Fraction,
sharing no code with the library's fraction-free elimination; polynomial
long division runs over Fraction too, against the library's integer one; and
reflexivity is found by scanning the bounding box for an interior lattice
point at which every facet offset is one, not by the library's facet solve;
and the oracle's scanline counts are checked point by point.
Slow and obviously correct.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import ceil, factorial, floor, lcm

from ehrkit import ehrhart
from ehrkit.geometry import Halfspace, as_point
from ehrkit.linalg import dot, primitive_row, vec_sub
from ehrkit.triangulation import (HalfOpenSimplex, half_open_cone, interior_lattice_points,
                                  triangulate_boundary)


def count_calls(monkeypatch, fn):
    """Count the calls of fn through every ehrkit module name bound to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("ehrkit"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def count_constructions(monkeypatch):
    """Record every HalfOpenSimplex built from now on."""
    built = []
    real = HalfOpenSimplex.__post_init__
    monkeypatch.setattr(HalfOpenSimplex, "__post_init__", lambda S: built.append(S) or real(S))
    return built


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def greedy_affine_basis(ints):
    """Indices of ints[0] and of each later point that raises the rank of the
    differences from ints[0] taken so far: one rank, over Fraction, per point."""
    basis = [0]
    for i in range(1, len(ints)):
        if fraction_rank([vec_sub(ints[j], ints[0]) for j in basis[1:] + [i]]) == len(basis):
            basis.append(i)
    return basis


def unspanned_facets(P):
    """The facets of P whose tight vertices do not span a hyperplane: the
    homogenized rows (v, 1) of the vertices in the facet's incidence mask do
    not have rank d, by elimination over Fraction.  The per-facet definition
    the hull's certificate must agree with."""
    return [hs for hs, mask in zip(P.facets, P._incidence)
            if fraction_rank([v + (1,) for i, v in enumerate(P.vertices) if mask >> i & 1])
            != P.ambient_dim]


def fraction_determinant(rows):
    """Determinant by Gaussian elimination over Fraction."""
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


def fraction_solve(rows, rhs):
    """The unique solution of A x = b by Gauss-Jordan elimination over Fraction.

    None when inconsistent, checked first; ValueError when not unique.
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


def hyperplane_through(points):
    """Primitive integer (normal, offset) with normal . p == offset for d points in R^d.

    The normal is the generalized cross product of the edge vectors, d
    Fraction cofactor determinants, jointly normalized with the offset so
    that gcd(normal entries, offset) == 1.
    """
    d = len(points[0])
    if len(points) != d:
        raise ValueError("need exactly d points for a hyperplane in R^d")
    edges = [vec_sub(p, points[0]) for p in points[1:]]
    normal = []
    for j in range(d):
        cof = fraction_determinant([[row[c] for c in range(d) if c != j] for row in edges])
        normal.append(cof if j % 2 == 0 else -cof)
    if all(x == 0 for x in normal):
        raise ValueError("points are affinely dependent")
    row = primitive_row(normal + [dot(normal, points[0])])
    return row[:-1], row[-1]


def _make_halfspace(points, inside):
    """Halfspace through the given d points, oriented to contain `inside` strictly."""
    normal, offset = hyperplane_through(points)
    side = dot(normal, inside) - offset
    if side == 0:
        raise ValueError("orientation reference lies on the hyperplane")
    if side > 0:
        normal, offset = tuple(-a for a in normal), -offset
    return Halfspace(normal, offset)


def brute_force_hull(points):
    """(vertices, facets) of a full-dimensional hull, as sorted tuples.

    The facets are every halfspace through d affinely independent input
    points that has all the points on its side, and the vertices the points
    whose tight facet normals have rank d.
    """
    pts = sorted({as_point(p) for p in points})
    d = len(pts[0])
    centre = tuple(sum(p[c] for p in pts) / len(pts) for c in range(d))
    facets = set()
    for combo in combinations(pts, d):
        try:  # dependent points, or a plane through the centre, which supports no facet
            hs = _make_halfspace(list(combo), centre)
        except ValueError:
            continue
        if all(hs.slack(p) >= 0 for p in pts):
            facets.add(hs)
    vertices = [p for p in pts
                if fraction_rank([hs.normal for hs in facets if hs.slack(p) == 0]) == d]
    return tuple(vertices), tuple(sorted(facets))


def cell_halfspaces(S):
    """Facet halfspaces of a full-dimensional simplex; entry i is opposite vertex i."""
    out = []
    for i, v in enumerate(S.vertices):
        others = [w for j, w in enumerate(S.vertices) if j != i]
        out.append(_make_halfspace(others, v))
    return out


def slack_masks(cone, y):
    """Per cell, True where the facet's halfspace excludes y (negative slack).

    Fails when y lies on a cell hyperplane, which no generic point may do.
    """
    masks = []
    for cell in cone.cells:
        slacks = [hs.slack(y) for hs in cell_halfspaces(cell)]
        if 0 in slacks:
            raise AssertionError("y lies on a cell hyperplane")
        masks.append(tuple(s < 0 for s in slacks))
    return masks


def generic_points(P, count=3):
    """count candidate generic points of P, spread over it so that their
    visibility masks differ: the midpoint of the vertex centroid and vertex k,
    moved by (1/(97 + 13k))^(i+1) along coordinate i, for k < count."""
    n, d = len(P.vertices), P.ambient_dim
    centroid = [sum(v[i] for v in P.vertices) / n for i in range(d)]
    return [tuple((c + P.vertices[k][i]) / 2 + Fraction(1, 97 + 13 * k) ** (i + 1)
                  for i, c in enumerate(centroid)) for k in range(count)]


def fraction_generic_point(cone):
    """The generic point of a cone by the definition of its schedule, in
    Fractions: from the apex, or the vertex centroid when the apex is on the
    boundary of P, the first y = base + (eps, eps^2, ..., eps^d), eps = 1/64
    halved on each try, that is interior to P and off every cell hyperplane."""
    P, n = cone.parent, len(cone.parent.vertices)
    base = cone.apex
    if min(hs.slack(base) for hs in P.facets) == 0:
        base = [sum(v[i] for v in P.vertices) / n for i in range(P.ambient_dim)]
    planes = [hs for cell in cone.cells for hs in cell_halfspaces(cell)]
    for k in range(32):
        eps = Fraction(1, 64 * 2 ** k)
        y = tuple(b + eps ** (i + 1) for i, b in enumerate(base))
        if (min(hs.slack(y) for hs in P.facets) > 0
                and all(hs.slack(y) != 0 for hs in planes)):
            return y
    raise AssertionError("the schedule found no generic point")


def pulling_violations(P, pieces):
    """The pieces, each a sorted vertex tuple, that break the pulling rule.

    A pulled piece is a chain of faces of P: each suffix piece[k:] starts with
    the lexicographically smallest vertex of the smallest face of P that
    contains it, found here as the vertices tight on every facet tight on the
    suffix.
    """
    on = {v: {hs for hs in P.facets if hs.slack(v) == 0} for v in P.vertices}
    bad = []
    for piece in pieces:
        for k in range(len(piece)):
            tight = set.intersection(*(on[v] for v in piece[k:]))
            face = [v for v in P.vertices if tight <= on[v]]
            if min(face) != piece[k]:
                bad.append(piece)
                break
    return bad


def check_pulled_pieces(P):
    """Fails unless the boundary pieces of P follow the pulling rule and every
    face of codimension one in a piece lies in exactly two pieces, and the
    bases of the cells over the lex-min vertex follow the rule too.  Returns
    the boundary pieces.  It raises rather than asserts, so it also checks
    under python -O, where only test modules keep their asserts."""
    pieces = [S.vertices for S in triangulate_boundary(P)]
    if pulling_violations(P, pieces):
        raise AssertionError("boundary pieces break the pulling rule")
    ridges = Counter(ridge for piece in pieces for ridge in combinations(piece, len(piece) - 1))
    if set(ridges.values()) != {2}:
        raise AssertionError("a boundary ridge does not lie in exactly two pieces")
    cone = half_open_cone(P, P.vertices[0])
    if pulling_violations(P, [cell.vertices[:-1] for cell in cone.cells]):
        raise AssertionError("cone bases break the pulling rule")
    return pieces


def cone_volume(P, pieces):
    """Volume of P from boundary pieces that tile its boundary, each coned over
    the vertex centroid."""
    n = len(P.vertices)
    centre = [sum(v[c] for v in P.vertices) / n for c in range(P.ambient_dim)]
    total = sum(abs(fraction_determinant([vec_sub(v, centre) for v in piece])) for piece in pieces)
    return total / factorial(P.ambient_dim)


def vertices_from_halfspaces(halfspaces, ambient_dim):
    """Vertex enumeration of a bounded intersection of halfspaces."""
    verts = set()
    for combo in combinations(halfspaces, ambient_dim):
        rows = [hs.normal for hs in combo]
        try:
            x = fraction_solve(rows, [hs.offset for hs in combo])
        except ValueError:
            continue
        if x is None:
            continue
        if all(hs.slack(x) >= 0 for hs in halfspaces):
            verts.add(x)
    return tuple(sorted(verts))


def brute_force_fpp(vertices, missing, heights):
    """Heights multiset of the fundamental parallelepiped, by box scan."""
    gens = []
    for h, v in zip(heights, vertices):
        gens.append(tuple(int(h * c) for c in v) + (int(h),))
    dim = len(gens[0])
    lows, highs = [], []
    for c in range(dim):
        span = [g[c] for g in gens]
        lows.append(sum(min(0, s) for s in span))
        highs.append(sum(max(0, s) for s in span))
    columns = list(zip(*gens))  # dim x n
    out = []
    for candidate in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        try:
            alphas = fraction_solve(columns, candidate)
        except ValueError:
            raise AssertionError("generators must be linearly independent")
        if alphas is None:
            continue
        ok = True
        for a, miss in zip(alphas, missing):
            if miss:
                ok = ok and 0 < a <= 1
            else:
                ok = ok and 0 <= a < 1
        if ok:
            out.append(candidate[-1])
    return tuple(sorted(out))


def smith_digits(S, heights):
    """The diagonal the walk of S at these heights runs over."""
    cols, _ = ehrhart._generator_matrix(S, heights)
    return ehrhart.diagonalize(list(zip(*cols)))[0]


def brute_force_fpp_points(vertices, missing, heights):
    """Sorted (point, coefficients) pairs of the parallelepiped, by box scan.

    Picks n coordinates in which the n generators are independent, scans the
    integer bounding box of the parallelepiped's image there, solves for the
    coefficients with the integer adjugate and keeps the candidates inside
    the half-open box whose full point is integral.
    """
    gens = [tuple(int(h * c) for c in v) + (int(h),) for h, v in zip(heights, vertices)]
    n = len(gens)
    coords = []
    for c in range(len(gens[0])):
        if fraction_rank([[g[k] for k in coords + [c]] for g in gens]) > len(coords):
            coords.append(c)
    square = [[g[c] for g in gens] for c in coords]  # n x n, invertible
    inverse = [fraction_solve(square, [int(i == j) for i in range(n)]) for j in range(n)]  # columns
    den = lcm(*(x.denominator for col in inverse for x in col))
    scaled = [[int(inverse[j][i] * den) for j in range(n)] for i in range(n)]  # alpha * den
    ranges = [range(sum(min(0, g[c]) for g in gens), sum(max(0, g[c]) for g in gens) + 1)
              for c in coords]
    out = []
    for z in product(*ranges):
        nums = [sum(a * x for a, x in zip(row, z)) for row in scaled]
        if not all(0 < a <= den if miss else 0 <= a < den for a, miss in zip(nums, missing)):
            continue
        point = [sum(g[c] * a for g, a in zip(gens, nums)) for c in range(len(gens[0]))]
        if all(x % den == 0 for x in point):
            out.append((tuple(x // den for x in point), tuple(Fraction(a, den) for a in nums)))
    return sorted(out)


def count_in_scaled_cell(simplex, n):
    """|Z^d ∩ n * cell| for a half-open simplex, via barycentric membership."""
    verts = [tuple(n * c for c in v) for v in simplex.vertices]
    d = len(verts[0])
    lows = [ceil(min(v[c] for v in verts)) for c in range(d)]
    highs = [floor(max(v[c] for v in verts)) for c in range(d)]
    rows = [list(v) + [1] for v in verts]
    columns = list(zip(*rows))
    count = 0
    for candidate in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        coords = fraction_solve(columns, list(candidate) + [1])
        if coords is None:
            continue
        if all(c > 0 if miss else c >= 0
               for c, miss in zip(coords, simplex.missing)):
            count += 1
    return count


def brute_force_count(P, n, mode):
    """Lattice points of nP, point by point: every integer point of nP's
    bounding box is tested against every facet a.x <= offset of P, as
    a.x <= n * offset for closed, a.x < n * offset for interior, and closed
    but not interior for boundary."""
    d = P.ambient_dim
    ranges = [range(ceil(min(n * v[c] for v in P.vertices)),
                    floor(max(n * v[c] for v in P.vertices)) + 1) for c in range(d)]
    count = 0
    for x in product(*ranges):
        closed = all(dot(hs.normal, x) <= n * hs.offset for hs in P.facets)
        interior = all(dot(hs.normal, x) < n * hs.offset for hs in P.facets)
        count += {"closed": closed, "interior": interior,
                  "boundary": closed and not interior}[mode]
    return count


def scan_reflexive(P):
    """Reflexivity of a lattice polytope by scanning its bounding box:
    (True, -u) for the interior lattice point u at which every facet offset of
    P - u is one, (False, None) when there is none."""
    for u in interior_lattice_points(P):
        if all(hs.slack(u) == 1 for hs in P.facets):
            return True, tuple(-c for c in u)
    return False, None


def sample_in_polytope(P, rng, count):
    """Deterministic rational sample points of P (random convex combinations)."""
    out = []
    verts = P.vertices
    for _ in range(count):
        weights = [Fraction(rng.randint(0, 8)) for _ in verts]
        if sum(weights) == 0:
            weights[rng.randrange(len(weights))] = Fraction(1)
        total = sum(weights)
        weights = [w / total for w in weights]
        out.append(tuple(sum(w * v[c] for w, v in zip(weights, verts))
                         for c in range(P.ambient_dim)))
    return out
