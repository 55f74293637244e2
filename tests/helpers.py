"""Independent brute-force oracles, and a call counter, used only by the tests.

These deliberately avoid the residue-enumeration kernel: parallelepiped
points are found by scanning the integer bounding box and solving for the
generator coefficients, and half-open membership counts go through the
barycentric definition.  Visibility masks have a reference of their own,
the slack signs of each cell's facet halfspaces, and facet descriptions one
in vertex enumeration.  Slow and obviously correct.
"""

import sys
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, lcm

from ehrkit.geometry import _make_halfspace
from ehrkit.linalg import matrix_rank, solve_unique


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


def vertices_from_halfspaces(halfspaces, ambient_dim):
    """Vertex enumeration of a bounded intersection of halfspaces."""
    verts = set()
    for combo in combinations(halfspaces, ambient_dim):
        rows = [hs.normal for hs in combo]
        try:
            x = solve_unique(rows, [hs.offset for hs in combo])
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
            alphas = solve_unique(columns, candidate)
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
        if matrix_rank([[g[k] for k in coords + [c]] for g in gens]) > len(coords):
            coords.append(c)
    square = [[g[c] for g in gens] for c in coords]  # n x n, invertible
    inverse = [solve_unique(square, [int(i == j) for i in range(n)]) for j in range(n)]  # columns
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
        coords = solve_unique(columns, list(candidate) + [1])
        if coords is None:
            continue
        if all(c > 0 if miss else c >= 0
               for c, miss in zip(coords, simplex.missing)):
            count += 1
    return count


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
