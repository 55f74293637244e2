"""Property and metamorphic tests over random rational polytopes, d <= 3, q <= 3,
with an oracle-free metamorphic check in d = 4, 5, q <= 2, over random point
sets in d <= 4 for the hull, and over random half-open simplices for the
parallelepiped walk.

Examples are derandomized, so every run draws the same polytopes.
"""

from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrkit.decomposition import EhrhartReport, ehrhart_report, inequality_audit, stapledon_report
from ehrkit.decomposition import hstar_boundary, hstar_interior, hstar_polytope
from ehrkit.ehrhart import fpp_lattice_points
from ehrkit.errors import AffinelyDependent
from ehrkit.geometry import build_polytope, point_denominator
from ehrkit.linalg import _int_normal, _int_rank, determinant, dot, matrix_rank, solve_unique
from ehrkit.oracle import hstar_from_counts
from ehrkit.triangulation import HalfOpenSimplex, _pull_facets, half_open_cone

from helpers import (brute_force_fpp_points, brute_force_hull, check_pulled_pieces, cone_volume,
                     fraction_determinant, fraction_rank, fraction_solve, hyperplane_through,
                     slack_masks)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def rational_polytopes(draw):
    d = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    span = q if d == 3 else 2 * q  # keeps the oracle's boxes small in d = 3
    coordinate = st.integers(-span, span).map(lambda n: Fraction(n, q))
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 3))
    P = build_polytope(points)
    assume(P.dim == d)
    return P


@st.composite
def polytopes_and_maps(draw):
    """A polytope with a signed permutation, an integer translation and, for
    d > 1, a unit transvection, each as a map on points."""
    P = draw(rational_polytopes())
    d = P.dim
    order = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    shift = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    maps = [lambda v: tuple(s * v[k] for s, k in zip(signs, order)),
            lambda v: tuple(c + t for c, t in zip(v, shift))]
    if d > 1:
        i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        sign = draw(st.sampled_from((1, -1)))
        maps.append(lambda v: tuple(c + sign * v[j] if k == i else c for k, c in enumerate(v)))
    return P, maps


@PROPERTY
@given(rational_polytopes())
def test_pipeline_matches_oracle(P):
    assert hstar_polytope(P) == hstar_from_counts(P, "closed")
    assert hstar_boundary(P) == hstar_from_counts(P, "boundary")
    assert hstar_interior(P) == hstar_from_counts(P, "interior")


@PROPERTY
@given(rational_polytopes())
def test_report_fields_match_standalone_entry_points(P):
    report = ehrhart_report(P)
    assert report.hstar == hstar_polytope(P)
    assert report.hstar_boundary == hstar_boundary(P)
    assert report.hstar_interior == hstar_interior(P)
    assert report.decomposition == stapledon_report(P)
    assert report.audit == inequality_audit(P)


@PROPERTY
@given(rational_polytopes())
def test_visibility_masks_are_slack_signs(P):
    for cone in (half_open_cone(P, P.vertices[0]), EhrhartReport(P).cone[1]):
        assert [cell.missing for cell in cone.cells] == slack_masks(cone, cone.y)


@PROPERTY
@given(polytopes_and_maps())
def test_hstar_invariant_under_lattice_maps(case):
    P, maps = case
    h = hstar_polytope(P)
    for f in maps:
        assert hstar_polytope(build_polytope([f(v) for v in P.vertices])) == h


@PROPERTY
@given(rational_polytopes())
def test_pieces_follow_the_pulling_rule(P):
    check_pulled_pieces(P)


@PROPERTY
@given(rational_polytopes())
def test_vertex_numbering_is_lexicographic(P):
    """Index tuples stand in for point tuples: each incidence bitmask selects
    the vertices with zero slack on its facet, and the pulled pieces map back
    to ascending point tuples in the order the point tuples sort in."""
    for hs, face in zip(P.facets, P._incidence):
        assert face == sum(1 << i for i, v in enumerate(P.vertices) if hs.slack(v) == 0)
    for pieces in (_pull_facets(P), _pull_facets(P, P.vertices[0])):
        points = [tuple(P.vertices[i] for i in piece) for piece in pieces]
        assert all(list(p) == sorted(set(p)) for p in points)
        assert points == sorted(points)


@st.composite
def polytopes_and_unimodular_images(draw):
    """A polytope with d = 4, 5, q <= 2 and d + 1 to d + 2 vertices, and its
    image under a random unimodular map (a signed permutation times unit row
    operations) plus an integer translation."""
    d = draw(st.integers(4, 5))
    q = draw(st.integers(1, 2))
    coordinate = st.integers(-q, q).map(lambda n: Fraction(n, q))
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 2))
    P = build_polytope(points)
    assume(P.dim == d)
    order = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    M = [[signs[i] if j == order[i] else 0 for j in range(d)] for i in range(d)]
    index = st.integers(0, d - 1)
    for i, j, k in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=4)):
        if i != j:
            M[i] = [a + k * b for a, b in zip(M[i], M[j])]
    shift = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    image = [tuple(sum(a * c for a, c in zip(row, v)) + t for row, t in zip(M, shift))
             for v in P.vertices]
    return P, build_polytope(image)


@settings(PROPERTY, max_examples=25)
@given(polytopes_and_unimodular_images())
def test_metamorphic_in_dimensions_four_and_five(case):
    """No oracle: h* is invariant under the lattice map, boundary h* is
    palindromic of degree qd, and h*(1) = d! q^(d+1) vol (what `volume`
    reads) matches the volume of the boundary pieces coned over a point."""
    P, image = case
    q, d = P.denominator_q, P.dim
    pieces = check_pulled_pieces(P)
    h = hstar_polytope(P)
    assert hstar_polytope(image) == h
    assert hstar_boundary(P).is_palindromic(q * d)
    assert h.evaluate_at_one() == factorial(d) * q ** (d + 1) * cone_volume(P, pieces)


@st.composite
def redundant_point_sets(draw):
    """Rational points spanning R^d, d <= 4, q <= 3, with redundant ones: the
    midpoints of some pairs and, for d <= 3, possibly the cube [-1, 1]^d with
    its facet centres and its centre, which holds every other point."""
    d = draw(st.integers(1, 4))
    q = draw(st.integers(1, 3))
    coordinate = st.integers(-q, q).map(lambda n: Fraction(n, q))
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 4))
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=3))
    points += [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in pairs]
    if d <= 3 and draw(st.booleans()):
        points += list(product((-1, 1), repeat=d)) + [(0,) * d]
        points += [tuple(s * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    assume(build_polytope(points).dim == d)
    return points


@PROPERTY
@given(redundant_point_sets())
def test_hull_matches_brute_force(points):
    P = build_polytope(points)
    assert (P.vertices, P.facets) == brute_force_hull(points)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 7 by 7, many of them rank-deficient: each row is
    a small combination of at most as many random rows as the matrix has."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.integers(-4, 4)
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=rows))
    weights = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)),
                            min_size=rows, max_size=rows))
    return [[sum(w * b[c] for w, b in zip(ws, base)) for c in range(cols)] for ws in weights]


def _solve_outcome(solve, rows, rhs):
    try:
        return solve(rows, rhs)
    except ValueError:
        return "not unique"


@settings(PROPERTY, max_examples=300)
@given(integer_matrices(), st.data())
def test_integer_elimination_matches_fractions(rows, data):
    assert matrix_rank(rows) == _int_rank(rows) == fraction_rank(rows)
    d = len(rows[0])
    if len(rows) == d - 1 and fraction_rank(rows) == d - 1:
        points = [(Fraction(0),) * d] + [tuple(map(Fraction, row)) for row in rows]
        normal = hyperplane_through(points)[0]
        assert _int_normal(rows, d) in (normal, tuple(-a for a in normal))
    # Row and column denominators up to 8 mix the entries' denominators and keep
    # the rank; b = A x0 is consistent, a free b is inconsistent unless A has full row rank.
    row_dens = data.draw(st.lists(st.integers(1, 8), min_size=len(rows), max_size=len(rows)))
    col_dens = data.draw(st.lists(st.integers(1, 8), min_size=d, max_size=d))
    a = [[Fraction(x, r * c) for x, c in zip(row, col_dens)] for row, r in zip(rows, row_dens)]
    entry = st.fractions(-4, 4, max_denominator=8)
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(entry, min_size=d, max_size=d))
        rhs = [dot(row, x0) for row in a]
    else:
        rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    assert _solve_outcome(solve_unique, a, rhs) == _solve_outcome(fraction_solve, a, rhs)
    # zeroing entries of the leading square block makes row swaps common
    k = min(len(rows), d)
    zeros = data.draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    square = [[0 if zeros[i * k + j] else a[i][j] for j in range(k)] for i in range(k)]
    assert determinant(square) == fraction_determinant(square)


@st.composite
def parallelepipeds(draw):
    """A half-open simplex in R^d, d <= 3, with heights clearing its denominators.

    It has d + 1 vertices (a cone cell: square generator matrix) or d (a
    boundary cell: d + 1 by d), and heights either a multiple of each vertex's
    denominator or the b-route's (q, ..., q, ell).
    """
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from((d, d + 1)))
    dens = draw(st.lists(st.integers(1, 2 if d == 3 else 3), min_size=n, max_size=n))
    vertices = tuple(tuple(Fraction(draw(st.integers(-den, den)), den) for _ in range(d))
                     for den in dens)
    if n > 1 and draw(st.booleans()):
        q = lcm(*dens[:-1])
        heights = [q] * (n - 1) + [dens[-1] * draw(st.integers(1, 2))]
    else:
        heights = [den * draw(st.integers(1, 2)) for den in dens]
    missing = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    try:
        S = HalfOpenSimplex(vertices, missing)
    except AffinelyDependent:
        assume(False)
    return S, heights


@settings(PROPERTY, max_examples=150)
@given(parallelepipeds())
def test_residue_walk_matches_box_scan(cell):
    S, heights = cell
    walked = sorted((point, tuple(Fraction(a, big) for a in nums))
                    for point, nums, big in fpp_lattice_points(S, heights))
    assert walked == brute_force_fpp_points(S.vertices, S.missing, heights)


@st.composite
def unimodular_cells(draw):
    """A face of a unimodular simplex in R^d, d <= 3, with d + 1 or d vertices:
    the standard simplex moved by an integer translation and unit
    transvections.  Its heights are all one, a walk of one residue, or drawn
    from 1 and 2."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from((d, d + 1)))
    shift = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    points = [list(shift)] + [[c + (i == k) for k, c in enumerate(shift)] for i in range(d)]
    for _ in range(draw(st.integers(0, 3)) if d > 1 else 0):
        i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        sign = draw(st.sampled_from((1, -1)))
        for p in points:
            p[i] += sign * p[j]
    picked = draw(st.permutations(points))[:n]
    missing = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    S = HalfOpenSimplex(tuple(tuple(Fraction(c) for c in p) for p in picked), missing)
    if draw(st.booleans()):
        return S, [1] * n
    return S, draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))


@settings(PROPERTY, max_examples=200)
@given(st.one_of(parallelepipeds(), unimodular_cells()))
def test_residue_count_is_the_parallelepiped_size(cell):
    """The cell's residue count times prod h / L is the number of residues
    the walk yields and the box scan finds; a walk of one residue yields the
    scan's point, with numerators 0 or 1 over 1."""
    S, heights = cell
    count = S._count * prod(h // point_denominator(v) for h, v in zip(heights, S.vertices))
    walked = list(fpp_lattice_points(S, heights))
    scanned = brute_force_fpp_points(S.vertices, S.missing, heights)
    assert count == len(walked) == len(scanned)
    if count == 1:
        [(point, nums, big)] = walked
        assert big == 1 and [(point, tuple(map(Fraction, nums)))] == scanned
