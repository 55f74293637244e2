"""Property and metamorphic tests over random rational polytopes, d <= 3, q <= 3,
with an oracle check also in d = 4, q <= 2, the oracle's counts against a
point-by-point scan in d <= 5, an oracle-free metamorphic check
in d = 4, 5, q <= 2 and one through the lattice chart of polytopes embedded
in higher dimension, over random point sets in d <= 4 for the hull, and over
random half-open simplices for the parallelepiped walk.

Examples are derandomized, so every run draws the same polytopes.
"""

from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrkit import ehrhart
from ehrkit.decomposition import EhrhartReport, ehrhart_report, inequality_audit, stapledon_report
from ehrkit.decomposition import hstar_boundary, hstar_interior, hstar_polytope
from ehrkit.ehrhart import fpp_lattice_points
from ehrkit.errors import AffinelyDependent, NoLatticePoints
from ehrkit.geometry import build_polytope, point_denominator, project_to_affine_hull
from ehrkit.linalg import (_int_normal, _int_rank, _residue_count, _scaled, determinant, dot,
                           solve_unique)
from ehrkit.oracle import count_points, hstar_from_counts
from ehrkit.triangulation import (HalfOpenSimplex, _apex, _pull_facets, half_open_cone,
                                 half_open_decompose, triangulate_boundary)

from helpers import (brute_force_count, brute_force_fpp_points, brute_force_hull,
                     check_pulled_pieces, cone_volume, fraction_determinant, fraction_rank,
                     fraction_solve, hyperplane_through, slack_masks, smith_digits)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def rational_polytopes(draw, dims=(1, 3), denominators=(1, 3)):
    d = draw(st.integers(*dims))
    q = draw(st.integers(*denominators))
    span = q if d >= 3 else 2 * q  # keeps the oracle's boxes small in d >= 3
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


def check_pipeline_matches_oracle(P):
    assert hstar_polytope(P) == hstar_from_counts(P, "closed")
    assert hstar_boundary(P) == hstar_from_counts(P, "boundary")
    assert hstar_interior(P) == hstar_from_counts(P, "interior")


@PROPERTY
@given(rational_polytopes())
def test_pipeline_matches_oracle(P):
    check_pipeline_matches_oracle(P)


@settings(PROPERTY, max_examples=8)
@given(rational_polytopes(dims=(4, 4), denominators=(1, 2)))
def test_pipeline_matches_oracle_in_4d(P):
    """Coordinates in [-1, 1] keep the oracle's boxes small in d = 4."""
    check_pipeline_matches_oracle(P)


@settings(PROPERTY, max_examples=60)
@given(rational_polytopes(dims=(1, 5)))
def test_oracle_counts_match_point_by_point(P):
    """The oracle's row sweep, whose boxes are padded to two axes in d = 1, 2,
    whose rows are clipped to the projections of nP in d >= 3 and whose
    facets have last normal entries 0, +-1 and larger, against a
    point-by-point test of its box."""
    for n in (1, 2):
        for mode in ("closed", "interior", "boundary"):
            assert count_points(P, n, mode) == brute_force_count(P, n, mode), (n, mode)


@PROPERTY
@given(rational_polytopes())
def test_report_fields_match_standalone_entry_points(P):
    report = ehrhart_report(P)
    assert report.hstar == hstar_polytope(P)
    assert report.hstar_boundary == hstar_boundary(P)
    assert report.hstar_interior == hstar_interior(P)
    assert report.decomposition == stapledon_report(P)
    assert report.audit == inequality_audit(P)
    assert report.audit.all_passed


@PROPERTY
@given(rational_polytopes())
def test_visibility_masks_are_slack_signs(P):
    for cone in (half_open_cone(P, P.vertices[0]), EhrhartReport(P).cone[1]):
        assert [cell.missing for cell in cone.cells] == slack_masks(cone, cone.y)


def check_pipeline_counts(P):
    """Every cell of both cones, and every boundary cell, the report's and
    those from closed pulled cells given back, carries the count that the
    Smith form of its own columns gives."""
    boundary, cone = EhrhartReport(P).cone
    given_back = half_open_decompose(triangulate_boundary(P), P)[0].simplices
    cells = (half_open_cone(P, P.vertices[0]).cells + cone.cells + boundary.simplices
             + given_back)
    assert [S._count for S in cells] == [_residue_count(S._columns) for S in cells]


def test_pipeline_counts_on_the_corpus(corpus_polytope):
    check_pipeline_counts(corpus_polytope)


@PROPERTY
@given(rational_polytopes())
def test_pipeline_counts_are_residue_counts(P):
    check_pipeline_counts(P)


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
    for pieces in (_pull_facets(P), _pull_facets(P, _apex(P, P.vertices[0])[1])):
        points = [tuple(P.vertices[i] for i in piece) for piece in pieces]
        assert all(list(p) == sorted(set(p)) for p in points)
        assert points == sorted(points)


@st.composite
def unimodular_matrices(draw, n):
    """A signed permutation matrix of size n times up to four unit row operations."""
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    M = [[signs[i] if j == order[i] else 0 for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for i, j, k in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=4)):
        if i != j:
            M[i] = [a + k * b for a, b in zip(M[i], M[j])]
    return M


def affine_image(M, shift, points):
    return [tuple(dot(row, v) + t for row, t in zip(M, shift)) for v in points]


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
    M = draw(unimodular_matrices(d))
    shift = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return P, build_polytope(affine_image(M, shift, P.vertices))


@settings(PROPERTY, max_examples=25)
@given(polytopes_and_unimodular_images())
def test_metamorphic_in_dimensions_four_and_five(case):
    """No oracle: h* is invariant under the lattice map, boundary h* is
    palindromic of degree qd, and h*(1) = d! q^(d+1) vol (what `volume`
    reads) matches the volume of the boundary pieces coned over a point, and
    every applicable requirement of the inequality audit holds."""
    P, image = case
    q, d = P.denominator_q, P.dim
    pieces = check_pulled_pieces(P)
    report = EhrhartReport(P)
    h = report.hstar
    assert hstar_polytope(image) == h
    assert report.hstar_boundary.is_palindromic(q * d)
    assert h.evaluate_at_one() == factorial(d) * q ** (d + 1) * cone_volume(P, pieces)
    assert report.audit.all_passed


@st.composite
def polytopes_in_charts(draw):
    """A full-dimensional polytope with d = 2, 3 and q = 1, 2, a unimodular
    matrix M of size d + k for k = 1, 2, and an integer translation t."""
    d = draw(st.integers(2, 3))
    q = draw(st.integers(1, 2))
    k = draw(st.integers(1, 2))
    coordinate = st.integers(-q, q).map(lambda n: Fraction(n, q))
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 2))
    P = build_polytope(points)
    assume(P.dim == d)
    shift = draw(st.lists(st.integers(-3, 3), min_size=d + k, max_size=d + k))
    return P, draw(unimodular_matrices(d + k)), shift


@settings(PROPERTY, max_examples=30)
@given(polytopes_in_charts())
def test_chart_of_a_lattice_embedding_keeps_hstar(case):
    """P placed at x -> M (x, 0, ...) + t is charted back with the same h*;
    placed at M (x, 1/2, 0, ...) + t, its affine hull holds no lattice point."""
    P, M, shift = case
    zeros = (Fraction(0),) * (len(M) - P.dim - 1)
    flat = build_polytope(affine_image(M, shift, [v + (Fraction(0),) + zeros for v in P.vertices]))
    assert hstar_polytope(project_to_affine_hull(flat)) == hstar_polytope(P)
    off = build_polytope(affine_image(M, shift, [v + (Fraction(1, 2),) + zeros for v in P.vertices]))
    with pytest.raises(NoLatticePoints):
        project_to_affine_hull(off)


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
    assert _int_rank(rows) == fraction_rank(rows)
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
    assert _int_rank(_scaled(a)[1]) == fraction_rank(rows)
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
def block_cells(draw):
    """A half-open simplex whose largest Smith digit reaches the walk's column
    blocks, with a chunk size for the walk.

    The standard simplex in R^d, d <= 3, is scaled by a prime p >= 17 on its
    last axis, so p divides the residue count, and by 1 to 3 on the others,
    one of which is sometimes scaled by a second such prime instead, so that
    two digits can reach the blocks and their passes stack.  It is then
    moved by an integer translation and, for d = 2, a unit transvection.
    It keeps all d + 1 vertices or drops one that is not p's, and its heights
    are (q, ..., q, ell).  The chunk is small, to put chunk seams inside the
    blocks, or the module's own.
    """
    d = draw(st.integers(1, 3))
    p = draw(st.sampled_from((17, 19, 23)))
    scales = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1)) + [p]
    if d > 1 and draw(st.booleans()):
        scales[draw(st.integers(0, d - 2))] = draw(st.sampled_from((17, 19, 23)))
    shift = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    points = [list(shift)] + [[c + s * (i == k) for k, c in enumerate(shift)]
                              for i, s in enumerate(scales)]
    if d == 2 and draw(st.booleans()):
        i, j = draw(st.sampled_from([(0, 1), (1, 0)]))
        for point in points:
            point[i] += point[j]
    if draw(st.booleans()):
        del points[draw(st.integers(0, d - 1))]
    order = draw(st.permutations(points))
    n = len(order)
    missing = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    q, ell = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    S = HalfOpenSimplex(tuple(tuple(Fraction(c) for c in point) for point in order), missing)
    return S, [q] * (n - 1) + [ell], draw(st.sampled_from((5, 16, ehrhart._BLOCK_CHUNK)))


@settings(PROPERTY, max_examples=30)
@given(block_cells())
def test_block_walk_matches_box_scan(cell):
    """Cells whose largest Smith digit reaches the column blocks walk the box
    scan's points and coefficients, at any chunk size."""
    S, heights, chunk = cell
    assume(max(smith_digits(S, heights)) >= ehrhart._BLOCK_DIGIT)
    with mock.patch.object(ehrhart, "_BLOCK_CHUNK", chunk):
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
