import tracemalloc
from fractions import Fraction as F
from itertools import product
from math import comb, prod

import pytest

from ehrkit import ehrhart
from ehrkit.errors import (ENUMERATION_LIMIT, IdentityViolated, NonIntegralGenerator,
                           NotFullDimensional, WalkTooLarge)
from ehrkit.geometry import build_polytope, dilate, point_denominator
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.decomposition import (
    EhrhartReport,
    boundary_series,
    ehrhart_series,
    hstar_boundary,
    hstar_interior,
    hstar_polytope,
    quasi_coefficients,
    volume,
)
from ehrkit.ehrhart import SeriesForm, fpp_lattice_points, fpp_points, hstar_cells, hstar_simplex
from ehrkit import triangulation
from ehrkit.triangulation import (HalfOpenSimplex, half_open_cone, half_open_decompose,
                                  triangulate_boundary)
from ehrkit.oracle import count_points, hstar_from_counts

from conftest import bundle_for
from helpers import brute_force_fpp, brute_force_fpp_points, generic_points, smith_digits


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


# -- fundamental parallelepipeds -------------------------------------------------

def test_fpp_closed_unit_segment():
    S = HalfOpenSimplex.closed(pts((0,), (1,)))
    assert fpp_points(S, [1, 1]) == (0,)


def test_fpp_half_open_unit_segment():
    S = HalfOpenSimplex(tuple(pts((0,), (1,))), (True, False))
    assert fpp_points(S, [1, 1]) == (1,)


def test_fpp_half_segment_heights_two():
    # brute-force oracle over the 4-point parallelepiped gives (0, 1, 2, 3)
    verts = pts((F(-1, 2),), (F(1, 2),))
    expected = brute_force_fpp(verts, (False, False), [2, 2])
    assert expected == (0, 1, 2, 3)
    S = HalfOpenSimplex.closed(verts)
    assert fpp_points(S, [2, 2]) == expected


def test_fpp_matches_brute_force_on_mixed_masks():
    cases = [
        (pts((0, 0), (1, 0), (0, 1)), (False, True, True), [1, 1, 1]),
        (pts((0, 0), (2, 0), (0, 2)), (True, False, False), [1, 1, 1]),
        (pts((F(-1, 2),), (F(1, 2),)), (True, False), [2, 2]),
        (pts((0, 0), (0, 1), (F(5, 2), 1)), (False, False, False), [2, 2, 2]),
        (pts((2, 0), (0, 2)), (False, True), [1, 1]),
        (pts((0, 0, 0), (2, 4, 6)), (True, False), [1, 1]),
    ]
    for verts, missing, heights in cases:
        S = HalfOpenSimplex(tuple(verts), missing)
        assert fpp_points(S, heights) == brute_force_fpp(verts, missing, heights)


def test_fpp_multiset_size_is_determinant():
    S = HalfOpenSimplex.closed(pts((0, 0), (2, 0), (0, 2)))
    assert len(fpp_points(S, [1, 1, 1])) == 4
    S = HalfOpenSimplex.closed(pts((F(-1, 2),), (F(1, 2),)))
    assert len(fpp_points(S, [2, 2])) == 4
    # a segment in R^3 takes its count, 2, from its Smith invariants
    S = HalfOpenSimplex.closed(pts((0, 0, 0), (2, 4, 6)))
    assert S._count == len(fpp_points(S, [1, 1])) == 2


def test_fpp_mixed_heights():
    # heights may differ per vertex when they clear that vertex's denominator
    S = HalfOpenSimplex.closed(pts((0,), (F(1, 2),)))
    assert fpp_points(S, [1, 2]) == brute_force_fpp(pts((0,), (F(1, 2),)), (False, False), [1, 2])
    with pytest.raises(NonIntegralGenerator):
        fpp_points(S, [1, 1])


def test_heights_must_be_positive_ints():
    """A height is never rounded: 1.5 is not 1 and '2' is not 2."""
    S = HalfOpenSimplex.closed(pts((0,), (2,)))
    assert fpp_points(S, [1, 1]) == (0, 1)
    for heights in ([1.5, 1], ["2", 1], [F(2), 1], [True, 1], [0, 1], [-1, 1]):
        with pytest.raises(ValueError, match="positive integers"):
            fpp_points(S, heights)
        with pytest.raises(ValueError, match="positive integers"):
            fpp_lattice_points(S, heights)


def test_walk_over_the_limit_raises_before_any_residue():
    S = HalfOpenSimplex.closed(pts((0,), (ENUMERATION_LIMIT + 1,)))
    with pytest.raises(WalkTooLarge):
        next(iter(fpp_lattice_points(S, [1, 1])))


def test_walk_limit_is_checked_before_the_smith_form(monkeypatch):
    """The residue count, the cell's count times prod h / L, is read off the
    cell, so an oversized walk never reaches diagonalize: a cone cell, a
    boundary cell, and a unimodular segment at large heights."""
    def smith(rows):
        raise AssertionError("diagonalize ran before the size limit")
    monkeypatch.setattr(ehrhart, "diagonalize", smith)
    big = ENUMERATION_LIMIT + 1
    cases = [(HalfOpenSimplex.closed(pts((0,), (big,))), [1, 1], big),
             (HalfOpenSimplex.closed(pts((0, 0), (big, 0))), [1, 1], big),
             (HalfOpenSimplex.closed(pts((0,), (1,))), [10 ** 4 + 1, 10 ** 4], 10 ** 8 + 10 ** 4)]
    for S, heights, count in cases:
        with pytest.raises(WalkTooLarge, match="has %d residues" % count):
            fpp_lattice_points(S, heights)


def test_whole_walk_limit_is_checked_before_any_cell(monkeypatch):
    """Cells each under the limit can add up past it: the four h* cells of
    cross-3d dilated by 1/(3 * 10^7) hold 6 * 10^7 residues each."""
    def walk(S, heights):
        raise AssertionError("a cell was walked before the total was checked")
    monkeypatch.setattr(ehrhart, "fpp_lattice_points", walk)
    cross = build_polytope(pts((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                               (0, 0, -1)))
    with pytest.raises(WalkTooLarge, match="have 240000000 residues in all"):
        hstar_polytope(dilate(cross, F(1, 3 * 10 ** 7)))


def test_q_limit_is_checked_before_the_generic_point_search(monkeypatch):
    """Every h* cone cell holds at least q residues, so the standard 3-simplex
    dilated by 10^-12, too thin for the generic-point search, is refused by
    size first."""
    def search(*args):
        raise AssertionError("the generic-point search ran")
    monkeypatch.setattr(triangulation, "_generic_point", search)
    simplex = build_polytope(pts((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(WalkTooLarge, match="q = %d" % 10 ** 12):
        hstar_polytope(dilate(simplex, F(1, 10 ** 12)))


def test_one_residue_walk_skips_the_smith_form(monkeypatch):
    """A unimodular cell at heights L yields its one point, the generators
    opposite the missing facets, without diagonalize."""
    def smith(rows):
        raise AssertionError("diagonalize ran on a walk of one residue")
    monkeypatch.setattr(ehrhart, "diagonalize", smith)
    S = HalfOpenSimplex(tuple(pts((0, 0), (1, 0), (0, 1))), (False, True, True))
    assert list(fpp_lattice_points(S, [1, 1, 1])) == [((1, 1, 2), (0, 1, 1), 1)]
    S = HalfOpenSimplex(tuple(pts((F(1, 2), 0), (0, 1))), (True, False))
    assert list(fpp_lattice_points(S, [2, 1])) == [((1, 0, 2), (1, 0), 1)]


def double_pipeline_counts(monkeypatch):
    """Double the count each cone cell takes from its visibility solve, and
    so each boundary cell's, which is its cone cell's over a facet distance."""
    real = triangulation._visible

    def doubled(cell, y):
        seen = real(cell, y)
        return seen and (seen[0], 2 * seen[1])
    monkeypatch.setattr(triangulation, "_visible", doubled)


def test_smith_invariants_must_match_the_residue_count(monkeypatch):
    """The count of the elimination and the Smith form are two routes to the
    number of residues; a cell whose count disagrees is refused."""
    S = HalfOpenSimplex.closed(pts((0, 0), (2, 0), (0, 2)))
    assert S._count == 4
    object.__setattr__(S, "_count", 2)
    with pytest.raises(IdentityViolated, match="residues, not"):
        fpp_lattice_points(S, [1, 1, 1])
    double_pipeline_counts(monkeypatch)
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    with pytest.raises(IdentityViolated, match="residues, not"):
        hstar_polytope(sq)


def test_smith_invariants_must_match_the_boundary_count(monkeypatch):
    """boundary h* walks only the boundary cells, so the doubled count that
    reaches the check is a boundary cell's."""
    double_pipeline_counts(monkeypatch)
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    with pytest.raises(IdentityViolated, match="residues, not"):
        hstar_boundary(sq)


def _residues(cells, q):
    """Residues the cells walk at heights q: each count times prod q / L."""
    return sum(S._count * prod(q // point_denominator(v) for v in S.vertices) for S in cells)


def test_cell_counts_sum_to_hstar_at_one(corpus_bundle):
    """Sigma |det| = h*(1) over the h* cone's cells, and the same over the
    boundary cells for boundary h*, read off the cells' residue counts."""
    P = corpus_bundle.polytope
    q = P.denominator_q
    cells = half_open_cone(P, P.vertices[0]).cells
    assert _residues(cells, q) == corpus_bundle.hstar.evaluate_at_one()
    boundary = EhrhartReport(P).cone[0].simplices
    assert _residues(boundary, q) == corpus_bundle.hstar_boundary.evaluate_at_one()


def test_walk_memory_does_not_grow_with_det():
    # det = 316^2 = 99856 residues over two Smith digits of 316, each walked
    # in its own block pass; a list of them would take about 20 MB.  A first
    # untraced walk fills the interpreter's free lists, so the traced one
    # allocates only what it keeps.
    S = HalfOpenSimplex((pts((0, 0), (316, 0), (0, 316))), (False, True, False))
    sum(1 for _ in fpp_lattice_points(S, [1, 1, 1]))
    tracemalloc.start()
    try:
        walked = sum(1 for _ in fpp_lattice_points(S, [1, 1, 1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert walked == 316 ** 2
    assert peak < 64 * 1024


# -- column blocks ----------------------------------------------------------------

# Cells whose largest Smith digit reaches _BLOCK_DIGIT: segments of length
# 17 and 1100 (three chunks of 512), Z/4 + Z/40 in the plane (two digits
# above 1 in any diagonal form), a q = 2 cell at heights (q, q, ell), a
# cone cell and a boundary cell in R^3, and the 17 x 17 triangle, whose two
# digits (17 and 17, or 34 and 102) both reach it, so its blocks stack.
BLOCK_CELLS = [
    (pts((0,), (1100,)), [1, 1]),
    (pts((0,), (17,)), [2, 3]),
    (pts((0, 0), (4, 0), (0, 40)), [1, 1, 1]),
    (pts((0, 0), (4, 0), (0, 40)), [2, 2, 3]),
    (pts((F(3, 2), 0), (0, F(41, 2)), (1, 1)), [2, 2, 3]),
    (pts((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 19)), [1, 1, 1, 2]),
    (pts((0, 0, 0), (2, 0, 0), (0, 0, 19)), [1, 1, 1]),
    (pts((0, 0), (17, 0), (0, 17)), [1, 1, 1]),
    (pts((0, 0), (17, 0), (0, 17)), [2, 2, 3]),
]


@pytest.mark.parametrize("chunk", [7, ehrhart._BLOCK_CHUNK])
@pytest.mark.parametrize("verts, heights", BLOCK_CELLS)
def test_block_walk_matches_box_scan(monkeypatch, verts, heights, chunk):
    """Every mask of a cell that reaches the column blocks walks the box
    scan's points and coefficients, with chunks of 7 (many chunk seams) and
    of the module's size."""
    monkeypatch.setattr(ehrhart, "_BLOCK_CHUNK", chunk)
    n = len(verts)
    assert max(smith_digits(HalfOpenSimplex.closed(verts), heights)) >= ehrhart._BLOCK_DIGIT
    for bits in range(2 ** n):
        S = HalfOpenSimplex(tuple(verts), tuple(bool(bits >> j & 1) for j in range(n)))
        walked = sorted((point, tuple(F(a, big) for a in nums))
                        for point, nums, big in fpp_lattice_points(S, heights))
        assert walked == brute_force_fpp_points(verts, S.missing, heights)


def test_block_cells_have_a_second_digit():
    digits = smith_digits(HalfOpenSimplex.closed(pts((0, 0), (4, 0), (0, 40))), [1, 1, 1])
    assert sorted(digits)[-2] > 1 and max(digits) >= ehrhart._BLOCK_DIGIT
    for heights in ([1, 1, 1], [2, 2, 3]):
        digits = smith_digits(HalfOpenSimplex.closed(pts((0, 0), (17, 0), (0, 17))), heights)
        assert sorted(digits)[-2] >= ehrhart._BLOCK_DIGIT


def test_walk_runs_one_block_pass_per_large_digit(monkeypatch):
    """Digits below _BLOCK_DIGIT are enumerated directly and each larger one
    gets its own block pass: none for a cube-4d cone cell (digits 1, 2, 2,
    2, 2), one for [0, 1100] and two for the 17 x 17 triangle."""
    real, passes = ehrhart._blocks, []

    def counted(*args):
        passes.append(args[1])
        return real(*args)
    monkeypatch.setattr(ehrhart, "_blocks", counted)
    cube = EhrhartReport(build_polytope(list(product((0, 1), repeat=4))))
    cases = [(cube.cone[1].cells[0], [2] * 5, []),
             (HalfOpenSimplex.closed(pts((0,), (1100,))), [1, 1], [1100]),
             (HalfOpenSimplex.closed(pts((0, 0), (17, 0), (0, 17))), [1, 1, 1], [17, 17])]
    for S, heights, blocks in cases:
        passes.clear()
        assert len(list(fpp_lattice_points(S, heights))) == prod(smith_digits(S, heights))
        assert passes == blocks


def test_segment_closed_form():
    """[0, N] at height 1 has h* = 1 + (N - 1)z, its cell's N residues one
    block of several chunks."""
    N = 3 * ehrhart._BLOCK_CHUNK + 5
    S = HalfOpenSimplex.closed(pts((0,), (N,)))
    assert fpp_points(S, [1, 1]) == (0,) + (1,) * (N - 1)
    assert hstar_polytope(build_polytope(pts((0,), (N,)))) == GP.from_list([1, N - 1])


def test_block_walk_memory_does_not_grow_with_det():
    """Cyclic walks of 10^5 and 10^6 residues, each one block of many
    chunks, peak at the same traced memory up to a small margin."""
    cells = {N: HalfOpenSimplex.closed(pts((0,), (N,))) for N in (10 ** 5, 10 ** 6)}
    for N, S in cells.items():
        assert max(smith_digits(S, [1, 1])) == N > 2 * ehrhart._BLOCK_CHUNK
    sum(1 for _ in fpp_lattice_points(cells[10 ** 5], [1, 1]))  # fills free lists untraced
    peaks = []
    for N, S in cells.items():
        tracemalloc.start()
        try:
            assert sum(1 for _ in fpp_lattice_points(S, [1, 1])) == N
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4 * 1024


def test_hstar_simplex_examples():
    tri = HalfOpenSimplex.closed(pts((0, 0), (1, 0), (0, 1)))
    assert hstar_simplex(tri, 1) == GP.one()
    edge = HalfOpenSimplex.closed(pts((2, 0), (0, 2)))
    assert hstar_simplex(edge, 1) == GP.from_list([1, 1])
    seg = HalfOpenSimplex.closed(pts((F(-1, 2),), (F(1, 2),)))
    assert hstar_simplex(seg, 2) == GP.from_list([1, 1, 1, 1])


# -- h* of polytopes --------------------------------------------------------------

def test_hstar_polytope_examples():
    seg = build_polytope(pts((F(-1, 2),), (F(1, 2),)))
    assert hstar_polytope(seg) == GP.from_list([1, 1, 1, 1])
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    assert hstar_polytope(sq) == GP.from_list([1, 1])
    sq2 = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2)))
    assert hstar_polytope(sq2) == GP.from_list([1, 6, 1])
    with pytest.raises(NotFullDimensional):
        hstar_polytope(build_polytope(pts((0, 0), (1, 1))))


def test_hstar_boundary_examples():
    sq2 = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2)))
    assert hstar_boundary(sq2) == GP.from_list([1, 6, 1])
    skew = build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))
    assert hstar_boundary(skew) == GP.from_list([1, 4, 1])
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    assert hstar_boundary(sq) == GP.from_list([1, 2, 1])


def test_hstar_interior_examples():
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    assert hstar_interior(sq) == GP.from_dict({2: 1, 3: 1})
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    assert hstar_interior(box) == GP.from_dict({1: 1, 2: 6, 3: 1})
    seg = build_polytope(pts((F(-1, 2),), (F(1, 2),)))
    assert hstar_interior(seg) == GP.from_dict({1: 1, 2: 1, 3: 1, 4: 1})


def test_degree_bounds_and_divisibility(corpus_bundle):
    P = corpus_bundle.polytope
    q, d = P.denominator_q, P.dim
    h = corpus_bundle.hstar
    hb = corpus_bundle.hstar_boundary
    assert h.degree_key < q * (d + 1)
    assert hb.degree_key == q * d
    # geom(q) divides h*: (1 - z) h* is divisible by 1 - z^q
    assert h.times_one_minus(1).over_one_minus(q) is not None


def test_boundary_palindromic(corpus_bundle):
    hb = corpus_bundle.hstar_boundary
    P = corpus_bundle.polytope
    assert hb.is_palindromic(P.denominator_q * P.dim)


def test_interior_is_reversal_and_difference_identity(corpus_bundle):
    P = corpus_bundle.polytope
    q, d = P.denominator_q, P.dim
    h, hb, hi = (corpus_bundle.hstar, corpus_bundle.hstar_boundary,
                 corpus_bundle.hstar_interior)
    assert hi == h.reverse(q * (d + 1))
    one_minus_zq = GP.from_dict({0: 1, q: -1})
    assert h == hi + one_minus_zq * hb


def test_lattice_boundary_positive_and_lower_bound(corpus_bundle):
    P = corpus_bundle.polytope
    if not P.is_lattice:
        return
    d = P.dim
    hb = corpus_bundle.hstar_boundary.as_dict()
    assert all(hb.get(j, 0) > 0 for j in range(d + 1))
    assert hb.get(0) == 1
    for j in range(2, d):
        assert hb.get(1, 0) <= hb.get(j, 0)


def test_missing_face_lower_bound(corpus_bundle):
    """Boundary h* dominates the missing-face counts of any half-open triangulation."""
    P = corpus_bundle.polytope
    if not P.is_lattice:
        return
    boundary, _ = half_open_decompose(triangulate_boundary(P), P)
    counts = {}
    for S in boundary.simplices:
        counts[S.missing_count] = counts.get(S.missing_count, 0) + 1
    assert corpus_bundle.hstar_boundary.dominates(GP.from_dict(counts))


def test_missing_face_lower_bound_split_square():
    """The subdivided [0,3]^2 boundary gives the coefficient-wise bound 1+3z+z^2."""
    P = build_polytope(pts((0, 0), (0, 3), (3, 0), (3, 3)))
    T = [HalfOpenSimplex.closed(pts((0, 0), (0, 1))),
         HalfOpenSimplex.closed(pts((0, 1), (0, 3))),
         HalfOpenSimplex.closed(pts((0, 3), (3, 3))),
         HalfOpenSimplex.closed(pts((3, 0), (3, 3))),
         HalfOpenSimplex.closed(pts((0, 0), (3, 0)))]
    boundary, _ = half_open_decompose(T, P, y=(F(7, 5), F(2, 5)), apex=(2, 2))
    counts = {}
    for S in boundary.simplices:
        counts[S.missing_count] = counts.get(S.missing_count, 0) + 1
    assert GP.from_dict(counts) == GP.from_list([1, 3, 1])
    assert hstar_boundary(P) == GP.from_list([1, 10, 1])
    assert hstar_boundary(P).dominates(GP.from_list([1, 3, 1]))


def test_apex_and_generic_point_invariance():
    cases = [
        (build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3))),
         [(1, 1), (F(3, 2), F(5, 4)), (F(1, 2), F(1, 2))]),
        (dilate(build_polytope(pts((0, 0), (0, 2), (5, 2))), F(1, 2)),
         [(F(1, 2), F(1, 2)), (1, F(3, 4)), (F(3, 2), F(7, 8))]),
        (build_polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]),
         [(F(1, 2), F(1, 2), F(1, 2)), (F(1, 3), F(1, 4), F(1, 5)), (F(2, 3), F(1, 2), F(1, 3))]),
    ]
    for P, apexes in cases:
        T, q, v = triangulate_boundary(P), P.denominator_q, P.vertices[0]
        ys = generic_points(P)
        for a in apexes:
            boundaries = [half_open_decompose(T, P, y=y, apex=a)[0] for y in ys]
            assert len({tuple(S.missing for S in B.simplices) for B in boundaries}) > 1
            assert {hstar_cells(B.simplices, q) for B in boundaries} == {hstar_boundary(P)}
        top, slacks = triangulation._apex(P, v)
        hstar_values = {hstar_cells(triangulation._half_open(
            P, triangulation._pull_facets(P, slacks), v, top, y).cells, q) for y in ys}
        assert hstar_values == {hstar_polytope(P)}


def test_monotonicity_and_boundary_failure():
    from ehrkit.corpus import nested_lattice_pairs
    from ehrkit.geometry import contains
    for name, inner, outer in nested_lattice_pairs():
        assert all(contains(outer, v, "closed") for v in inner.vertices), name
        assert bundle_for(outer).hstar.dominates(bundle_for(inner).hstar), name
    # the worked pair witnesses that boundary monotonicity fails
    sq2 = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2)))
    skew = build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))
    hb_in, hb_out = bundle_for(sq2).hstar_boundary, bundle_for(skew).hstar_boundary
    assert hb_in.dominates(hb_out)
    assert not hb_out.dominates(hb_in)


# -- quasipolynomials and series ---------------------------------------------------

def test_quasi_coefficients_examples():
    tri = quasi_coefficients(build_polytope(pts((0, 0), (1, 0), (0, 1))))
    assert tri.coefficients == ((F(1),), (F(3, 2),), (F(1, 2),))
    sq = quasi_coefficients(build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1))))
    assert sq.coefficients == ((F(1),), (F(2),), (F(1),))
    seg = quasi_coefficients(build_polytope(pts((F(-1, 2),), (F(1, 2),))))
    assert seg.coefficients == ((F(1), F(0)), (F(1),))


def test_quasi_evaluates_to_counts(corpus_bundle):
    P = corpus_bundle.polytope
    quasi = quasi_coefficients(P)
    for n in range(1, 2 * P.denominator_q * (P.dim + 1) + 1):
        assert quasi.evaluate(n) == count_points(P, n, "closed")


def test_leading_quasi_coefficient_is_constant(corpus_bundle):
    P = corpus_bundle.polytope
    quasi = quasi_coefficients(P)
    assert len(quasi.coefficients[P.dim]) == 1
    assert quasi.coefficients[P.dim][0] == volume(P)


def test_lattice_sum_rules(corpus_bundle):
    """h*(1) = d! vol and boundary h*(1) = 2 (d-1)! k_{d-1} for lattice members."""
    from math import factorial
    P = corpus_bundle.polytope
    if not P.is_lattice or P.dim < 1:
        return
    d = P.dim
    assert corpus_bundle.hstar.evaluate_at_one() == factorial(d) * volume(P)
    quasi = quasi_coefficients(P)
    assert corpus_bundle.hstar_boundary.evaluate_at_one() == \
        2 * factorial(d - 1) * quasi.value(d - 1, 0)


def test_dimension_four_cross_and_cube():
    cross4 = build_polytope([tuple(s * (i == j) for j in range(4))
                             for i in range(4) for s in (1, -1)])
    h = hstar_polytope(cross4)
    assert h == GP.from_list([1, 4, 6, 4, 1])
    assert h == hstar_from_counts(cross4)
    assert hstar_boundary(cross4) == h  # reflexive
    cube4 = build_polytope(list(product((0, 1), repeat=4)))
    h = hstar_polytope(cube4)
    assert h == GP.from_list([1, 11, 11, 1])
    assert h == hstar_from_counts(cube4)


def test_dimension_five_cross_pipeline():
    # binomial h*, and the 5-D cone over x, which gives boundary h*, against
    # the counting oracle (about 0.5 s closed and 1 s boundary)
    cross5 = build_polytope([tuple(s * (i == j) for j in range(5))
                             for i in range(5) for s in (1, -1)])
    h = hstar_polytope(cross5)
    assert h == GP.from_list([1, 5, 10, 10, 5, 1]) == hstar_from_counts(cross5)
    assert hstar_boundary(cross5) == h == hstar_from_counts(cross5, "boundary")


def test_series_forms():
    sq2 = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2)))
    assert ehrhart_series(sq2).coefficients(4) == [1, 9, 25, 49]
    assert boundary_series(sq2).coefficients(4) == [1, 8, 16, 24]
    seg = build_polytope(pts((F(-1, 2),), (F(1, 2),)))
    assert ehrhart_series(seg).coefficients(6) == [1, 1, 3, 3, 5, 5]
    sf = SeriesForm(GP.from_list([1, 1, 1, 1]), F(2), 2)
    assert sf.coefficients(6) == [1, 1, 3, 3, 5, 5]


def test_series_form_with_no_denominator_is_its_numerator():
    assert SeriesForm(GP.from_list([1, 2]), F(1), 0).coefficients(4) == [1, 2, 0, 0]
    half = GP.from_dict({1: 3, 4: 1}, grid=2)
    assert SeriesForm(half, F(1, 2), 0).coefficients(6) == [0, 3, 0, 0, 1, 0]
    with pytest.raises(ValueError, match="power must be nonnegative"):
        SeriesForm(half, F(1, 2), -1).coefficients(6)


def test_series_form_matches_the_binomial_expansion():
    """Coefficient n of h / (1 - z^e)^k is the sum over j of h_(n - je) C(j + k - 1, k - 1)."""
    h = GP.from_dict({0: 1, 1: -2, 3: 5, 4: 1})
    for e, k in product((1, 2, 3), (1, 2, 4)):
        expected = [sum(h.coeff(n - j * e) * comb(j + k - 1, k - 1) for j in range(n // e + 1))
                    for n in range(12)]
        assert SeriesForm(h, F(e), k).coefficients(12) == expected


def test_series_form_rejects_a_nonpositive_exponent():
    # with exponent 0 or below there is no stride to sum the series along
    for e in (F(0), F(-1)):
        with pytest.raises(ValueError, match="must be positive"):
            SeriesForm(GP.from_list([1, 1]), e, 2).coefficients(4)
