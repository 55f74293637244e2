"""Every cross-check raises IdentityViolated when one route is forced wrong.

The checks are raises, not asserts, so these tests pass under ``python -O``
as well.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from ehrkit import corpus, decomposition, ehrhart, geometry, rational_ehrhart, triangulation
from ehrkit.errors import IdentityViolated
from ehrkit.geometry import Halfspace, Polytope, build_polytope, dilate, project_to_affine_hull
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.triangulation import HalfOpenSimplex, find_interior_point, half_open_decompose

from helpers import smith_digits

skew = build_polytope([(0, 0), (0, 2), (2, 0), (3, 3)])  # ell = 1, b = 3 + 3z
square2 = build_polytope([(0, 0), (0, 2), (2, 0), (2, 2)])


def test_library_has_no_assert_statements():
    # python -O strips asserts, so a check written as one would silently vanish
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(Path(geometry.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    if found:
        pytest.fail("assert statements in the library: " + ", ".join(found))


def add_residue(monkeypatch, module, height):
    """Make the height-count reader, at its name in module, report one more
    residue at height on every call."""
    real = module._height_counts

    def counts(*args, **kwargs):
        out = real(*args, **kwargs)
        out[height] = out.get(height, 0) + 1
        return out
    monkeypatch.setattr(module, "_height_counts", counts)


def test_hstar_constant_term(monkeypatch):
    add_residue(monkeypatch, ehrhart, 0)
    with pytest.raises(IdentityViolated, match="constant term"):
        decomposition.hstar_polytope(skew)


def test_hstar_degree(monkeypatch):
    add_residue(monkeypatch, ehrhart, 3)
    with pytest.raises(IdentityViolated, match="deg h"):
        decomposition.hstar_polytope(skew)


def test_boundary_constant_term(monkeypatch):
    add_residue(monkeypatch, ehrhart, 0)
    with pytest.raises(IdentityViolated, match="constant term"):
        decomposition.hstar_boundary(skew)


def test_apex_facet_never_visible():
    # a hand-made cell on the line x = 1, coned over an apex left of it, shows
    # its far facet to a y right of it; pulled boundary cells never do
    T = [HalfOpenSimplex.closed([(1, 0), (1, 2)])]
    with pytest.raises(IdentityViolated, match="opposite the apex"):
        half_open_decompose(T, square2, y=(F(3, 2), F(1, 2)), apex=(F(1, 2), 1))


def test_reciprocity(monkeypatch):
    ell, x = find_interior_point(skew)
    monkeypatch.setattr(decomposition, "find_interior_point", lambda P: (ell + 1, x))
    with pytest.raises(IdentityViolated, match="reciprocity"):
        decomposition.stapledon_report(skew)


def test_a_equals_boundary(monkeypatch):
    real = decomposition.hstar_cells
    monkeypatch.setattr(decomposition, "hstar_cells",
                        lambda cells, q: real(cells, q) + GP.monomial(1))
    with pytest.raises(IdentityViolated, match="boundary h"):
        decomposition.stapledon_report(skew)


def test_b_routes_agree(monkeypatch):
    real = decomposition.symmetric_decompose

    def wrong_b(*args):
        a, b = real(*args)
        return a, b + GP.one()
    monkeypatch.setattr(decomposition, "symmetric_decompose", wrong_b)
    with pytest.raises(IdentityViolated, match="algebraic b"):
        decomposition.stapledon_report(skew)


def test_b_route_heights_reach_ell():
    # at ell = 2 the half-integral apex multiples of (1, 1) sit at height 1
    with pytest.raises(IdentityViolated, match="minimality"):
        decomposition._b_polynomial(decomposition.EhrhartReport(skew).cone[1], 2)


def test_quasi_leading_coefficient(monkeypatch):
    real = ehrhart.interpolate_polynomial

    def wrong_lead(ns, values):
        coeffs = list(real(ns, values))
        coeffs[-1] += 1
        return coeffs
    monkeypatch.setattr(ehrhart, "interpolate_polynomial", wrong_lead)
    with pytest.raises(IdentityViolated, match="leading quasi-coefficient"):
        decomposition.quasi_coefficients(skew)


def test_unit_apex_pyramid(monkeypatch):
    # the base's h* is read through ehrhart's name, so only the pyramid doubles
    real = decomposition._height_counts
    monkeypatch.setattr(decomposition, "_height_counts",
                        lambda *args: {h: 2 * c for h, c in real(*args).items()})
    seg = build_polytope([(0, 0), (1, 0)])
    with pytest.raises(IdentityViolated, match="unit-apex"):
        decomposition.pyramid_hstar_compare(seg, (0, 1))


def test_residues_are_lattice_points(monkeypatch):
    real = ehrhart.diagonalize

    def coarse(rows):
        diag, vmat = real(rows)
        return [2 * s for s in diag], vmat
    monkeypatch.setattr(ehrhart, "diagonalize", coarse)
    with pytest.raises(IdentityViolated, match="non-lattice point"):
        decomposition.hstar_polytope(skew)


def test_block_residues_are_lattice_points(monkeypatch):
    """The coarse fault of test_residues_are_lattice_points, on cells whose
    largest Smith digit sends them to the column blocks: the digit
    columns' points are checked before the Smith product, so the fault
    reads as a non-lattice point, not as a wrong count."""
    segment = HalfOpenSimplex.closed([(F(0),), (F(100),)])
    plane = HalfOpenSimplex(tuple(tuple(map(F, v)) for v in ((0, 0), (4, 0), (0, 40))),
                            (True, False, True))
    cells = [(segment, [1, 1]), (plane, [2, 2, 3])]
    for S, heights in cells:
        assert max(smith_digits(S, heights)) >= ehrhart._BLOCK_DIGIT
    real = ehrhart.diagonalize

    def coarse(rows):
        diag, vmat = real(rows)
        return [2 * s for s in diag], vmat
    monkeypatch.setattr(ehrhart, "diagonalize", coarse)
    for S, heights in cells:
        with pytest.raises(IdentityViolated, match="non-lattice point"):
            ehrhart.fpp_lattice_points(S, heights)
    with pytest.raises(IdentityViolated, match="non-lattice point"):
        decomposition.hstar_polytope(build_polytope([(0,), (100,)]))


def test_block_walk_checks_the_residue_count():
    """A halved residue count on a cell that reaches the column blocks is
    refused by the Smith product check."""
    S = HalfOpenSimplex.closed([(F(0),), (F(100),)])
    object.__setattr__(S, "_count", S._count // 2)
    with pytest.raises(IdentityViolated, match="residues, not"):
        ehrhart.fpp_lattice_points(S, [1, 1])


def test_hull_misses_a_point(monkeypatch):
    # the first facet of the start simplex faces the wrong way
    real = geometry._facet_plane
    made = []

    def flipped(rows, inside, weight):
        normal, offset = real(rows, inside, weight)
        made.append(normal)
        if len(made) == 1:
            return tuple(-a for a in normal), -offset
        return normal, offset
    monkeypatch.setattr(geometry, "_facet_plane", flipped)
    with pytest.raises(IdentityViolated, match="misses an input point"):
        build_polytope([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)])


def leak_one_pair(monkeypatch):
    """Let the first pair of rays that share d - 1 points but no ridge pass
    the adjacency test; returns the list that records the leaked pair."""
    real = geometry._adjacent
    leaked = []

    def leaky(common, masks, d):
        if real(common, masks, d):
            return True
        if common.bit_count() >= d - 1 and not leaked:
            leaked.append(common)
            return True
        return False
    monkeypatch.setattr(geometry, "_adjacent", leaky)
    return leaked


def test_hull_facets_are_spanned(monkeypatch):
    # the leaked pair's combination holds on every point, so it survives to
    # the end, tight on points that span less than a hyperplane
    leaked = leak_one_pair(monkeypatch)
    with pytest.raises(IdentityViolated, match="not spanned by its tight vertices"):
        build_polytope([(0, 0, 0, 0), (0, 0, 0, 2), (1, 0, 1, 0), (1, 1, 1, 1),
                        (2, 0, 0, 2), (2, 0, 2, 0), (2, 2, 0, 2), (2, 2, 2, 0)])
    assert len(leaked) == 1


@pytest.mark.parametrize("fault", [
    lambda normal, offset: (normal, offset + 1),  # tight on none of its points
    lambda normal, offset: ((0,) * len(normal), 0),  # tight on the point opposite too
], ids=["gains-a-point-off-its-plane", "loses-a-tight-point"])
def test_hull_mask_is_its_zero_slack_set(monkeypatch, fault):
    # the first facet of the start simplex keeps the mask of its two points
    # while its plane moves out by one, or collapses to 0 . x <= 0
    real = geometry._facet_plane
    made = []

    def faulty(rows, inside, weight):
        made.append(rows)
        return (fault if len(made) == 1 else lambda *plane: plane)(*real(rows, inside, weight))
    monkeypatch.setattr(geometry, "_facet_plane", faulty)
    with pytest.raises(IdentityViolated, match="bitmask is not its zero-slack set"):
        build_polytope([(0, 0), (2, 0), (0, 2)])
    assert len(made) == 3


def test_report_catches_a_hull_missing_a_facet(monkeypatch):
    # here the leaked ray blocks a real adjacent pair and a later point cuts
    # it, so the hull passes its own checks with 13 of 14 facets.  Pulled
    # unchecked, it gave h* = 1 + 5z + 25z^2 + 13z^3 + z^4 (1 + 7z + 29z^2 +
    # 15z^3 + z^4 is right); the pulled pieces do not close up at the lost
    # facet's ridges, so both cones refuse it before any cell is walked
    points = [(0, 0, 1, 0), (0, 1, 1, 2), (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 2),
              (1, 0, 1, 2), (1, 1, 1, 1), (1, 2, 2, 1), (2, 0, 1, 0), (2, 2, 0, 1)]
    leaked = leak_one_pair(monkeypatch)
    P = build_polytope(points)
    assert len(leaked) == 1 and len(P.facets) == 13
    assert Halfspace((2, -1, -2, 0), 2) not in P.facets
    for entry in (decomposition.hstar_polytope, decomposition.hstar_boundary,
                  decomposition.stapledon_report):
        with pytest.raises(IdentityViolated, match="pulled pieces do not close up"):
            entry(P)


def test_facet_distance_must_divide_the_cone_count(monkeypatch):
    # doubled slacks put the apex twice as far from every facet as it is; the
    # cone count of a unimodular edge of skew is one distance, not two
    real = triangulation._apex

    def doubled(P, apex):
        column, slacks = real(P, apex)
        return column, [2 * s for s in slacks]
    monkeypatch.setattr(triangulation, "_apex", doubled)
    with pytest.raises(IdentityViolated, match="facet distance does not divide"):
        decomposition.hstar_boundary(skew)


def test_chart_basis_must_be_saturated(monkeypatch):
    # a doubled column of V divides exactly but spans an index-2 sublattice
    real = geometry.diagonalize

    def doubled_v(columns):
        diag, v = real(columns)
        return diag, [[2 * row[0]] + row[1:] for row in v]
    monkeypatch.setattr(geometry, "diagonalize", doubled_v)
    with pytest.raises(IdentityViolated, match="not saturated"):
        project_to_affine_hull(build_polytope([(0, 0), (1, 1)]))


def test_chart_division_must_be_exact(monkeypatch):
    # column j of B*V is diag[j] times a primitive column of U^-1, so twice
    # diag[j] cannot divide it
    real = geometry.diagonalize

    def doubled_diag(columns):
        diag, v = real(columns)
        return [2 * diag[0]] + diag[1:], v
    monkeypatch.setattr(geometry, "diagonalize", doubled_diag)
    with pytest.raises(IdentityViolated, match="not divisible by its diagonal entry"):
        project_to_affine_hull(build_polytope([(0, 0), (1, 1)]))


def test_codenominator_offsets(monkeypatch):
    P = build_polytope([(-1, -1), (2, -1), (-1, 2)])
    through_origin = tuple(Halfspace(hs.normal, 0) for hs in P.facets)
    monkeypatch.setattr(Polytope, "facets", property(lambda self: through_origin))
    with pytest.raises(IdentityViolated, match="offsets zero"):
        rational_ehrhart.codenominator(P)


def test_rational_numerator_nonnegative(monkeypatch):
    real = decomposition._hstar
    monkeypatch.setattr(decomposition, "_hstar", lambda cone: real(cone) - GP.from_list([2]))
    with pytest.raises(IdentityViolated, match="nonnegative"):
        rational_ehrhart.rational_series(skew)


def test_rational_interior_palindromic(monkeypatch):
    real = decomposition._hstar
    monkeypatch.setattr(decomposition, "_hstar", lambda cone: real(cone) + GP.monomial(1))
    centered = dilate(build_polytope([(-1, -1), (-1, 1), (1, -1), (1, 1)]), F(1, 2))
    with pytest.raises(IdentityViolated, match="palindromic"):
        rational_ehrhart.rational_decompose(centered)


def test_rational_a_equals_boundary(monkeypatch):
    # the origin is a vertex of skew, so the grid-r decomposition of (1/r)skew runs
    real = decomposition.symmetric_decompose

    def wrong_a(*args):
        a, b = real(*args)
        return a + GP.monomial(1), b
    monkeypatch.setattr(decomposition, "symmetric_decompose", wrong_a)
    with pytest.raises(IdentityViolated, match="boundary h"):
        rational_ehrhart.rational_decompose(skew)


def test_rational_b_routes_agree(monkeypatch):
    # the origin lies outside, so the refined grid-2r decomposition runs
    real = decomposition._b_polynomial
    monkeypatch.setattr(decomposition, "_b_polynomial",
                        lambda cone, ell: real(cone, ell) + GP.one())
    outside = build_polytope([(1, 1), (1, 2), (2, 1), (2, 2)])
    with pytest.raises(IdentityViolated, match="algebraic b"):
        rational_ehrhart.rational_decompose(outside)


def test_corpus_names_unique(monkeypatch):
    monkeypatch.setattr(corpus, "reflexive_triangles", lambda: [("skew-quad", skew)])
    with pytest.raises(IdentityViolated, match="unique"):
        corpus.standard_corpus()
