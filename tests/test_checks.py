"""Every cross-check raises IdentityViolated when one route is forced wrong.

The checks are raises, not asserts, so these tests pass under ``python -O``
as well.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from ehrkit import corpus, decomposition, ehrhart, geometry, rational_ehrhart
from ehrkit.errors import IdentityViolated
from ehrkit.geometry import Halfspace, Polytope, build_polytope, dilate, project_to_affine_hull
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.triangulation import HalfOpenSimplex, find_interior_point, half_open_decompose

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


def _flip_halfspace(monkeypatch, k):
    """Make the hull's k-th new facet plane (1-based) face the wrong way."""
    real = geometry._facet_plane
    made = []

    def flipped(rows, inside, weight):
        normal, offset = real(rows, inside, weight)
        made.append(normal)
        if len(made) == k:
            return tuple(-a for a in normal), -offset
        return normal, offset
    monkeypatch.setattr(geometry, "_facet_plane", flipped)


def test_hull_misses_a_point(monkeypatch):
    _flip_halfspace(monkeypatch, 1)
    with pytest.raises(IdentityViolated, match="misses an input point"):
        build_polytope([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)])


def test_hull_boundary_is_closed(monkeypatch):
    # a later point sees the flipped facet apart from the facets it really
    # sees, so the visible region splits and the new facets share a ridge
    # three or more times
    _flip_halfspace(monkeypatch, 6)
    with pytest.raises(IdentityViolated, match="pseudomanifold"):
        build_polytope([(-4, -1), (0, -3), (-1, -2), (4, -4), (1, 4), (0, 2), (4, -2), (0, -2)])


def test_unimodular_inverse(monkeypatch):
    real = geometry.diagonalize

    def doubled_u(columns, want_u=False):
        diag, v, u = real(columns, want_u=True)
        return diag, v, [[2 * x for x in u[0]]] + u[1:]
    monkeypatch.setattr(geometry, "diagonalize", doubled_u)
    with pytest.raises(IdentityViolated, match="not unimodular"):
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
