"""Every cross-check raises IdentityViolated when one route is forced wrong.

The checks are raises, not asserts, so these tests pass under ``python -O``
as well.
"""

from fractions import Fraction as F

import pytest

from ehrkit import decomposition, ehrhart
from ehrkit.errors import IdentityViolated
from ehrkit.geometry import build_polytope
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.triangulation import find_interior_point, half_open_decompose, triangulate_boundary

skew = build_polytope([(0, 0), (0, 2), (2, 0), (3, 3)])  # ell = 1, b = 3 + 3z
square2 = build_polytope([(0, 0), (0, 2), (2, 0), (2, 2)])


def test_hstar_constant_term(monkeypatch):
    real = ehrhart.hstar_simplex
    monkeypatch.setattr(ehrhart, "hstar_simplex", lambda S, q: real(S, q) + GP.one())
    with pytest.raises(IdentityViolated, match="constant term"):
        ehrhart.hstar_polytope(skew)


def test_hstar_degree(monkeypatch):
    real = ehrhart.hstar_simplex
    monkeypatch.setattr(ehrhart, "hstar_simplex", lambda S, q: real(S, q) + GP.monomial(3))
    with pytest.raises(IdentityViolated, match="deg h"):
        ehrhart.hstar_polytope(skew)


def test_boundary_constant_term(monkeypatch):
    real = ehrhart.hstar_simplex
    monkeypatch.setattr(ehrhart, "hstar_simplex", lambda S, q: real(S, q) + GP.one())
    with pytest.raises(IdentityViolated, match="constant term"):
        ehrhart.hstar_boundary(skew)


def test_apex_facet_never_visible():
    # an apex outside the square sees the facet x = 2 from the far side
    with pytest.raises(IdentityViolated, match="opposite the apex"):
        half_open_decompose(triangulate_boundary(square2), square2, apex=(5, 4))


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
        decomposition.pyramid_b_polynomial(skew, 2, (F(1), F(1)))


def test_quasi_leading_coefficient(monkeypatch):
    real = ehrhart.interpolate_polynomial

    def wrong_lead(ns, values):
        coeffs = list(real(ns, values))
        coeffs[-1] += 1
        return coeffs
    monkeypatch.setattr(ehrhart, "interpolate_polynomial", wrong_lead)
    with pytest.raises(IdentityViolated, match="leading quasi-coefficient"):
        ehrhart.quasi_coefficients(skew)


def test_unit_apex_pyramid(monkeypatch):
    real = decomposition.fpp_lattice_points
    monkeypatch.setattr(decomposition, "fpp_lattice_points",
                        lambda S, heights: list(real(S, heights)) * 2)
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
        ehrhart.hstar_polytope(skew)
