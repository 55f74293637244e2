from fractions import Fraction as F

import pytest

from ehrkit.errors import IdentityViolated, NotLatticePolytope, OriginNotInterior
from ehrkit.geometry import build_polytope, contains, dilate, translate
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit import triangulation
from ehrkit.gorenstein import (
    GorensteinKind,
    GorensteinStatus,
    gorenstein_index,
    is_rational_reflexive,
    is_reflexive,
    verify_gorenstein_identities,
)
from ehrkit.decomposition import EhrhartReport, hstar_boundary, hstar_polytope
from ehrkit.ehrhart import fpp_points
from ehrkit.triangulation import (
    find_interior_point,
    half_open_decompose,
    interior_lattice_points,
    pyramid,
    triangulate_boundary,
)
from ehrkit.corpus import reflexive_triangles

from conftest import CORPUS
from helpers import scan_reflexive


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
square2 = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2)))
unit_square = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
triangle = build_polytope(pts((0, 0), (1, 0), (0, 1)))


def test_is_reflexive():
    assert is_reflexive(box) == (True, (0, 0))
    assert is_reflexive(square2) == (True, (-1, -1))
    assert is_reflexive(unit_square) == (False, None)
    with pytest.raises(NotLatticePolytope):
        is_reflexive(build_polytope(pts((F(-1, 2),), (F(1, 2),))))


def test_reflexive_triangles_all_reflexive():
    for name, t in reflexive_triangles():
        flag, shift = is_reflexive(t)
        assert flag, name
        assert shift == (0, 0)


def test_is_rational_reflexive():
    cross_half = build_polytope(pts((F(1, 2), 0), (F(-1, 2), 0), (0, 1), (0, -1)))
    assert is_rational_reflexive(cross_half)
    assert is_rational_reflexive(box)
    seg = build_polytope(pts((F(-1, 3),), (F(2, 3),)))
    assert not is_rational_reflexive(seg)
    with pytest.raises(OriginNotInterior):
        is_rational_reflexive(unit_square)


def test_gorenstein_index_examples():
    st = gorenstein_index(triangle)
    assert st.kind is GorensteinKind.GORENSTEIN and st.g == 3
    assert st.translate == (-1, -1)

    st = gorenstein_index(box)
    assert st.kind is GorensteinKind.REFLEXIVE and st.g == 1

    third = dilate(build_polytope(pts((-1, -1), (2, -1), (-1, 2))), F(1, 3))
    st = gorenstein_index(third)
    assert st.g == 3 and st.kind is GorensteinKind.RATIONAL_REFLEXIVE

    seg = build_polytope(pts((0,), (F(2, 3),)))
    st = gorenstein_index(seg)
    assert st.kind is GorensteinKind.RATIONAL_GORENSTEIN and st.g == 3

    skew = build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))
    assert gorenstein_index(skew).kind is GorensteinKind.NONE

    # g = 1, t = (0, 1) solves the facet system, but q = 2 does not divide g
    half = build_polytope(pts((-1, -2), (0, F(-3, 2)), (3, 3)))
    assert gorenstein_index(half) == GorensteinStatus(GorensteinKind.NONE, None, None)


def test_gorenstein_g_is_multiple_of_q():
    for _, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        st = gorenstein_index(P)
        if st.g is not None:
            assert st.g % P.denominator_q == 0, _


def test_gorenstein_index_agrees_with_exhaustive_search():
    """A box scan of every lattice dilate gP, g = 1..q(d+1), finds the g and
    the translate of the facet solve."""
    for name, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        q, d = P.denominator_q, P.dim
        found = (None, None)
        for g in range(1, q * (d + 1) + 1):
            if g % q:
                continue  # gP must be a lattice polytope
            flag, shift = scan_reflexive(dilate(P, g))
            if flag:
                found = (g, shift)
                break
        st = gorenstein_index(P)
        assert (st.g, st.translate) == found, (name, st, found)
        if P.is_lattice:
            assert is_reflexive(P) == scan_reflexive(P), name


def test_classification_enumerates_no_lattice_points(monkeypatch):
    monkeypatch.setattr(triangulation, "_box_scan",
                        lambda P: pytest.fail("classification scanned a bounding box"))
    for name, P in CORPUS:
        if P.is_full_dimensional:
            gorenstein_index(P)
            if P.is_lattice:
                is_reflexive(P)


def test_classification_of_far_dilates():
    """No box is scanned, so size does not matter: 1000 cross-3d has no
    reflexive dilate, and cross-3d / 1000 is rational reflexive with g = 1000."""
    cross = build_polytope([v for i in range(3) for s in (1, -1)
                            for v in [tuple(s * (i == j) for j in range(3))]])
    assert gorenstein_index(dilate(cross, 1000)).kind is GorensteinKind.NONE
    st = gorenstein_index(dilate(cross, F(1, 1000)))
    assert st.kind is GorensteinKind.RATIONAL_REFLEXIVE
    assert (st.g, st.translate) == (1000, (0, 0, 0))


def test_identity_reflexive_cases():
    rep = verify_gorenstein_identities(square2)
    assert "hstar_equals_boundary" in rep.checks
    assert rep.polynomials["hstar"] == GP.from_list([1, 6, 1])
    assert rep.polynomials["hstar_boundary"] == GP.from_list([1, 6, 1])

    rep = verify_gorenstein_identities(triangle)
    assert "boundary_equals_geom_g_times_hstar" in rep.checks
    assert rep.polynomials["hstar_boundary"] == GP.from_list([1, 1, 1])

    half_box = dilate(box, F(1, 2))
    rep = verify_gorenstein_identities(half_box)
    assert "hstar_equals_geom_q_times_boundary" in rep.checks
    assert rep.polynomials["hstar"] == \
        GP.geometric(2) * rep.polynomials["hstar_boundary"]


@pytest.mark.parametrize("P, message", [
    (square2, "^reflexive polytope must have"),
    (triangle, "^Gorenstein polytope must satisfy"),
    (dilate(box, F(1, 2)), "^rational reflexive polytope must"),
    (build_polytope(pts((0,), (F(2, 3),))), "^rational Gorenstein polytope must")],
    ids=["reflexive", "gorenstein", "rational-reflexive", "rational-gorenstein"])
def test_identities_refuse_a_wrong_boundary_hstar(monkeypatch, P, message):
    """These identities are theorems: a boundary h* off by one in its constant
    term must be refused, not reported."""
    real = EhrhartReport.hstar_boundary.func
    monkeypatch.setattr(EhrhartReport, "hstar_boundary",
                        property(lambda report: real(report) + GP.one()))
    with pytest.raises(IdentityViolated, match=message):
        verify_gorenstein_identities(P)


def test_identity_rational_gorenstein_two_thirds_segment():
    """g and ell differ here (g=3, ell=2); the ell-form identity is the true one."""
    seg = build_polytope(pts((0,), (F(2, 3),)))
    st = gorenstein_index(seg)
    assert st.g == 3
    ell, _ = find_interior_point(seg)
    assert ell == 2
    h, hb = hstar_polytope(seg), hstar_boundary(seg)
    assert GP.geometric(ell) * h == GP.geometric(3) * hb
    assert not h == hb  # the g-exponent form would wrongly force equality
    rep = verify_gorenstein_identities(seg)
    assert "geom_ell_hstar_equals_geom_q_boundary" in rep.checks


def test_identities_none_kind_is_empty():
    skew = build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))
    rep = verify_gorenstein_identities(skew)
    assert rep.checks == ()


def test_identities_over_corpus():
    for name, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        rep = verify_gorenstein_identities(P)  # raises IdentityViolated on failure
        if rep.status.kind is not GorensteinKind.NONE:
            assert "hstar_palindromic" in rep.checks, name


def test_reflexive_translate_property():
    """The recorded translate really moves every facet offset to one."""
    for name, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        st = gorenstein_index(P)
        if st.g is None:
            continue
        moved = translate(dilate(P, st.g), st.translate)
        assert all(hs.offset == 1 for hs in moved.facets), name
        assert len(interior_lattice_points(moved)) == 1


def test_fundamental_parallelepiped_equality_for_rational_reflexive():
    """Coning boundary cells over the origin adds no parallelepiped points."""
    for P in (dilate(box, F(1, 2)),
              dilate(build_polytope(pts((-1, -1), (2, -1), (-1, 2))), F(1, 3)),
              box):
        origin = (F(0),) * P.ambient_dim
        assert contains(P, origin, "interior")
        q = P.denominator_q
        boundary, _ = half_open_decompose(triangulate_boundary(P), P, apex=origin)
        for S in boundary.simplices:
            cone = pyramid(origin, S)
            base_heights = [q] * len(S.vertices)
            assert fpp_points(cone, base_heights + [1]) == fpp_points(S, base_heights)


def test_gorenstein_scaled_families():
    """(1/k)-scalings of reflexive and Gorenstein polytopes classify correctly."""
    for k in (2, 3):
        scaled_box = dilate(box, F(1, k))
        st = gorenstein_index(scaled_box)
        assert st.kind is GorensteinKind.RATIONAL_REFLEXIVE and st.g == k
        verify_gorenstein_identities(scaled_box)

        scaled_tri = dilate(triangle, F(1, k))
        st = gorenstein_index(scaled_tri)
        assert st.kind is GorensteinKind.RATIONAL_GORENSTEIN and st.g == 3 * k
        verify_gorenstein_identities(scaled_tri)
