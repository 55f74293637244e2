from fractions import Fraction as F
from itertools import product

import pytest

from ehrkit.errors import ApexInSpan, NotDivisible
from ehrkit.geometry import build_polytope
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.decomposition import (
    DecompositionReport,
    ehrhart_report,
    inequality_audit,
    pyramid_b_polynomial,
    pyramid_hstar_compare,
    stapledon_report,
    symmetric_decompose,
)
from ehrkit.ehrhart import fpp_lattice_points
from ehrkit.oracle import count_points
from ehrkit.triangulation import HalfOpenSimplex, _generic_point, find_interior_point

from helpers import count_calls




def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


def test_symmetric_decompose_examples():
    a, b = symmetric_decompose(GP.one(), q=1, ell=3, d=2)
    assert a == GP.from_list([1, 1, 1]) and b.is_zero

    a, b = symmetric_decompose(GP.from_list([1, 1, 1, 1]), q=2, ell=1, d=1)
    assert a == GP.from_dict({0: 1, 2: 1}) and b.is_zero

    # the worked grid-2 case, in integer exponents before regrading
    a, b = symmetric_decompose(GP.from_list([1, 4, 7, 6, 2]), q=2, ell=2, d=2)
    assert a == GP.from_list([1, 4, 6, 4, 1])
    assert b == GP.from_list([1, 2, 1])


def test_symmetric_decompose_unit_square_needs_ell_two():
    h = GP.from_list([1, 1])
    a, b = symmetric_decompose(h, q=1, ell=2, d=2)
    assert a == GP.from_list([1, 2, 1]) and b.is_zero


def test_symmetric_decompose_not_divisible():
    with pytest.raises(NotDivisible):
        symmetric_decompose(GP.from_list([1, 2]), q=2, ell=1, d=1)


def test_symmetric_decompose_is_deterministic_unique():
    h = GP.from_list([1, 7, 4])
    first = symmetric_decompose(h, q=1, ell=1, d=2)
    again = symmetric_decompose(h, q=1, ell=1, d=2)
    assert first == again
    a, b = first
    assert a + b.shift(1) == h
    assert a.is_palindromic(2) and b.is_palindromic(1)


def test_stapledon_report_examples():
    tri = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    r = stapledon_report(tri)
    assert (r.ell, r.a, r.b) == (3, GP.from_list([1, 1, 1]), GP.zero())
    assert r.a_equals_boundary

    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    r = stapledon_report(box)
    assert (r.q, r.ell, r.a, r.b) == (1, 1, GP.from_list([1, 6, 1]), GP.zero())

    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    r = stapledon_report(sq)
    assert (r.ell, r.a, r.b) == (2, GP.from_list([1, 2, 1]), GP.zero())
    assert r.lhs == GP.from_list([1, 2, 1])


def test_stapledon_report_json_roundtrip():
    r = stapledon_report(build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3))))
    assert DecompositionReport.from_json_dict(r.to_json_dict()) == r


def test_decomposition_suite(corpus_bundle):
    """a equals boundary h*, both parts palindromic and nonnegative, routes agree."""
    P = corpus_bundle.polytope
    r = stapledon_report(P)  # internally asserts both b-routes and a == boundary h*
    q, d = r.q, P.dim
    assert r.a == corpus_bundle.hstar_boundary
    assert r.a.is_palindromic(q * d)
    assert r.b.is_zero or r.b.is_palindromic(q * d - r.ell)
    assert r.a.is_nonnegative and r.b.is_nonnegative
    assert r.lhs == r.a + r.b.shift(r.ell)
    assert r.ell == q * (d + 1) - r.s_degree


def test_pyramid_b_values_sit_at_ell_or_higher():
    skew = build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))
    ell, x = find_interior_point(skew)
    b = pyramid_b_polynomial(skew, ell, x)
    assert b == GP.from_list([3, 3])  # independent route for the worked skew quad


def test_pyramid_hstar_compare_equality_cases():
    seg = build_polytope(pts((0, 0), (1, 0)))
    h_base, h_pyr, leq = pyramid_hstar_compare(seg, (0, 1))
    assert h_base == h_pyr == GP.one() and leq

    half = build_polytope(pts((F(-1, 2), 0), (F(1, 2), 0)))
    h_base, h_pyr, leq = pyramid_hstar_compare(half, (0, 1))
    assert h_base == h_pyr == GP.from_list([1, 1, 1, 1]) and leq


def test_pyramid_hstar_compare_half_height():
    seg = build_polytope(pts((0, 0), (1, 0)))
    h_base, h_pyr, leq = pyramid_hstar_compare(seg, (0, F(1, 2)))
    assert leq and h_pyr.dominates(h_base)
    # independent check: numerator of (1-z)^2 (1-z^2) Ehr for the half-height cone
    cone = build_polytope(pts((0, 0), (1, 0), (0, F(1, 2))))
    n_terms = 10
    series = [1] + [count_points(cone, n) for n in range(1, n_terms)]
    poly = GP.from_dict({i: c for i, c in enumerate(series)})
    product = poly * GP.from_dict({0: 1, 1: -1}) * GP.from_dict({0: 1, 1: -1}) \
        * GP.from_dict({0: 1, 2: -1})
    truncated = GP.from_dict({k: c for k, c in product.as_dict().items() if k < 4})
    assert truncated == h_pyr


def test_pyramid_hstar_compare_dominates_strictly():
    seg = build_polytope(pts((0, 0), (1, 0)))
    h_base, h_pyr, leq = pyramid_hstar_compare(seg, (0, F(3, 2)))
    assert leq and h_pyr.dominates(h_base)
    assert h_base == GP.one() and h_pyr == GP.from_list([1, 1, 1])
    h_base, h_pyr, leq = pyramid_hstar_compare(seg, (F(1, 3), F(2, 3)))
    assert leq and h_pyr == GP.from_dict({0: 1, 2: 1})


def test_pyramid_hstar_compare_rejects_flat_apex():
    seg = build_polytope(pts((0, 0), (1, 0)))
    with pytest.raises(ApexInSpan):
        pyramid_hstar_compare(seg, (5, 0))


def test_inequality_audit_simplex_tightness():
    tri = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    audit = inequality_audit(tri)
    item = next(i for i in audit.items if i.name == "leading_coefficient_bound")
    assert item.applicable and item.passed
    # (ell*d/2) k_d = (3*2/2) * 1/2 = 3/2 = k_1 exactly
    assert "3/2" in item.witness and item.witness.count("3/2") == 2


def test_inequality_audit_boundary_domination_cases():
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    audit = inequality_audit(box)
    item = next(i for i in audit.items if i.name == "boundary_dominated")
    assert item.applicable and item.passed

    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    item = next(i for i in inequality_audit(sq).items if i.name == "boundary_dominated")
    assert not item.applicable  # ell = 2 > q = 1


def test_inequality_audit_over_corpus(corpus_bundle):
    P = corpus_bundle.polytope
    audit = inequality_audit(P)
    for item in audit.items:
        if item.applicable and item.level == "requirement":
            assert item.passed, (item.name, item.witness)
    # warning-level items hold on this corpus as well
    for item in audit.warnings:
        assert item.passed, (item.name, item.witness)


def test_unimodular_warning_items_present():
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    audit = inequality_audit(sq)
    chain = next(i for i in audit.items if i.name == "unimodular_chain")
    assert chain.applicable and chain.level == "warning" and chain.passed


def test_ehrhart_report_bundle():
    skew = build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))
    rep = ehrhart_report(skew)
    assert rep.q == 1 and rep.d == 2 and rep.ell == 1
    assert rep.hstar == GP.from_list([1, 7, 4])
    assert rep.hstar_boundary == GP.from_list([1, 4, 1])
    assert rep.hstar_interior == GP.from_dict({1: 4, 2: 7, 3: 1})
    assert rep.audit.all_passed


def test_ehrhart_report_computes_each_artifact_once(monkeypatch):
    """cube-4d: 24 cells over a vertex for h*, 48 over x for the boundary and
    the b-route; one generic point per cone, one barycentric solve per cell,
    one walk per cell and route."""
    cube = build_polytope(list(product((0, 1), repeat=4)))
    counts = {fn.__name__: count_calls(monkeypatch, fn)
              for fn in (find_interior_point, fpp_lattice_points, _generic_point)}
    solves = []
    barycentric = HalfOpenSimplex.barycentric
    monkeypatch.setattr(HalfOpenSimplex, "barycentric",
                        lambda S, x: solves.append(S) or barycentric(S, x))
    rep = ehrhart_report(cube)
    assert {name: len(calls) for name, calls in counts.items()} == {
        "find_interior_point": 1, "fpp_lattice_points": 24 + 48 + 48,
        "_generic_point": 2}
    assert len(solves) == 24 + 48
    for field in ("q", "d", "ell", "hstar", "hstar_boundary", "hstar_interior",
                  "decomposition", "audit"):
        getattr(rep, field)
    assert len(counts["fpp_lattice_points"]) == 120  # reading the fields walked nothing
