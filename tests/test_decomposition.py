import random
import time
from fractions import Fraction as F
from itertools import product
from types import SimpleNamespace

import pytest

from ehrkit.errors import ApexInSpan, IdentityViolated, NoSolution, NotDivisible
from ehrkit.geometry import build_polytope
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.decomposition import (
    AuditItem,
    DecompositionReport,
    EhrhartReport,
    _b_polynomial,
    ehrhart_report,
    hstar_boundary,
    hstar_polytope,
    inequality_audit,
    pyramid_hstar_compare,
    stapledon_report,
    symmetric_decompose,
)
from ehrkit.ehrhart import fpp_lattice_points
from ehrkit.linalg import diagonalize
from ehrkit.oracle import count_points
from ehrkit import triangulation
from ehrkit.corpus import standard_corpus
from ehrkit.triangulation import _generic_point, _visible, find_interior_point

from helpers import count_calls, count_constructions




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


def test_symmetric_decompose_refusals():
    with pytest.raises(ValueError, match="integer-exponent"):
        symmetric_decompose(GP.from_list([1, 1], grid=2), q=1, ell=1, d=1)
    # 1 + z^3 has degree 3, above q*d = 1, so no palindromic pair of degree 1 exists
    with pytest.raises(NoSolution, match="left side exceeds degree 1"):
        symmetric_decompose(GP.from_dict({0: 1, 3: 1}), q=1, ell=1, d=1)


def test_symmetric_decompose_at_q_ten_to_the_five():
    """h* of [0, 1/q]^3 is geom(q) A(z^q), with A = 1 + 4z + z^2 the Eulerian
    polynomial.  Its interior dilate is ell = q + 1, so a = geom(q + 1) A(z^q)
    and b = 0.  The decomposition is linear in q; long division by geom(q)
    would take about 3 * 10^10 steps here."""
    q = 10 ** 5
    eulerian = GP.from_dict({0: 1, q: 4, 2 * q: 1})
    a, b = symmetric_decompose(GP.geometric(q) * eulerian, q=q, ell=q + 1, d=3)
    assert a == GP.geometric(q + 1) * eulerian and b.is_zero


@pytest.mark.parametrize("wrong, message", [(lambda b: None, "not divisible by 1 - z"),
                                            (lambda b: b + GP.one(), "not palindromic")])
def test_symmetric_decompose_theorem_checks(monkeypatch, wrong, message):
    """lhs lies in geom(ell) Z[z] with degree <= q*d, so rev - lhs is
    (1 - z^ell) b with b palindromic, and then a is palindromic too: only a
    broken division by 1 - z^ell reaches these two checks."""
    real = GP.over_one_minus

    def broken(self, e):
        return wrong(real(self, e)) if e == 2 else real(self, e)
    monkeypatch.setattr(GP, "over_one_minus", broken)
    # the unit square: q = 1, ell = 2, so only the last division is by 1 - z^2
    with pytest.raises(IdentityViolated, match=message):
        symmetric_decompose(GP.from_list([1, 1]), q=1, ell=2, d=2)


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
    doc = r.to_json_dict()
    doc["b"] = {"grid": "2", "coeffs": {"0": 2.7, "1": True}}
    with pytest.raises(ValueError, match="must be ints"):
        DecompositionReport.from_json_dict(doc)
    doc["b"] = {"grid": "0", "coeffs": {}}
    with pytest.raises(ValueError, match="grid must be an int >= 1"):
        DecompositionReport.from_json_dict(doc)


@pytest.mark.parametrize("field, value", [
    ("q", 1.9), ("q", True), ("q", "1.0"), ("ell", True), ("ell", None), ("s_degree", "two"),
    ("a_equals_boundary", "no"), ("a_equals_boundary", 1), ("a_equals_boundary", None),
])
def test_stapledon_report_json_rejects_loose_fields(field, value):
    """Integer fields read as GradedPolynomial's do: an int or a
    decimal-integer string; the flag is a JSON boolean."""
    doc = stapledon_report(build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))).to_json_dict()
    doc[field] = value
    with pytest.raises(ValueError, match=field):
        DecompositionReport.from_json_dict(doc)


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
    ell, _ = find_interior_point(skew)
    b = _b_polynomial(EhrhartReport(skew).cone[1], ell)
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


def test_boundary_domination_needs_ell_to_divide_q():
    """geom(ell) h* = geom(q) (hb + z^ell b) gives h* >= hb only when ell | q.
    Here q = 3 and ell = 2, and h* = 1 + z^2 + 2z^3 + 2z^4 + 2z^5 + z^7 is
    not above hb = 1 + 3z^3 + z^6, so the item does not apply."""
    tri = build_polytope([(F(0), F(-4, 3)), (F(-4, 3), F(-5, 3)), (F(-1), F(-4, 3))])
    assert hstar_polytope(tri) == GP.from_dict({0: 1, 2: 1, 3: 2, 4: 2, 5: 2, 7: 1})
    assert hstar_boundary(tri) == GP.from_dict({0: 1, 3: 3, 6: 1})
    audit = inequality_audit(tri)
    item = next(i for i in audit.items if i.name == "boundary_dominated")
    assert not item.applicable and item.witness == "ell=2 does not divide q=3"
    assert audit.all_passed


def quadratic_chains(h, q, d):
    """The two cumulative chain items by their definition, each sum taken anew."""
    hd, s, top = h.as_dict(), h.degree_key, q * (d + 1) - 1
    items = []
    for name, pairs in (
            ("cumulative_lower", [(sum(hd.get(i, 0) for i in range(j + 2)),
                                   sum(hd.get(top - i, 0) for i in range(j + 1)))
                                  for j in range((top + 1) // 2)]),
            ("cumulative_upper", [(sum(hd.get(s - i, 0) for i in range(j + 1)),
                                   sum(hd.get(i, 0) for i in range(j + 1)))
                                  for j in range(s + 1)])):
        bad = next(((j, big, small) for j, (big, small) in enumerate(pairs) if big < small), None)
        items.append(AuditItem(name, True, bad is None,
                               "all indices" if bad is None else "j=%d: %d < %d" % bad))
    return items


@pytest.mark.parametrize("q, d", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3), (5, 2)])
def test_prefix_sum_chains_match_their_definition(q, d):
    """The audit's chains read prefix sums; on random h* of degree below
    q(d + 1) they give the items of the quadratic definition, witnesses too."""
    rng = random.Random(q * 10 + d)
    for _ in range(300):
        s = rng.randrange(q * (d + 1))
        h = GP.from_dict({i: rng.randint(0, 3) for i in range(s)} | {s: rng.randint(1, 3)})
        # a report whose cached fields are set by hand: the audit reads only these
        report = EhrhartReport(SimpleNamespace(denominator_q=q, dim=d, is_lattice=False))
        report.__dict__.update(hstar=h, hstar_boundary=GP.one(),
                               _interior_point=(q * (d + 1) - s, None))
        assert list(report.audit.items[:2]) == quadratic_chains(h, q, d)


def test_audit_is_linear_in_q():
    """conv(0, e1/q, e2/q) at q = 10^5: h* has degree q - 1 in a range of
    3q, and the per-index sums of the definition would take about 10^10
    steps.  The audit alone, after h* and boundary h* exist, is quick."""
    q = 10 ** 5
    report = EhrhartReport(build_polytope([(F(0), F(0)), (F(1, q), F(0)), (F(0), F(1, q))]))
    assert report.hstar == GP.geometric(q) and report.ell == 2 * q + 1
    report.hstar_boundary
    start = time.monotonic()
    assert report.audit.all_passed
    assert time.monotonic() - start < 1


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
    """The chain applies exactly when the boundary cells are unimodular, which
    the audit reads off boundary h*(1) against the cell count."""
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    audit = inequality_audit(sq)
    chain = next(i for i in audit.items if i.name == "unimodular_chain")
    assert chain.applicable and chain.level == "warning" and chain.passed
    tri2 = build_polytope(pts((0, 0), (2, 0), (0, 2)))
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    for P in (tri2, box):
        chain = next(i for i in inequality_audit(P).items if i.name == "unimodular_chain")
        assert not chain.applicable


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
    the b-route; one generic point per cone, one visibility solve per cell,
    one walk per cell and route, and each cell and boundary cell built once.
    Every cell of h* and boundary h* is unimodular (24 cells, h*(1) = 24), so
    neither walk needs a Smith form."""
    cube = build_polytope(list(product((0, 1), repeat=4)))
    built = count_constructions(monkeypatch)
    smith = count_calls(monkeypatch, diagonalize)
    hstar_polytope(cube)
    assert len(built) == 24
    hstar_boundary(cube)
    assert len(built) == 24 + 96
    assert len(smith) == 0
    built.clear()
    counts = {fn.__name__: count_calls(monkeypatch, fn)
              for fn in (find_interior_point, fpp_lattice_points, _generic_point, _visible)}
    rep = ehrhart_report(cube)
    assert {name: len(calls) for name, calls in counts.items()} == {
        "find_interior_point": 1, "fpp_lattice_points": 24 + 48 + 48,
        "_generic_point": 2, "_visible": 24 + 48}
    assert len(built) == 24 + 48 + 48
    for field in ("q", "d", "ell", "hstar", "hstar_boundary", "hstar_interior",
                  "decomposition", "audit"):
        getattr(rep, field)
    assert len(counts["fpp_lattice_points"]) == 120  # reading the fields walked nothing


@pytest.mark.parametrize("P", [build_polytope(list(product((0, 1), repeat=4))),
                               dict(standard_corpus())["random-d3-q2-0"]],
                         ids=["cube-4d", "random-d3-q2-0"])
def test_ehrhart_report_eliminates_no_cell_twice(monkeypatch, P):
    """Cone cells take their counts from the visibility solve and boundary
    cells from the pyramid rule, so no pipeline cell runs _residue_count."""
    def eliminated(columns):
        raise AssertionError("a pipeline cell ran _residue_count")
    monkeypatch.setattr(triangulation, "_residue_count", eliminated)
    ehrhart_report(P)


def test_each_cone_places_its_apex_once(monkeypatch):
    """The apex's column and facet slacks are computed once per cone: the
    vertex cone of h* pulls and cones with one placement, and the cone over
    x of the boundary h* cones and measures facet distances with one."""
    P = dict(standard_corpus())["random-d3-q2-0"]
    placed = count_calls(monkeypatch, triangulation._apex)
    rep = EhrhartReport(P)
    rep.hstar
    assert len(placed) == 1
    rep.hstar_boundary
    assert len(placed) == 2
