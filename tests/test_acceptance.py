"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact integer/rational equality; the only tolerances are
the stated wall-clock budgets.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import time
from fractions import Fraction as F
from itertools import product

from ehrkit.geometry import build_polytope, contains, dilate
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.decomposition import hstar_boundary, hstar_polytope, inequality_audit, stapledon_report
from ehrkit.ehrhart import hstar_cells
from ehrkit.gorenstein import gorenstein_index, verify_gorenstein_identities
from ehrkit.rational_ehrhart import codenominator, rational_decompose, rational_series
from ehrkit.triangulation import (_apex, _half_open, _pull_facets, half_open_decompose,
                                  triangulate_boundary)

from conftest import CORPUS, bundle_for
from helpers import generic_points, scan_reflexive


def _report(number: int, description: str, ok: bool):
    print("ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", description))
    assert ok, "criterion %d failed: %s" % (number, description)


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


def test_criterion_1_boundary_hstar_and_monotonicity_failure():
    start = time.monotonic()
    inner = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2)))
    outer = build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))
    ok = hstar_boundary(inner) == GP.from_list([1, 6, 1])
    ok = ok and hstar_boundary(outer) == GP.from_list([1, 4, 1])
    ok = ok and all(contains(outer, v, "closed") for v in inner.vertices)
    ok = ok and hstar_boundary(inner).dominates(hstar_boundary(outer))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, "boundary h* pair 1+6z+z^2 / 1+4z+z^2 and monotonicity failure "
               "(%.2fs)" % elapsed, ok)


def test_criterion_2_half_segment_hstar():
    start = time.monotonic()
    seg = build_polytope([(F(-1, 2),), (F(1, 2),)])
    ok = seg.denominator_q == 2
    ok = ok and hstar_polytope(seg) == GP.from_list([1, 1, 1, 1])
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(2, "h* of [-1/2, 1/2] is 1+z+z^2+z^3 with q=2 (%.2fs)" % elapsed, ok)


def test_criterion_3_rational_series_worked_example():
    start = time.monotonic()
    P = build_polytope(pts((0, 0), (0, 2), (5, 2)))
    ok = codenominator(P) == 2
    series = rational_series(P, m=2)
    ok = ok and series.numerator == GP.from_list([1, 4, 7, 6, 2], grid=2)
    rep = rational_decompose(P)
    a, b, ell = rep.decomposition
    ok = ok and ell == 2
    ok = ok and a == GP.from_list([1, 4, 6, 4, 1], grid=2)
    ok = ok and b == GP.from_list([1, 2, 1], grid=2)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(3, "codenominator 2, numerator 1+4z^(1/2)+7z+6z^(3/2)+2z^2, "
               "decomposition at ell=2 (%.2fs)" % elapsed, ok)


def test_criterion_4_oracle_equivalence_suite():
    start = time.monotonic()
    ok = len(CORPUS) >= 40
    for name, P in CORPUS:
        bundle = bundle_for(P)
        ok = ok and bundle.hstar == bundle.oracle_hstar
        ok = ok and bundle.hstar_boundary == bundle.oracle_boundary
        ok = ok and bundle.hstar_interior == bundle.oracle_interior
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _report(4, "pipeline equals counting oracle on %d polytopes (%.1fs)"
               % (len(CORPUS), elapsed), ok)


def test_criterion_5_symmetric_decomposition_suite():
    ok = True
    for name, P in CORPUS:
        # stapledon_report internally asserts a == boundary h* and that the
        # parallelepiped route reproduces the algebraic b
        r = stapledon_report(P)
        q, d = P.denominator_q, P.dim
        ok = ok and r.a == bundle_for(P).hstar_boundary
        ok = ok and r.a.is_palindromic(q * d) and r.a.is_nonnegative
        ok = ok and (r.b.is_zero or r.b.is_palindromic(q * d - r.ell))
        ok = ok and r.b.is_nonnegative
        if not ok:
            break
    _report(5, "a = boundary h*, palindromic nonnegative parts, both b routes "
               "agree on the corpus", ok)


def test_criterion_6_invariant_suite():
    ok = True
    for name, P in CORPUS:
        q, d = P.denominator_q, P.dim
        bundle = bundle_for(P)
        h, hb, hi = bundle.hstar, bundle.hstar_boundary, bundle.hstar_interior
        ok = ok and hb.degree_key == q * d and hb.is_palindromic(q * d)
        ok = ok and hi == h.reverse(q * (d + 1))
        ok = ok and h == hi + GP.from_dict({0: 1, q: -1}) * hb
        if P.is_lattice:
            coeffs = hb.as_dict()
            ok = ok and all(coeffs.get(j, 0) > 0 for j in range(d + 1))
            ok = ok and coeffs.get(0) == 1
            ok = ok and all(coeffs.get(1, 0) <= coeffs.get(j, 0) for j in range(2, d))
            boundary, _ = half_open_decompose(triangulate_boundary(P), P)
            missing = {}
            for S in boundary.simplices:
                missing[S.missing_count] = missing.get(S.missing_count, 0) + 1
            ok = ok and hb.dominates(GP.from_dict(missing))
        if not ok:
            break
    # generic-point invariance over three generic points y
    for name, P in [("skew-quad", build_polytope(pts((0, 0), (0, 2), (2, 0), (3, 3)))),
                    ("half-wide", dilate(build_polytope(pts((0, 0), (0, 2), (5, 2))), F(1, 2))),
                    ("cube", build_polytope([(x, y, z) for x in (0, 1)
                                             for y in (0, 1) for z in (0, 1)]))]:
        T, q, v = triangulate_boundary(P), P.denominator_q, P.vertices[0]
        ys = generic_points(P)
        ok = ok and len({hstar_cells(half_open_decompose(T, P, y=y)[0].simplices, q)
                         for y in ys} | {hstar_boundary(P)}) == 1
        top, slacks = _apex(P, v)
        ok = ok and len({hstar_cells(_half_open(P, _pull_facets(P, slacks), v, top, y).cells, q)
                         for y in ys} | {hstar_polytope(P)}) == 1
    _report(6, "palindromicity, reciprocity, boundary difference identity, "
               "positivity chain, missing-face bounds, generic-point invariance", ok)


def test_criterion_7_inequality_suite():
    ok = True
    for name, P in CORPUS:
        if not P.is_lattice:
            continue
        audit = inequality_audit(P)
        for item in audit.items:
            if item.applicable and item.level == "requirement":
                ok = ok and item.passed
        if not ok:
            break
    tri = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    audit = inequality_audit(tri)
    item = next(i for i in audit.items if i.name == "leading_coefficient_bound")
    ok = ok and item.passed and item.witness == \
        "(ell*d/2)*k_d = 3/2 vs k_{d-1} = 3/2"
    _report(7, "cumulative inequalities and leading-coefficient bound on the "
               "lattice corpus, tight for the standard simplex (3/2 = 3/2)", ok)


def test_criterion_8_gorenstein_suite():
    ok = True
    cases = []
    for d in (1, 2, 3):
        cases.append(("cube-%d" % d, build_polytope(list(product((-1, 1), repeat=d)))))
    from ehrkit.corpus import reflexive_triangles
    cases.extend(reflexive_triangles())
    cases.append(("simplex", build_polytope(pts((0, 0), (1, 0), (0, 1)))))
    scaled = []
    for name, P in cases:
        for k in (2, 3):
            scaled.append(("%s-over-%d" % (name, k), dilate(P, F(1, k))))
    cases.extend(scaled)

    for name, P in cases:
        report = verify_gorenstein_identities(P)  # raises IdentityViolated on failure
        ok = ok and report.status.g is not None
        # a box scan of every lattice dilate up to q(d+1) agrees with the solve
        q, d = P.denominator_q, P.dim
        exhaustive = None
        for g in range(1, q * (d + 1) + 1):
            if g % q:
                continue
            if scan_reflexive(dilate(P, g))[0]:
                exhaustive = g
                break
        ok = ok and exhaustive == report.status.g
        if not ok:
            break
    simplex_status = gorenstein_index(build_polytope(pts((0, 0), (1, 0), (0, 1))))
    ok = ok and simplex_status.g == 3
    _report(8, "reflexive/Gorenstein identities on cubes, reflexive triangles, "
               "the standard simplex and their 1/k scalings; exhaustive g-search "
               "matches", ok)
