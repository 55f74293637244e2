import hashlib
import json
from fractions import Fraction as F

import pytest

from ehrkit import rational_ehrhart
from ehrkit.errors import InvalidM
from ehrkit.geometry import build_polytope, contains, dilate
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.decomposition import EhrhartReport, hstar_boundary, hstar_polytope
from ehrkit.ehrhart import SeriesForm
from ehrkit.oracle import count_points
from ehrkit.rational_ehrhart import (
    RationalSeriesReport,
    codenominator,
    rational_decompose,
    rational_series,
)


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


wide = build_polytope(pts((0, 0), (0, 2), (5, 2)))
box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))


def test_codenominator_examples():
    assert codenominator(wide) == 2
    assert codenominator(box) == 1
    assert codenominator(build_polytope(pts((0, 0), (1, 0), (0, 1)))) == 1


def test_rational_series_worked_example():
    rep = rational_series(wide, m=2)
    assert (rep.r, rep.m, rep.refined) == (2, 2, False)
    assert rep.numerator == GP.from_list([1, 4, 7, 6, 2], grid=2)
    assert rep.numerator.text() == "1 + 4*z^(1/2) + 7*z + 6*z^(3/2) + 2*z^2"
    assert rep.origin_position == "boundary"
    # default m is the minimal valid one
    assert rational_series(wide).m == 2


def test_rational_series_lattice_polytope_is_classical():
    rep = rational_series(box, m=1)
    assert rep.r == 1 and rep.numerator == GP.from_list([1, 6, 1])
    seg = build_polytope(pts((0,), (1,)))
    rep = rational_series(seg, m=1)
    assert rep.numerator == GP.one()


def test_rational_series_invalid_m():
    with pytest.raises(InvalidM):
        rational_series(wide, m=3)  # (3/2)P is not a lattice polytope


@pytest.mark.parametrize("m", [0, -2])
def test_rational_series_rejects_nonpositive_m(m):
    with pytest.raises(InvalidM):
        rational_series(wide, m=m)


@pytest.mark.parametrize("endpoint, m", [(F(1, 2), 2.0), (1, True), (F(1, 2), 4.0),
                                         (F(1, 2), "4")])
def test_rational_series_takes_only_an_int_m(endpoint, m):
    """m is never coerced: 2.0 and True would be written to the report as
    "2.0" and "True", which its own reader refuses, and 4.0 and "4" are
    refused as InvalidM, not as a TypeError from the arithmetic."""
    with pytest.raises(InvalidM, match="must be an int"):
        rational_series(build_polytope(pts((0,), (endpoint,))), m=m)


def test_rational_series_refuses_a_huge_lift(monkeypatch):
    """m = 10^6 on the standard 3-simplex would lift the numerator to
    4 * 10^6 terms, about 1.9 GB at the lift's peak; it is refused before
    h* is computed."""
    def multiply(self, e):
        raise AssertionError("the lift multiplied before its size check")
    monkeypatch.setattr(GP, "times_one_minus", multiply)
    monkeypatch.setattr(EhrhartReport, "hstar", property(lambda self: pytest.fail("h* computed")))
    simplex = build_polytope(pts((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(InvalidM, match="4000000 terms, more than the limit 1000000"):
        rational_series(simplex, m=10 ** 6)


def test_the_lift_term_limit_is_inclusive(monkeypatch):
    """A lift of exactly LIFT_TERM_LIMIT terms is made; the next multiple of
    q, one more term per factor, is refused.  The limit is lowered so the
    lift at the boundary stays small: the unit square has q = 1, d + 1 = 3."""
    monkeypatch.setattr(rational_ehrhart, "LIFT_TERM_LIMIT", 3 * 60)
    square = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    assert rational_series(square, m=60).m == 60
    with pytest.raises(InvalidM, match="m = 61 lifts the numerator to 183 terms"):
        rational_series(square, m=61)


def test_a_lift_of_a_large_q_is_refused(monkeypatch):
    """The term bound refuses every lift m != q once q(d + 1) > LIFT_TERM_LIMIT / 2,
    since m >= 2q.  Here d = 2, q = 2 * 10^5 and m = 2q: 1.2 * 10^6 terms.  The
    earlier bound, 10^8 schoolbook coefficient products, counted 24q = 4.8 * 10^6
    and accepted it.  The refusal comes before h* is computed."""
    monkeypatch.setattr(EhrhartReport, "hstar", property(lambda self: pytest.fail("h* computed")))
    q = 200_000
    sliver = build_polytope(pts((0, 0), (1, 0), (0, F(1, q))))
    with pytest.raises(InvalidM, match="1200000 terms, more than the limit 1000000"):
        rational_series(sliver, m=2 * q)


def test_rational_series_lifts_the_square_to_m_6000():
    """The unit square at m = 6000 lifts to 17,999 terms, well within the
    term limit; its series matches the lattice-point counts of the first
    dilates and of those next to m."""
    square = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    rep = rational_series(square, m=6000)
    assert (rep.r, rep.m, len(rep.numerator.as_dict())) == (1, 6000, 17_999)
    coeffs = SeriesForm(rep.numerator, F(rep.m), 3).coefficients(6003)
    for n in (1, 2, 3, 4, 5, 5999, 6000, 6001, 6002):
        assert coeffs[n] == count_points(dilate(square, n), 1) == (n + 1) ** 2, n


def test_rational_decompose_worked_example():
    rep = rational_decompose(wide)
    assert rep.origin_position == "boundary" and not rep.refined
    a, b, ell = rep.decomposition
    assert ell == 2
    assert a == GP.from_list([1, 4, 6, 4, 1], grid=2)
    assert b == GP.from_list([1, 2, 1], grid=2)
    # z^(ell/r) = z: the shifted part reassembles the numerator
    assert a + b.shift(ell) == rep.numerator


def test_rational_decompose_at_codenominator_5005():
    """The origin lies outside this polygon, so the decomposed polytope is
    P/(2r) with q = 10,010.  Its series algebra is linear in q; with long
    division it took minutes."""
    P = build_polytope(pts((2, F(-1, 2)), (F(-3, 2), -2), (F(1, 2), -1), (F(1, 2), F(-3, 2))))
    rep = rational_decompose(P)
    assert (rep.r, rep.refined, rep.origin_position) == (5005, True, "outside")
    data = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == \
        "8c73a640e36281ae97667af5a62398df53429a74fedf817b2e34ea9cfa5dd7dc"


def test_rational_decompose_interior_case():
    rep = rational_decompose(box)
    assert rep.origin_position == "interior"
    assert rep.numerator.is_palindromic()
    assert rep.decomposition is None


def test_rational_decompose_outside_case():
    shifted = build_polytope(pts((1, 1), (1, 2), (2, 1), (2, 2)))
    rep = rational_decompose(shifted)
    assert rep.origin_position == "outside" and rep.refined
    assert rep.r == 2 and rep.m == 4
    assert rep.numerator.grid == 4
    a, b, ell = rep.decomposition
    assert ell == 3
    assert a.is_palindromic(rep.m * shifted.dim)
    assert b.is_zero or b.is_palindromic(rep.m * shifted.dim - ell)
    assert a.is_nonnegative and b.is_nonnegative


def test_case2_a_equals_rational_boundary_numerator():
    rep = rational_decompose(wide)
    a, _, _ = rep.decomposition
    scaled = dilate(wide, F(1, rep.r))
    hb = hstar_boundary(scaled)
    q = scaled.denominator_q
    lift = GP.from_dict({q * i: 1 for i in range(rep.m // q)})
    for _ in range(scaled.dim):
        hb = hb * lift
    assert a == hb.regrade(rep.r)


# Random corpus members can have huge codenominators (lcm of facet offsets),
# which makes (1/r)P computations blow up combinatorially; the rational-series
# sweeps therefore only cover members at desk scale.
_R_CAP = 12


def _tractable(P):
    return P.is_full_dimensional and codenominator(P) <= _R_CAP


def test_series_consistency_against_counts(corpus_polytope):
    """Series coefficients reproduce |(n/grid) P ∩ Z^d| for n = 1..3*grid."""
    P = corpus_polytope
    if not _tractable(P):
        return
    rep = rational_decompose(P)
    grid = 2 * rep.r if rep.refined else rep.r
    sf = SeriesForm(rep.numerator, F(rep.m, grid), P.dim + 1)
    coeffs = sf.coefficients(3 * grid + 1)
    for n in range(1, 3 * grid + 1):
        assert coeffs[n] == count_points(dilate(P, F(n, grid)), 1), n


def test_integer_exponent_extraction(corpus_polytope):
    """With m = q(P) * r the integer-exponent terms recover classical h*."""
    P = corpus_polytope
    if not _tractable(P):
        return
    origin = (F(0),) * P.ambient_dim
    if not contains(P, origin, "closed"):
        return
    r = codenominator(P)
    rep = rational_series(P, m=P.denominator_q * r)
    assert rep.numerator.integer_part() == hstar_polytope(P)


def test_refined_allowed_anywhere():
    rep = rational_series(wide, refined=True)
    assert rep.refined and rep.numerator.grid == 4
    sf = SeriesForm(rep.numerator, F(rep.m, 4), wide.dim + 1)
    coeffs = sf.coefficients(9)
    for n in range(1, 9):
        assert coeffs[n] == count_points(dilate(wide, F(n, 4)), 1)


def test_report_json_roundtrip():
    rep = rational_decompose(wide)
    assert RationalSeriesReport.from_json_dict(rep.to_json_dict()) == rep
    rep = rational_series(box)
    assert RationalSeriesReport.from_json_dict(rep.to_json_dict()) == rep


@pytest.mark.parametrize("field, value", [
    ("r", 1.9), ("r", True), ("m", "2.0"), ("m", None), ("refined", "no"), ("refined", 0),
    ("origin_position", "inside"), ("origin_position", None), ("ell", True), ("ell", 2.5),
])
def test_report_json_rejects_loose_fields(field, value):
    """Integer fields read as GradedPolynomial's do: an int or a
    decimal-integer string; refined is a JSON boolean and origin_position
    one of interior, boundary, outside."""
    doc = rational_decompose(wide).to_json_dict()
    (doc["decomposition"] if field == "ell" else doc)[field] = value
    with pytest.raises(ValueError, match=field):
        RationalSeriesReport.from_json_dict(doc)


def test_degree_bound_and_nonnegativity(corpus_polytope):
    P = corpus_polytope
    if not _tractable(P):
        return
    rep = rational_series(P)
    assert rep.numerator.degree_key < rep.m * (P.dim + 1)
    assert rep.numerator.is_nonnegative
    if rep.origin_position == "interior":
        assert rep.numerator.is_palindromic()
