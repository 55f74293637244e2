"""Rational-dilation Ehrhart series: codenominator, numerators, decomposition.

The codenominator r is the lcm of the nonzero offsets in the gcd-normalized
facet description.  Counting along dilation steps 1/r (or 1/2r for the
refined series) is ordinary Ehrhart theory for the scaled polytope
S = (1/r)P, so the series is read off one EhrhartReport of S: the numerator
is h*_S re-expressed with uniform height m and exponents regraded by 1/r,
and the decomposition a + z^ell b is Stapledon's decomposition of S, with
a = h*_boundary(S) and b cross-checked by the parallelepiped route.  Which
grid is decomposed follows the position of the origin: on the boundary the
grid r, outside the refined grid 2r.  Strictly inside, ell(S) = 1, so the
numerator is a itself and must be palindromic (checked), and b = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .errors import IdentityViolated, InvalidM
from .geometry import Polytope, dilate
from .gradedpoly import GradedPolynomial, _json_flag, _json_int
from .decomposition import EhrhartReport


# Most terms a lifted numerator may hold, m(d + 1).  At about 500 bytes per
# term at the peak of the lift, 10^6 terms take about 0.5 GB.
LIFT_TERM_LIMIT = 10 ** 6


def codenominator(P: Polytope) -> int:
    """lcm of the nonzero facet offsets; at least one offset is nonzero."""
    offsets = [abs(hs.offset) for hs in P.facets if hs.offset != 0]
    if not offsets:
        raise IdentityViolated("a bounded polytope cannot have all offsets zero")
    return lcm(*offsets)


_ORIGIN_POSITIONS = ("interior", "boundary", "outside")


@dataclass(frozen=True)
class RationalSeriesReport:
    r: int
    m: int
    refined: bool
    numerator: GradedPolynomial
    origin_position: str  # one of _ORIGIN_POSITIONS
    decomposition: tuple[GradedPolynomial, GradedPolynomial, int] | None

    def to_json_dict(self) -> dict:
        out = {
            "r": str(self.r),
            "m": str(self.m),
            "refined": self.refined,
            "numerator": self.numerator.to_json_dict(),
            "origin_position": self.origin_position,
        }
        if self.decomposition is not None:
            a, b, ell = self.decomposition
            out["decomposition"] = {"a": a.to_json_dict(), "b": b.to_json_dict(),
                                    "ell": str(ell)}
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "RationalSeriesReport":
        decomp = None
        if "decomposition" in data:
            d = data["decomposition"]
            decomp = (GradedPolynomial.from_json_dict(d["a"]),
                      GradedPolynomial.from_json_dict(d["b"]), _json_int(d["ell"], "ell"))
        if data["origin_position"] not in _ORIGIN_POSITIONS:
            raise ValueError("origin_position must be one of %s, got %r"
                             % (", ".join(_ORIGIN_POSITIONS), data["origin_position"]))
        return RationalSeriesReport(
            r=_json_int(data["r"], "r"), m=_json_int(data["m"], "m"),
            refined=_json_flag(data["refined"], "refined"),
            numerator=GradedPolynomial.from_json_dict(data["numerator"]),
            origin_position=data["origin_position"], decomposition=decomp)


def _origin_position(P: Polytope) -> str:
    least = min(P._int_slacks((0,) * P.ambient_dim, 1))
    return "interior" if least > 0 else "boundary" if least == 0 else "outside"


def _lifted_numerator(scaled: EhrhartReport, m: int) -> GradedPolynomial:
    """h* of the scaled polytope re-expressed over (1 - z^m)^(d+1).

    m must be an int, not a bool.  At m = q the lift is 1.  Otherwise h* is
    multiplied d + 1 times by (1 - z^m)/(1 - z^q), a pass each way over fewer
    than m(d+1) terms.  Checked before h* is computed, the bound caps those
    m(d+1) terms, which size both the output and each pass, by LIFT_TERM_LIMIT.
    """
    q, d = scaled.q, scaled.d
    if not isinstance(m, int) or isinstance(m, bool):
        raise InvalidM("m must be an int, got %r" % (m,))
    if m < 1 or m % q != 0:
        raise InvalidM("m = %d does not make the scaled polytope a lattice polytope "
                       "(needs a positive multiple of %d)" % (m, q))
    if m == q:
        return scaled.hstar
    if m * (d + 1) > LIFT_TERM_LIMIT:
        raise InvalidM("m = %d lifts the numerator to %d terms, more than the limit %d"
                       % (m, m * (d + 1), LIFT_TERM_LIMIT))
    h = scaled.hstar
    for _ in range(d + 1):
        h = h.times_one_minus(m).over_one_minus(q)
    return h


def _series(P: Polytope, refined: bool, m: int | None, position: str):
    """The series report of P, whose origin lies at `position`, on its grid and
    the EhrhartReport of the scaled polytope."""
    r = codenominator(P)
    grid = 2 * r if refined else r
    scaled = EhrhartReport(dilate(P, Fraction(1, grid)))
    if m is None:
        m = scaled.q
    numerator = _lifted_numerator(scaled, m).regrade(grid)
    if not (numerator.degree_key < m * (P.dim + 1) and numerator.is_nonnegative):
        raise IdentityViolated("numerator must be nonnegative of degree below m(d+1)")
    report = RationalSeriesReport(r=r, m=m, refined=refined, numerator=numerator,
                                  origin_position=position, decomposition=None)
    return report, scaled


def rational_series(P: Polytope, refined: bool = False,
                    m: int | None = None) -> RationalSeriesReport:
    """Numerator of the rational Ehrhart series on the grid r (2r when refined).

    m must make (m/r)P -- refined: (m/(2r))P -- a lattice polytope and defaults
    to the minimal such value; the numerator depends on it, so it is recorded.
    """
    return _series(P, refined, m, _origin_position(P))[0]


def rational_decompose(P: Polytope) -> RationalSeriesReport:
    """Three-case decomposition of the rational series by origin position.

    interior: the numerator itself is palindromic (checked).  boundary: the
    decomposition of the scaled polytope (1/r)P, regraded by 1/r.  outside:
    the same on the refined grid 2r.
    """
    position = _origin_position(P)
    report, scaled = _series(P, position == "outside", None, position)
    if position == "interior":
        if not report.numerator.is_palindromic():
            raise IdentityViolated("origin strictly inside forces a palindromic numerator")
        return report
    grid = 2 * report.r if report.refined else report.r
    dec = scaled.decomposition
    return replace(report, decomposition=(dec.a.regrade(grid), dec.b.regrade(grid), dec.ell))
