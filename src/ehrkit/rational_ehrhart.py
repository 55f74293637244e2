"""Rational-dilation Ehrhart series: codenominator, numerators, decomposition.

The codenominator r is the lcm of the nonzero offsets in the gcd-normalized
facet description.  Counting along dilation steps 1/r (or 1/2r for the
refined series) is ordinary Ehrhart theory for the scaled polytope (1/r)P, so
the numerator here is its h*-polynomial re-expressed with uniform height m
and exponents regraded by 1/r.  The three-way decomposition follows the
position of the origin: strictly inside forces palindromicity, on the
boundary decomposes the grid-r numerator, outside switches to the refined
grid 2r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import IdentityViolated, InvalidM, NotFullDimensional
from .geometry import Polytope, as_point, contains, dilate
from .gradedpoly import GradedPolynomial
from .ehrhart import hstar_polytope
from .decomposition import symmetric_decompose
from .triangulation import find_interior_point


def codenominator(P: Polytope) -> int:
    """lcm of the nonzero facet offsets; at least one offset is nonzero."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("codenominator needs a full-dimensional polytope")
    offsets = [abs(hs.offset) for hs in P.facets if hs.offset != 0]
    if not offsets:
        raise IdentityViolated("a bounded polytope cannot have all offsets zero")
    return lcm(*offsets)


@dataclass(frozen=True)
class RationalSeriesReport:
    r: int
    m: int
    refined: bool
    numerator: GradedPolynomial
    origin_position: str  # interior | boundary | outside
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
                      GradedPolynomial.from_json_dict(d["b"]), int(d["ell"]))
        return RationalSeriesReport(
            r=int(data["r"]), m=int(data["m"]), refined=bool(data["refined"]),
            numerator=GradedPolynomial.from_json_dict(data["numerator"]),
            origin_position=data["origin_position"], decomposition=decomp)


def _origin_position(P: Polytope) -> str:
    origin = as_point([0] * P.ambient_dim)
    if contains(P, origin, "interior"):
        return "interior"
    if contains(P, origin, "closed"):
        return "boundary"
    return "outside"


def _lifted_numerator(scaled: Polytope, m: int) -> GradedPolynomial:
    """h* of the scaled polytope re-expressed over (1 - z^m)^(d+1)."""
    q = scaled.denominator_q
    if m % q != 0:
        raise InvalidM("m = %d does not make the scaled polytope a lattice polytope "
                       "(needs a multiple of %d)" % (m, q))
    h = hstar_polytope(scaled)
    lift = GradedPolynomial.from_dict({q * i: 1 for i in range(m // q)})
    for _ in range(scaled.dim + 1):
        h = h * lift
    return h


def rational_series(P: Polytope, refined: bool = False,
                    m: int | None = None) -> RationalSeriesReport:
    """Numerator of the rational Ehrhart series on the grid r (2r when refined).

    m must make (m/r)P -- refined: (m/(2r))P -- a lattice polytope and defaults
    to the minimal such value; the numerator depends on it, so it is recorded.
    """
    r = codenominator(P)
    grid = 2 * r if refined else r
    scaled = dilate(P, Fraction(1, grid))
    if m is None:
        m = scaled.denominator_q
    numerator = _lifted_numerator(scaled, m).regrade(grid)
    d = P.dim
    if not (numerator.degree_key < m * (d + 1) and numerator.is_nonnegative):
        raise IdentityViolated("numerator must be nonnegative of degree below m(d+1)")
    return RationalSeriesReport(r=r, m=m, refined=refined, numerator=numerator,
                                origin_position=_origin_position(P), decomposition=None)


def rational_decompose(P: Polytope) -> RationalSeriesReport:
    """Three-case decomposition of the rational series by origin position.

    interior: the numerator itself is palindromic (checked).  boundary:
    decompose the grid-r numerator with ell taken from the scaled polytope.
    outside: the same on the refined grid 2r.
    """
    position = _origin_position(P)
    refined = position == "outside"
    report = rational_series(P, refined=refined)
    grid = 2 * report.r if refined else report.r
    scaled = dilate(P, Fraction(1, grid))

    if position == "interior":
        if not report.numerator.is_palindromic():
            raise IdentityViolated("origin strictly inside forces a palindromic numerator")
        return report

    ell, _ = find_interior_point(scaled)
    plain = GradedPolynomial(1, report.numerator.coeffs)  # same keys, integer grid
    a, b = symmetric_decompose(plain, report.m, ell, P.dim)
    decomposition = (a.regrade(grid), b.regrade(grid), ell)
    return RationalSeriesReport(r=report.r, m=report.m, refined=refined,
                                numerator=report.numerator,
                                origin_position=position,
                                decomposition=decomposition)
