"""Reflexive / Gorenstein classification and the boundary identities.

A lattice polytope is reflexive (up to integral translation) when moving some
interior lattice point to the origin makes every gcd-normalized facet offset
equal to one.  A rational polytope with the origin strictly inside is
rational reflexive exactly when all its facet offsets are one already.  P is
(rational) g-Gorenstein when gP is an integral translate of a reflexive
polytope; since tQ with Q = qP lattice has nondecreasing interior counts and
a reflexive dilate carries exactly one interior lattice point, the only
candidate is g = q * ell(qP).

The identity suite: writing ell for the minimal dilation of P itself with an
interior lattice point,

    reflexive lattice P:      h*_P = h*_boundary
    rational reflexive P:     h*_P = (1 + ... + z^(q-1)) h*_boundary
    g-Gorenstein lattice P:   h*_boundary = (1 + ... + z^(g-1)) h*_P   (g = ell)
    rational g-Gorenstein P:  (1 + ... + z^(ell-1)) h*_P = (1 + ... + z^(q-1)) h*_boundary

The last line is the b(z) = 0 statement of the symmetric decomposition; g and
ell(P) agree for lattice polytopes but can differ for rational ones (the
segment [0, 2/3] has g = 3, ell = 2), which is why the rational identity is
phrased through ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    IdentityViolated,
    NotFullDimensional,
    NotLatticePolytope,
    OriginNotInterior,
)
from .geometry import Polytope, as_point, contains, dilate
from .gradedpoly import GradedPolynomial
from .decomposition import EhrhartReport
from .triangulation import find_interior_point, interior_lattice_points


class GorensteinKind(Enum):
    REFLEXIVE = "reflexive"
    RATIONAL_REFLEXIVE = "rational_reflexive"
    GORENSTEIN = "gorenstein"
    RATIONAL_GORENSTEIN = "rational_gorenstein"
    NONE = "none"


@dataclass(frozen=True)
class GorensteinStatus:
    kind: GorensteinKind
    g: int | None
    translate: tuple[int, ...] | None

    def describe(self) -> str:
        if self.kind is GorensteinKind.NONE:
            return "none"
        out = self.kind.value
        if self.g is not None and self.kind in (GorensteinKind.GORENSTEIN,
                                                GorensteinKind.RATIONAL_GORENSTEIN):
            out += "(g=%d)" % self.g
        return out


def is_reflexive(P: Polytope):
    """(flag, translation) -- translation is the integer shift making offsets one."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("reflexivity needs a full-dimensional polytope")
    if not P.is_lattice:
        raise NotLatticePolytope("reflexivity is defined for lattice polytopes")
    for u in interior_lattice_points(P):
        if all(hs.offset - sum(a * c for a, c in zip(hs.normal, u)) == 1
               for hs in P.facets):
            return True, tuple(-c for c in u)
    return False, None


def is_rational_reflexive(P: Polytope) -> bool:
    """True when every gcd-normalized facet reads normal . x <= 1."""
    origin = as_point([0] * P.ambient_dim)
    if not contains(P, origin, "interior"):
        raise OriginNotInterior("rational reflexivity needs the origin strictly inside")
    return all(hs.offset == 1 for hs in P.facets)


def gorenstein_index(P: Polytope) -> GorensteinStatus:
    """Classify P; the only possible Gorenstein index is g = q * ell(qP)."""
    q = P.denominator_q
    lattice_model = dilate(P, q)
    ell_lattice, _ = find_interior_point(lattice_model)
    g = q * ell_lattice
    candidate = dilate(P, g)
    flag, shift = is_reflexive(candidate)

    rational_reflexive = False
    origin = as_point([0] * P.ambient_dim)
    if q > 1 and contains(P, origin, "interior"):
        rational_reflexive = is_rational_reflexive(P)

    if q == 1:
        if flag and g == 1:
            kind = GorensteinKind.REFLEXIVE
        elif flag:
            kind = GorensteinKind.GORENSTEIN
        else:
            kind = GorensteinKind.NONE
    else:
        if rational_reflexive:
            kind = GorensteinKind.RATIONAL_REFLEXIVE
        elif flag:
            kind = GorensteinKind.RATIONAL_GORENSTEIN
        else:
            kind = GorensteinKind.NONE

    if flag:
        return GorensteinStatus(kind, g, shift)
    return GorensteinStatus(kind, None, None)


@dataclass(frozen=True)
class GorensteinIdentityReport:
    status: GorensteinStatus
    checks: tuple[str, ...]
    polynomials: dict


def _require(condition: bool, message: str):
    if not condition:
        raise IdentityViolated(message)


def verify_gorenstein_identities(P: Polytope) -> GorensteinIdentityReport:
    """Verify every boundary identity applicable to P's classification.

    These are theorems, so a failure raises IdentityViolated; the returned
    report lists which identities were exercised and carries the verified
    polynomials as certificates.
    """
    status = gorenstein_index(P)
    if status.kind is GorensteinKind.NONE:
        return GorensteinIdentityReport(status, (), {})

    q = P.denominator_q
    report = EhrhartReport(P)
    h, hb, ell = report.hstar, report.hstar_boundary, report.ell
    checks: list[str] = []

    geom = GradedPolynomial.geometric

    if status.kind is GorensteinKind.REFLEXIVE:
        _require(h == hb, "reflexive polytope must have h* equal to boundary h*")
        checks.append("hstar_equals_boundary")
    elif status.kind is GorensteinKind.RATIONAL_REFLEXIVE:
        _require(h == geom(q) * hb,
                 "rational reflexive polytope must satisfy h* = geom(q) * boundary h*")
        checks.append("hstar_equals_geom_q_times_boundary")
    elif status.kind is GorensteinKind.GORENSTEIN:
        g = status.g
        _require(hb == geom(g) * h,
                 "Gorenstein polytope must satisfy boundary h* = geom(g) * h*")
        _require(g == ell, "lattice Gorenstein index must equal the interior dilate")
        checks.append("boundary_equals_geom_g_times_hstar")
    elif status.kind is GorensteinKind.RATIONAL_GORENSTEIN:
        _require(geom(ell) * h == geom(q) * hb,
                 "rational Gorenstein polytope must satisfy geom(ell) h* = geom(q) boundary h*")
        checks.append("geom_ell_hstar_equals_geom_q_boundary")

    _require(h.is_palindromic(), "classified polytopes have palindromic h*")
    checks.append("hstar_palindromic")
    return GorensteinIdentityReport(status, tuple(checks), {"hstar": h, "hstar_boundary": hb})
