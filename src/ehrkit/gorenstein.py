"""Reflexive / Gorenstein classification and the boundary identities.

A lattice polytope is reflexive (up to integral translation) when moving some
interior lattice point to the origin makes every gcd-normalized facet offset
equal to one.  A rational polytope with the origin strictly inside is
rational reflexive exactly when all its facet offsets are one already.  P is
(rational) g-Gorenstein when gP is an integral translate of a reflexive
polytope.  With each facet of P written n . x <= c, n primitive, gP + t is
reflexive exactly when q divides g (gP is a lattice polytope), t is integral
and g c + n . t = 1 on every facet (Batyrev's facet characterization).  That
linear system in (g, t) has at most one solution, since the facets of a
bounded full-dimensional polytope neither all pass through one point nor
have normals in one hyperplane; so classification is one exact solve and
enumerates no lattice points.

The identity suite: writing ell for the minimal dilation of P itself with an
interior lattice point,

    reflexive lattice P:      h*_P = h*_boundary
    rational reflexive P:     h*_P = (1 + ... + z^(q-1)) h*_boundary
    g-Gorenstein lattice P:   h*_boundary = (1 + ... + z^(g-1)) h*_P   (g = ell)
    rational g-Gorenstein P:  (1 + ... + z^(ell-1)) h*_P = (1 + ... + z^(q-1)) h*_boundary

The last line is the b(z) = 0 statement of the symmetric decomposition; g and
ell(P) agree for lattice polytopes but can differ for rational ones (the
segment [0, 2/3] has g = 3, ell = 2), which is why the rational identity is
phrased through ell.  The lattice check g = ell compares the solve with the
report's interior-point search, two independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .errors import IdentityViolated, NotFullDimensional, NotLatticePolytope, OriginNotInterior
from .geometry import Polytope, as_point, contains
from .decomposition import EhrhartReport
from .linalg import solve_unique


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


def _reflexive_translate(P: Polytope):
    """The unique (g, t) with gP + t reflexive, or None when there is none.

    A facet normal . x <= offset of P is n . x <= c with k = gcd(normal),
    n = normal / k and c = offset / k, so g c + n . t = 1 reads
    g offset + normal . t = k; (g, t) must be integral with q dividing g.
    """
    rows = [(hs.offset,) + hs.normal for hs in P.facets]
    solution = solve_unique(rows, [gcd(*hs.normal) for hs in P.facets])
    if solution is None or any(x.denominator != 1 for x in solution):
        return None
    g, *t = map(int, solution)
    return (g, tuple(t)) if g % P.denominator_q == 0 else None


def is_reflexive(P: Polytope):
    """(flag, translation) -- translation is the integer shift making offsets one."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("reflexivity needs a full-dimensional polytope")
    if not P.is_lattice:
        raise NotLatticePolytope("reflexivity is defined for lattice polytopes")
    found = _reflexive_translate(P)
    if found is None or found[0] != 1:
        return False, None
    return True, found[1]


def is_rational_reflexive(P: Polytope) -> bool:
    """True when every gcd-normalized facet reads normal . x <= 1."""
    origin = as_point([0] * P.ambient_dim)
    if not contains(P, origin, "interior"):
        raise OriginNotInterior("rational reflexivity needs the origin strictly inside")
    return all(hs.offset == 1 for hs in P.facets)


def gorenstein_index(P: Polytope) -> GorensteinStatus:
    """Classify P by the unique g and integral translate t with gP + t
    reflexive.

    One exact solve on the facets finds them or shows there are none; g is
    then a multiple of q.  Offsets all equal to one put the origin strictly
    inside, so they make a rational P rational reflexive.
    """
    found = _reflexive_translate(P)
    if not P.is_lattice and all(hs.offset == 1 for hs in P.facets):
        kind = GorensteinKind.RATIONAL_REFLEXIVE
    elif found is None:
        kind = GorensteinKind.NONE
    elif P.is_lattice:
        kind = GorensteinKind.REFLEXIVE if found[0] == 1 else GorensteinKind.GORENSTEIN
    else:
        kind = GorensteinKind.RATIONAL_GORENSTEIN
    return GorensteinStatus(kind, *(found or (None, None)))


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

    # geom(k) = (1 - z^k)/(1 - z), and multiplying both sides by 1 - z loses nothing
    if status.kind is GorensteinKind.REFLEXIVE:
        _require(h == hb, "reflexive polytope must have h* equal to boundary h*")
        checks.append("hstar_equals_boundary")
    elif status.kind is GorensteinKind.RATIONAL_REFLEXIVE:
        _require(h.times_one_minus(1) == hb.times_one_minus(q),
                 "rational reflexive polytope must satisfy h* = geom(q) * boundary h*")
        checks.append("hstar_equals_geom_q_times_boundary")
    elif status.kind is GorensteinKind.GORENSTEIN:
        g = status.g
        _require(hb.times_one_minus(1) == h.times_one_minus(g),
                 "Gorenstein polytope must satisfy boundary h* = geom(g) * h*")
        _require(g == ell, "lattice Gorenstein index must equal the interior dilate")
        checks.append("boundary_equals_geom_g_times_hstar")
    elif status.kind is GorensteinKind.RATIONAL_GORENSTEIN:
        _require(h.times_one_minus(ell) == hb.times_one_minus(q),
                 "rational Gorenstein polytope must satisfy geom(ell) h* = geom(q) boundary h*")
        checks.append("geom_ell_hstar_equals_geom_q_boundary")

    _require(h.is_palindromic(), "classified polytopes have palindromic h*")
    checks.append("hstar_palindromic")
    return GorensteinIdentityReport(status, tuple(checks), {"hstar": h, "hstar_boundary": hb})
