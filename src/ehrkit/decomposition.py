"""The per-polytope analysis, its views, and the symmetric decomposition of h*.

EhrhartReport is the analysis of one polytope, computing each artifact once.
Every per-polytope entry point is a view of it: hstar_polytope,
hstar_boundary, hstar_interior, the series forms, the quasipolynomial and the
volume read one field, and stapledon_report, inequality_audit and
ehrhart_report read the decomposition and the audit.

Writing (1 + ... + z^(ell-1))/(1 + ... + z^(q-1)) * h*_P as a(z) + z^ell b(z)
with both parts palindromic has a unique solution; here a is recovered in
closed form from the reversal identity and cross-checked against two
independent computations.  Both read the one half-open triangulation path
with an interior apex x of dilation denominator ell: the cells without x give
the boundary h*-polynomial, and the cells at heights (q, ..., q, ell) give b.
h* itself comes from the same path with a vertex as apex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, factorial

from .errors import ApexInSpan, IdentityViolated, NoSolution, NotDivisible, NotFullDimensional
from .geometry import Polytope, as_point, build_polytope, point_denominator
from .gradedpoly import GradedPolynomial, _json_flag, _json_int
from .ehrhart import QuasiCoefficients, SeriesForm, _height_counts, _hstar, hstar_cells
# unused here but stays bound: perfbench's streaming-walk test patches it at this name
from .ehrhart import fpp_lattice_points  # noqa: F401
from .triangulation import (ConeTriangulation, HalfOpenSimplex, _decompose, _pull_facets,
                            find_interior_point, half_open_cone)


def symmetric_decompose(h: GradedPolynomial, q: int, ell: int, d: int):
    """Unique palindromic pair (a, b) with geom(ell)/geom(q) * h = a + z^ell b.

    a is palindromic of degree q*d, b of degree q*d - ell (or zero).  The
    closed form comes from reversing the left side in degree q*d: the reversal
    fixes a and negates the z^ell-shift, so b = (reverse - lhs) / (1 - z^ell).
    """
    if h.grid != 1:
        raise ValueError("decomposition works on integer-exponent polynomials")
    quot = h.times_one_minus(1).over_one_minus(q)
    if quot is None:
        raise NotDivisible("input is not divisible by 1 + z + ... + z^%d" % (q - 1))
    lhs = quot.times_one_minus(ell).over_one_minus(1)
    n = q * d
    if lhs.degree_key > n:
        raise NoSolution("left side exceeds degree %d" % n)
    # lhs lies in geom(ell) Z[z] with degree <= n, so these two are theorems
    b = (lhs.reverse(n) - lhs).over_one_minus(ell)
    if b is None:
        raise IdentityViolated("reversal difference is not divisible by 1 - z^ell")
    a = lhs - b.shift(ell)
    if not (a.is_palindromic(n) and (b.is_zero or b.is_palindromic(n - ell))):
        raise IdentityViolated("decomposition is not palindromic")
    return a, b


@dataclass(frozen=True)
class DecompositionReport:
    q: int
    ell: int
    lhs: GradedPolynomial
    a: GradedPolynomial
    b: GradedPolynomial
    a_equals_boundary: bool
    """Always True: the report raises IdentityViolated when a is not boundary h*."""
    s_degree: int

    def to_json_dict(self) -> dict:
        return {
            "q": str(self.q),
            "ell": str(self.ell),
            "s_degree": str(self.s_degree),
            "lhs": self.lhs.to_json_dict(),
            "a": self.a.to_json_dict(),
            "b": self.b.to_json_dict(),
            "a_equals_boundary": self.a_equals_boundary,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DecompositionReport":
        return DecompositionReport(
            q=_json_int(data["q"], "q"),
            ell=_json_int(data["ell"], "ell"),
            lhs=GradedPolynomial.from_json_dict(data["lhs"]),
            a=GradedPolynomial.from_json_dict(data["a"]),
            b=GradedPolynomial.from_json_dict(data["b"]),
            a_equals_boundary=_json_flag(data["a_equals_boundary"], "a_equals_boundary"),
            s_degree=_json_int(data["s_degree"], "s_degree"),
        )


def _b_polynomial(cone: ConeTriangulation, ell: int) -> GradedPolynomial:
    """b(z) from the cone cells at heights (q, ..., q, ell): the residues with
    a positive apex coefficient, each at its height minus ell."""
    counts = _height_counts(cone.cells, cone.parent.denominator_q, ell, open_top=True)
    if min(counts, default=ell) < ell:
        raise IdentityViolated("apex point below ell contradicts minimality")
    return GradedPolynomial.from_dict({h - ell: c for h, c in counts.items()})


def stapledon_report(P: Polytope) -> DecompositionReport:
    """Full symmetric-decomposition bundle with both b-routes cross-checked."""
    return EhrhartReport(P).decomposition


def pyramid_hstar_compare(P: Polytope, x):
    """Compare h* of a base polytope with that of its pyramid over x.

    P must be full-dimensional at height zero inside R^d (its ambient space);
    x needs a nonzero last coordinate.  Both numerators use denominator
    (1 - z^q)^d, the pyramid with an extra (1 - z^r) factor, r the denominator
    of x.  Returns (h_base, h_pyramid, h_base <= h_pyramid); equality is
    checked when x is the unit apex e_d.
    """
    x = as_point(x)
    d = P.ambient_dim
    if P.dim != d - 1 or any(v[-1] != 0 for v in P.vertices):
        raise NotFullDimensional("base must be full-dimensional at height zero")
    if x[-1] == 0:
        raise ApexInSpan("apex must leave the base hyperplane")
    q = P.denominator_q
    r = point_denominator(x)

    base_proj = build_polytope([v[:-1] for v in P.vertices])
    cells = half_open_cone(base_proj, base_proj.vertices[0]).cells
    h_base = hstar_cells(cells, q)
    cones = [HalfOpenSimplex(tuple(v + (Fraction(0),) for v in cell.vertices) + (x,),
                             cell.missing + (False,)) for cell in cells]
    h_pyr = GradedPolynomial.from_dict(_height_counts(cones, q, r))
    leq = h_pyr.dominates(h_base)
    if x == tuple([Fraction(0)] * (d - 1) + [Fraction(1)]) and h_base != h_pyr:
        raise IdentityViolated("unit-apex pyramid must preserve h*")
    return h_base, h_pyr, leq


# -- inequality audit ----------------------------------------------------------

@dataclass(frozen=True)
class AuditItem:
    name: str
    applicable: bool
    passed: bool
    witness: str
    level: str = "requirement"  # or "warning"


def _chain(name: str, larger, smaller) -> AuditItem:
    """The item for larger[j] >= smaller[j], witnessed by the first j that fails."""
    for j, (big, small) in enumerate(zip(larger, smaller)):
        if big < small:
            return AuditItem(name, True, False, "j=%d: %d < %d" % (j, big, small))
    return AuditItem(name, True, True, "all indices")


@dataclass(frozen=True)
class InequalityAudit:
    items: tuple[AuditItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items
                   if item.applicable and item.level == "requirement")

    @property
    def warnings(self) -> tuple[AuditItem, ...]:
        return tuple(i for i in self.items if i.level == "warning" and i.applicable)


@dataclass(frozen=True)
class EhrhartReport:
    """h* data, decomposition and audit of one full-dimensional polytope.

    Each field is computed on first read and at most once.  The fields share
    h*, the interior point (ell, x), and the half-open cone over x, which
    feeds the boundary h* and the b-route; the audit's unimodularity test
    compares boundary h*(1), the residue count, with the cell count.  Each
    cone pulls its own facets: h* those that miss its vertex, the cone over
    x every facet.  No field tests a size: each enumeration it runs refuses
    its own oversized work, once.
    """

    polytope: Polytope

    @property
    def q(self) -> int:
        return self.polytope.denominator_q

    @property
    def d(self) -> int:
        return self.polytope.dim

    @property
    def ell(self) -> int:
        return self._interior_point[0]

    @cached_property
    def _interior_point(self):
        return find_interior_point(self.polytope)

    @cached_property
    def cone(self):
        """(BoundaryTriangulation, ConeTriangulation) over the interior point x."""
        return _decompose(self.polytope, _pull_facets(self.polytope), self._interior_point[1])

    @cached_property
    def hstar(self) -> GradedPolynomial:
        """h* from the half-open cone over the lexicographically smallest vertex.

        Each cell's columns (q v, q) end in a row of q's, so the cell holds at
        least q residues, and the walk refuses their total past
        ENUMERATION_LIMIT before it walks any cell.
        """
        return _hstar(half_open_cone(self.polytope, self.polytope.vertices[0]))

    @cached_property
    def hstar_boundary(self) -> GradedPolynomial:
        return hstar_cells(self.cone[0].simplices, self.q)

    @cached_property
    def hstar_interior(self) -> GradedPolynomial:
        return self.hstar.reverse(self.q * (self.d + 1))

    @cached_property
    def decomposition(self) -> DecompositionReport:
        q, d, h, ell = self.q, self.d, self.hstar, self.ell
        s = h.degree_key
        if ell != q * (d + 1) - s:
            raise IdentityViolated("interior-dilate search disagrees with reciprocity")
        a, b = symmetric_decompose(h, q, ell, d)
        if a != self.hstar_boundary:
            raise IdentityViolated("a(z) must equal the boundary h*-polynomial")
        if _b_polynomial(self.cone[1], ell) != b:
            raise IdentityViolated("parallelepiped route disagrees with the algebraic b(z)")
        return DecompositionReport(q=q, ell=ell, lhs=a + b.shift(ell), a=a, b=b,
                                   a_equals_boundary=True, s_degree=s)

    @cached_property
    def audit(self) -> InequalityAudit:
        P, q, d = self.polytope, self.q, self.d
        h, hb, ell = self.hstar, self.hstar_boundary, self.ell
        s = h.degree_key
        hd = h.as_dict()
        dense = [hd.get(i, 0) for i in range(q * (d + 1))]
        prefix = list(accumulate(dense))
        items = [_chain("cumulative_lower", prefix[1:len(dense) // 2 + 1],
                        accumulate(reversed(dense))),
                 _chain("cumulative_upper", accumulate(reversed(dense[:s + 1])), prefix)]

        if P.is_lattice:
            quasi = QuasiCoefficients.from_hstar(h, q, d)
            k_d = quasi.value(d, 0)
            k_d1 = quasi.value(d - 1, 0)
            bound = Fraction(ell * d, 2) * k_d
            items.append(AuditItem(
                "leading_coefficient_bound", True, bound >= k_d1,
                "(ell*d/2)*k_d = %s vs k_{d-1} = %s" % (bound, k_d1)))
        else:
            items.append(AuditItem("leading_coefficient_bound", False, True,
                                   "lattice polytopes only"))

        # geom(ell) h* = geom(q) (hb + z^ell b) gives h* >= hb only when ell | q
        if q % ell == 0:
            items.append(AuditItem("boundary_dominated", True, h.dominates(hb),
                                   "ell=%d <= q=%d" % (ell, q)))
        else:
            reason = "ell=%d > q=%d" if ell > q else "ell=%d does not divide q=%d"
            items.append(AuditItem("boundary_dominated", False, True, reason % (ell, q)))

        # each boundary cell holds |det| >= 1 residues and hb(1) is their sum
        unimodular = P.is_lattice and hb.evaluate_at_one() == len(self.cone[0].simplices)
        if unimodular:
            hbd = hb.as_dict()
            chain_ok = all(hbd.get(j, 0) <= hbd.get(j + 1, 0) for j in range(d // 2))
            chain_ok = chain_ok and hbd.get(0, 0) == 1
            binom_ok = all(hbd.get(j, 0) <= comb(hbd.get(1, 0) + j - 1, j)
                           for j in range(d + 1))
            items.append(AuditItem("unimodular_chain", True, chain_ok,
                                   "monotone start of boundary h*", level="warning"))
            items.append(AuditItem("unimodular_binomial_bound", True, binom_ok,
                                   "h*_j <= C(h*_1 + j - 1, j)", level="warning"))
        else:
            items.append(AuditItem("unimodular_chain", False, True,
                                   "no unimodular boundary triangulation", level="warning"))
            items.append(AuditItem("unimodular_binomial_bound", False, True,
                                   "no unimodular boundary triangulation", level="warning"))

        return InequalityAudit(tuple(items))


def inequality_audit(P: Polytope) -> InequalityAudit:
    """Evaluate the coefficient inequalities implied by the decomposition.

    Cumulative lower/upper chains on h*_P, read off prefix sums of its
    coefficients, the bound between the two leading quasipolynomial
    coefficients (lattice polytopes), and boundary domination
    h*_boundary <= h*_P when ell divides q.  Chains that are only known under
    a unimodular boundary triangulation are reported as warnings.
    """
    return EhrhartReport(P).audit


def ehrhart_report(P: Polytope) -> EhrhartReport:
    """The analysis of P with every field computed, so reading one does no work."""
    report = EhrhartReport(P)
    for name in ("hstar_interior", "decomposition", "audit"):
        getattr(report, name)
    return report


def hstar_polytope(P: Polytope) -> GradedPolynomial:
    """h*-polynomial: numerator of the Ehrhart series over (1 - z^q)^(d+1)."""
    return EhrhartReport(P).hstar


def hstar_boundary(P: Polytope) -> GradedPolynomial:
    """Boundary h*-polynomial over (1 - z^q)^d: degree qd, palindromic."""
    return EhrhartReport(P).hstar_boundary


def hstar_interior(P: Polytope) -> GradedPolynomial:
    """h* of the open polytope: the reversal of h*_P in degree q(d+1)."""
    return EhrhartReport(P).hstar_interior


def ehrhart_series(P: Polytope) -> SeriesForm:
    return SeriesForm(hstar_polytope(P), Fraction(P.denominator_q), P.dim + 1)


def boundary_series(P: Polytope) -> SeriesForm:
    return SeriesForm(hstar_boundary(P), Fraction(P.denominator_q), P.dim)


def quasi_coefficients(P: Polytope) -> QuasiCoefficients:
    """Interpolate the counting quasipolynomial per residue class mod q."""
    return QuasiCoefficients.from_hstar(hstar_polytope(P), P.denominator_q, P.dim)


def volume(P: Polytope) -> Fraction:
    """Euclidean volume of a full-dimensional polytope, via h*(1)."""
    q, d = P.denominator_q, P.dim
    return Fraction(hstar_polytope(P).evaluate_at_one(), factorial(d) * q ** (d + 1))
