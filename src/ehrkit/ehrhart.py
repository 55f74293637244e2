"""Core engine: fundamental-parallelepiped enumeration and h*-polynomials.

A half-open simplex with vertices v_j and heights h_j homogenizes to the cone
generated by (h_j v_j, h_j); its fundamental parallelepiped uses coefficient
interval (0,1] on generators opposite missing facets and [0,1) elsewhere.
The multiset of last coordinates of its lattice points is exactly the h*
coefficient data.  Lattice points are enumerated through a unimodular
diagonalization of the generator matrix, which walks exactly det-many
residues instead of scanning a bounding box.  The cells come from the one
half-open path of the triangulation module: h* cones over the lexicographically
smallest vertex of P, boundary h* over the interior point x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm

from .errors import DimensionZero, IdentityViolated, NonIntegralGenerator, NotFullDimensional
from .gradedpoly import GradedPolynomial
from .geometry import Polytope
from .linalg import diagonalize, interpolate_polynomial
from .triangulation import HalfOpenSimplex, half_open_cone, half_open_decompose, triangulate_boundary


def _generator_matrix(S: HalfOpenSimplex, heights):
    if len(heights) != len(S.vertices):
        raise ValueError("need one height per vertex")
    cols = []
    for h, v in zip(heights, S.vertices):
        if h < 1:
            raise ValueError("heights must be positive integers")
        col = [h * c for c in v] + [Fraction(h)]
        if any(Fraction(c).denominator != 1 for c in col):
            raise NonIntegralGenerator(
                "height %d does not clear the denominators of vertex %s" % (h, (v,)))
        cols.append([int(c) for c in col])
    return cols


def fpp_lattice_points(S: HalfOpenSimplex, heights):
    """Lattice points of the fundamental parallelepiped with their coefficients.

    Yields (point, alpha_numerators, alpha_denominator); alpha_j =
    numerators[j] / denominator is the coefficient of generator j, already
    shifted into (0,1] or [0,1) according to the mask.
    """
    cols = _generator_matrix(S, heights)
    rows = list(zip(*cols))  # (ambient+1) x n
    diag, vmat = diagonalize(rows)
    n = len(cols)
    big = lcm(*diag)
    steps = [big // s for s in diag]

    out = []
    for ts in product(*(range(s) for s in diag)):
        nums = []
        for j in range(n):
            val = sum(vmat[j][i] * ts[i] * steps[i] for i in range(n)) % big
            if S.missing[j] and val == 0:
                val = big
            nums.append(val)
        point = []
        for row in rows:
            total = sum(row[j] * nums[j] for j in range(n))
            if total % big:
                raise IdentityViolated("residue enumeration produced a non-lattice point")
            point.append(total // big)
        out.append((tuple(point), tuple(nums), big))
    return out


def fpp_points(S: HalfOpenSimplex, heights) -> tuple[int, ...]:
    """Sorted multiset of last coordinates of the parallelepiped lattice points.

    The multiset has exactly |det| elements, det taken over the lattice
    spanned inside the generators' rational span.
    """
    heights = [int(h) for h in heights]
    pts = fpp_lattice_points(S, heights)
    return tuple(sorted(p[-1] for p, _, _ in pts))


def hstar_simplex(S: HalfOpenSimplex, q: int) -> GradedPolynomial:
    """Numerator of the simplex Ehrhart series over (1 - z^q)^(#vertices)."""
    counts: dict[int, int] = {}
    for h in fpp_points(S, [q] * len(S.vertices)):
        counts[h] = counts.get(h, 0) + 1
    return GradedPolynomial.from_dict(counts)


def hstar_cells(cells, q: int) -> GradedPolynomial:
    """Sum of the simplex h*-polynomials of disjoint half-open cells.

    Only a closed cell has the origin in its parallelepiped, and a visibility
    partition has exactly one, so the constant term must be one.
    """
    total = GradedPolynomial.zero()
    for cell in cells:
        total = total + hstar_simplex(cell, q)
    if total.coeff(0) != 1:
        raise IdentityViolated("constant term %d, expected 1" % total.coeff(0))
    return total


def hstar_polytope(P: Polytope, seed: int = 0) -> GradedPolynomial:
    """h*-polynomial: numerator of the Ehrhart series over (1 - z^q)^(d+1)."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("h* needs a full-dimensional polytope")
    q = P.denominator_q
    total = hstar_cells(half_open_cone(P, P.vertices[0], seed=seed).cells, q)
    if total.degree_key >= q * (P.dim + 1):
        raise IdentityViolated("deg h* = %d is not below q(d+1)" % total.degree_key)
    return total


def hstar_boundary(P: Polytope, apex=None, seed: int = 0) -> GradedPolynomial:
    """Boundary h*-polynomial over (1 - z^q)^d: degree qd, palindromic."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("boundary h* needs a full-dimensional polytope")
    if P.dim < 1:
        raise DimensionZero("a point has no boundary series")
    boundary, _ = half_open_decompose(triangulate_boundary(P), P, apex=apex, seed=seed)
    return hstar_cells(boundary.simplices, P.denominator_q)


def hstar_interior(P: Polytope) -> GradedPolynomial:
    """h* of the open polytope: the reversal of h*_P in degree q(d+1)."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("interior h* needs a full-dimensional polytope")
    return hstar_polytope(P).reverse(P.denominator_q * (P.dim + 1))


@dataclass(frozen=True)
class SeriesForm:
    """Exact rational form numerator / (1 - z^e)^k of a formal power series."""

    numerator: GradedPolynomial
    denom_exponent: Fraction
    denom_power: int

    def coefficients(self, count: int) -> list[int]:
        """First `count` series coefficients, indexed by key on the numerator grid."""
        e_key = self.denom_exponent * self.numerator.grid
        if e_key.denominator != 1:
            raise ValueError("denominator exponent must live on the numerator grid")
        e_key = int(e_key)
        num = self.numerator.as_dict()
        out = []
        for n in range(count):
            total = 0
            j = 0
            while n - j * e_key >= 0:
                c = num.get(n - j * e_key, 0)
                if c:
                    total += c * comb(j + self.denom_power - 1, self.denom_power - 1)
                j += 1
            out.append(total)
        return out


def ehrhart_series(P: Polytope) -> SeriesForm:
    return SeriesForm(hstar_polytope(P), Fraction(P.denominator_q), P.dim + 1)


def boundary_series(P: Polytope) -> SeriesForm:
    return SeriesForm(hstar_boundary(P), Fraction(P.denominator_q), P.dim)


@dataclass(frozen=True)
class QuasiCoefficients:
    """Periodic coefficient lists of the counting quasipolynomial.

    coefficients[i][m] is the coefficient of n^i valid for n congruent to m
    modulo the length of that list; the leading list always has length one.
    """

    coefficients: tuple[tuple[Fraction, ...], ...]

    def value(self, i: int, n: int) -> Fraction:
        period = self.coefficients[i]
        return period[n % len(period)]

    def evaluate(self, n: int) -> Fraction:
        return sum(self.value(i, n) * n ** i for i in range(len(self.coefficients)))

    @staticmethod
    def from_hstar(h: GradedPolynomial, q: int, d: int) -> "QuasiCoefficients":
        """Interpolate the quasipolynomial of h* / (1 - z^q)^(d+1) per residue class mod q."""
        counts = SeriesForm(h, Fraction(q), d + 1).coefficients(q * (d + 1) + 1)
        per_residue = []
        for r in range(q):
            ns = [r + q * k for k in range(d + 1)]
            if ns[0] == 0:
                ns = [q * (k + 1) for k in range(d + 1)]
            coeffs = interpolate_polynomial(ns, [counts[n] for n in ns])
            per_residue.append(coeffs)
        lists = []
        for i in range(d + 1):
            values = [per_residue[r][i] for r in range(q)]
            lists.append(_minimal_period(values))
        result = QuasiCoefficients(tuple(lists))
        lead = result.coefficients[d]
        # leading coefficient is the volume: h*(1) = d! q^(d+1) vol(P)
        if not (len(lead) == 1 and lead[0] * factorial(d) * q ** (d + 1) == h.evaluate_at_one()):
            raise IdentityViolated("leading quasi-coefficient disagrees with h*(1)")
        return result


def _minimal_period(values: list[Fraction]) -> tuple[Fraction, ...]:
    q = len(values)
    for p in range(1, q + 1):
        if q % p == 0 and all(values[i] == values[i % p] for i in range(q)):
            return tuple(values[:p])
    return tuple(values)


def quasi_coefficients(P: Polytope) -> QuasiCoefficients:
    """Interpolate the counting quasipolynomial per residue class mod q."""
    return QuasiCoefficients.from_hstar(hstar_polytope(P), P.denominator_q, P.dim)


def volume(P: Polytope) -> Fraction:
    """Euclidean volume of a full-dimensional polytope, via h*(1)."""
    h = hstar_polytope(P)
    q, d = P.denominator_q, P.dim
    return Fraction(h.evaluate_at_one(), factorial(d) * q ** (d + 1))
