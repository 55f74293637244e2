"""Core engine: fundamental-parallelepiped enumeration and h*-polynomials of cells.

A half-open simplex with vertices v_j and heights h_j homogenizes to the cone
generated by (h_j v_j, h_j); its fundamental parallelepiped uses coefficient
interval (0,1] on generators opposite missing facets and [0,1) elsewhere.
The multiset of last coordinates of its lattice points is exactly the h*
coefficient data.  Their number, det, is the residue count that each cell's
independence check computes, and it is read first: a walk of more than
ENUMERATION_LIMIT residues raises WalkTooLarge before it starts, and a walk
of one residue yields its point directly.  Other walks run through a
unimodular diagonalization of the generator matrix, whose invariants must
multiply to det, and stream the residues as an odometer over the diagonal:
each step adds one precomputed carry column to the coefficients and its point
to the running point, so a step costs O(n + d) and memory does not grow.

One reader, _height_counts, walks cells and counts their residues by height:
h*, the boundary h*, the b-route and the pyramid comparison all read it, and
only fpp_points walks a cell at other heights.  The module also keeps the
series and quasipolynomial forms; it knows nothing of how a polytope is cut
into cells, and the per-polytope entry points (hstar_polytope, ...) are views
of one EhrhartReport in the decomposition module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm, prod
from operator import add, ge, sub

from .errors import ENUMERATION_LIMIT, IdentityViolated, NonIntegralGenerator, WalkTooLarge
from .gradedpoly import GradedPolynomial
from .linalg import diagonalize, interpolate_polynomial
from .triangulation import HalfOpenSimplex


def _generator_matrix(S: HalfOpenSimplex, heights):
    """The columns h_j (v_j, 1), read off the cell's homogenized integer
    columns (L_j v_j, L_j), and their residue count, the cell's count times
    prod h_j / L_j: h_j must be an int and a positive multiple of L_j."""
    if len(heights) != len(S.vertices):
        raise ValueError("need one height per vertex")
    cols, count = [], S._count
    for h, v, col in zip(heights, S.vertices, S._columns):
        if not isinstance(h, int) or isinstance(h, bool) or h < 1:
            raise ValueError("heights must be positive integers, got %r" % (h,))
        if h % col[-1]:
            raise NonIntegralGenerator(
                "height %d does not clear the denominators of vertex %s" % (h, (v,)))
        cols.append([h // col[-1] * a for a in col])
        count *= h // col[-1]
    return cols, count


def _lattice_point(rows, nums, big):
    """The point sum_j col_j * nums[j] / big, which must be integral."""
    point = []
    for row in rows:
        total = sum(a * x for a, x in zip(row, nums))
        if total % big:
            raise IdentityViolated("residue enumeration produced a non-lattice point")
        point.append(total // big)
    return tuple(point)


def fpp_lattice_points(S: HalfOpenSimplex, heights):
    """Lattice points of the fundamental parallelepiped with their coefficients.

    Returns an iterator of (point, alpha_numerators, alpha_denominator);
    alpha_j = numerators[j] / denominator is the coefficient of generator j,
    already shifted into (0,1] or [0,1) according to the mask.  When it is
    called, the size limit runs on the cell's residue count; a walk of one
    residue yields the generators opposite missing facets, over 1, with no
    Smith form, and others check their carry points and the count.
    """
    cols, count = _generator_matrix(S, heights)
    if count > ENUMERATION_LIMIT:
        raise WalkTooLarge("parallelepiped has %d residues, more than the limit %d"
                           % (count, ENUMERATION_LIMIT))
    if count == 1:
        return _odometer((), (), (), cols, S.missing, 1)
    rows = list(zip(*cols))  # (ambient+1) x n
    diag, vmat = diagonalize(rows)
    big = lcm(*diag)
    # Residue t (digit i runs over range(diag[i]), the last digit fastest) has
    # numerators sum_i V[:, i] * t_i * big / diag[i] mod big.  When digit i
    # advances and every later digit rolls back to zero, they change by the
    # carry column sum_{k >= i} V[:, k] * big / diag[k] mod big; a digit of
    # size 1 never advances and adds nothing to a carry, so it gets none.
    carries = [()] * len(cols)
    carry = [0] * len(cols)
    for i in reversed(range(len(cols))):
        if diag[i] > 1:
            step = big // diag[i]
            carry = [(c + vmat[j][i] * step) % big for j, c in enumerate(carry)]
            carries[i] = tuple(carry)
    # Every residue is an integer combination of the carry columns, and every
    # point one of their points and the generators: checking the carries
    # checks every point of the walk.
    carry_points = [c and _lattice_point(rows, c, big) for c in carries]
    if prod(diag) != count:
        raise IdentityViolated("Smith form gives %d residues, not %d" % (prod(diag), count))
    return _odometer(diag, carries, carry_points, cols, S.missing, big)


def _odometer(diag, carries, carry_points, cols, missing, big):
    """Walk the residues as an odometer over diag.

    A step adds one carry column to the numerators and its point to the
    running point; each numerator that passes its range wraps back by big,
    which takes its generator off the point.  Numerators opposite a missing
    facet live in (0, big], the others in [0, big).  A step costs O(n + d)
    and the walk holds O(n) numbers plus, per digit, one point shift for each
    wrap pattern met, so its memory does not grow with the residue count.
    """
    nums = tuple(big if m else 0 for m in missing)
    point = _lattice_point(list(zip(*cols)), nums, big)
    yield point, nums, big

    # numerator j wraps on a carry-i step when it is at least thresholds[i][j]
    thresholds = [tuple(big + m - c for m, c in zip(missing, carry)) for carry in carries]
    moves = [{} for _ in diag]  # per digit: wrap pattern -> (point shift, numerator shift)

    def move(i, wrapped):
        """(point shift, numerator shift) of a carry-i step with these wraps."""
        shift = carry_points[i]
        for col, w in zip(cols, wrapped):
            if w:
                shift = tuple(map(sub, shift, col))
        moves[i][wrapped] = step = shift, tuple(
            c - big if w else c for c, w in zip(carries[i], wrapped))
        return step

    for i in _advancing_digits(diag):
        wrapped = tuple(map(ge, nums, thresholds[i]))
        step = moves[i].get(wrapped) or move(i, wrapped)
        point = tuple(map(add, point, step[0]))
        nums = tuple(map(add, nums, step[1]))
        yield point, nums, big


def _advancing_digits(diag):
    """The digit that advances at each step of an odometer over diag, last digit fastest."""
    digits = [i for i, s in enumerate(diag) if s > 1]
    if not digits:
        return
    inner, outer = digits[-1], digits[:-1]
    count = [0] * len(diag)
    while True:
        yield from repeat(inner, diag[inner] - 1)
        for i in reversed(outer):
            if count[i] < diag[i] - 1:
                count[i] += 1
                break
            count[i] = 0
        else:
            return
        yield i


def fpp_points(S: HalfOpenSimplex, heights) -> tuple[int, ...]:
    """Sorted multiset of last coordinates of the parallelepiped lattice points.

    The multiset has exactly |det| elements, det taken over the lattice
    spanned inside the generators' rational span.
    """
    pts = fpp_lattice_points(S, heights)
    return tuple(sorted(p[-1] for p, _, _ in pts))


def _height_counts(cells, q: int, top=None, open_top=False) -> Counter:
    """Residues of the cells' parallelepipeds by height, each cell walked at q
    on every vertex but the last and at top (default q) on the last; with
    open_top, only the residues whose last coefficient is positive."""
    counts = Counter()
    for cell in cells:
        heights = [q] * (len(cell.vertices) - 1) + [q if top is None else top]
        walk = fpp_lattice_points(cell, heights)
        if open_top:
            walk = (residue for residue in walk if residue[1][-1] > 0)
        counts.update(point[-1] for point, _, _ in walk)
    return counts


def hstar_simplex(S: HalfOpenSimplex, q: int) -> GradedPolynomial:
    """Numerator of the simplex Ehrhart series over (1 - z^q)^(#vertices)."""
    return GradedPolynomial.from_dict(_height_counts([S], q))


def hstar_cells(cells, q: int) -> GradedPolynomial:
    """Sum of the simplex h*-polynomials of disjoint half-open cells.

    Only a closed cell has the origin in its parallelepiped, and a visibility
    partition has exactly one, so the constant term must be one.
    """
    total = GradedPolynomial.from_dict(_height_counts(cells, q))
    if total.coeff(0) != 1:
        raise IdentityViolated("constant term %d, expected 1" % total.coeff(0))
    return total


def _hstar(cone) -> GradedPolynomial:
    """h* from the half-open cone of P over one of its vertices."""
    P = cone.parent
    q = P.denominator_q
    total = hstar_cells(cone.cells, q)
    if total.degree_key >= q * (P.dim + 1):
        raise IdentityViolated("deg h* = %d is not below q(d+1)" % total.degree_key)
    return total


@dataclass(frozen=True)
class SeriesForm:
    """Exact rational form numerator / (1 - z^e)^k of a formal power series."""

    numerator: GradedPolynomial
    denom_exponent: Fraction
    denom_power: int

    def coefficients(self, count: int) -> list[int]:
        """First `count` series coefficients, indexed by key on the numerator grid."""
        e_key = self.denom_exponent * self.numerator.grid
        if e_key.denominator != 1 or e_key <= 0:
            raise ValueError("denominator exponent must be positive, on the numerator grid")
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
