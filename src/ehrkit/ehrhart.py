"""Core engine: fundamental-parallelepiped enumeration and h*-polynomials of cells.

A half-open simplex with vertices v_j and heights h_j homogenizes to the cone
generated by (h_j v_j, h_j); its fundamental parallelepiped uses coefficient
interval (0,1] on generators opposite missing facets and [0,1) elsewhere.
The multiset of last coordinates of its lattice points is exactly the h*
coefficient data.  Their number, det, is the residue count each cell
carries (see the triangulation module), and it is read first: a walk of
more than ENUMERATION_LIMIT residues raises WalkTooLarge before it starts,
and a walk of one residue returns its point directly.  Other walks run via a
unimodular diagonalization of the generator matrix, whose invariants must
multiply to det.  A residue is one multiple of each invariant's digit column
(mod the lcm of the invariants): the walk enumerates the residues of the
invariants below _BLOCK_DIGIT directly, from precomputed multiples, and
extends each by one pass of column blocks per larger invariant, the largest
running fastest.  A block walks its residues in chunks of at most
_BLOCK_CHUNK as C-level list steps, with no Python frame per residue, and
holds one chunk at a time, so the walk's memory does not grow with det.

One reader, _height_counts, walks cells and counts their residues by height:
h*, the boundary h*, the b-route and the pyramid comparison all read it, and
only fpp_points walks a cell at other heights.  It sums its cells' residue
counts before it walks any, so the size limit also bounds the whole walk.
The module also keeps the series and quasipolynomial forms; it knows nothing
of how a polytope is cut into cells, and the per-polytope entry points
(hstar_polytope, ...) are views of one EhrhartReport in the decomposition
module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, product, repeat, tee
from math import factorial, lcm, prod
from operator import ge, itemgetter, mul, sub

from .errors import ENUMERATION_LIMIT, IdentityViolated, NonIntegralGenerator, WalkTooLarge
from .gradedpoly import GradedPolynomial
from .linalg import diagonalize, interpolate_polynomial
from .triangulation import HalfOpenSimplex

_POINT, _NUMS, _LAST = itemgetter(0), itemgetter(1), itemgetter(-1)  # fields of a residue


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
        total = sum(map(mul, row, nums))
        if total % big:
            raise IdentityViolated("residue enumeration produced a non-lattice point")
        point.append(total // big)
    return tuple(point)


# A Smith digit this large is walked in column blocks, one pass per digit; a
# smaller one is enumerated directly from its precomputed multiples, as a
# block of a few residues costs more than it saves (see _blocks), while a
# large digit's multiples would make the walk's memory grow with it.
_BLOCK_DIGIT = 16
# Residues per block chunk: the lists a chunk holds bound the walk's memory.
_BLOCK_CHUNK = 512


def fpp_lattice_points(S: HalfOpenSimplex, heights):
    """Lattice points of the fundamental parallelepiped with their coefficients.

    Returns an iterable of (point, alpha_numerators, alpha_denominator);
    alpha_j = numerators[j] / denominator is the coefficient of generator j,
    already shifted into (0,1] or [0,1) according to the mask.  When it is
    called, the size limit runs on the cell's residue count; a walk of one
    residue is a list of the generators opposite missing facets, over 1, with
    no Smith form, and others check their digit columns' points and the
    count, then run _direct over the Smith digits below _BLOCK_DIGIT and one
    _blocks pass from its residues per larger digit, the largest fastest.
    """
    cols, count = _generator_matrix(S, heights)
    if count > ENUMERATION_LIMIT:
        raise WalkTooLarge("parallelepiped has %d residues, more than the limit %d"
                           % (count, ENUMERATION_LIMIT))
    if count == 1:
        return [(tuple(sum(compress(row, S.missing)) for row in zip(*cols)),
                 tuple(map(int, S.missing)), 1)]
    rows = list(zip(*cols))  # (ambient+1) x n
    diag, vmat = diagonalize(rows)
    big = lcm(*diag)
    # Residue t (digit i runs over range(diag[i])) has numerators
    # sum_i t_i * c_i mod big, where digit i's column c_i is V[:, i] * big /
    # diag[i] mod big; a digit of size 1 adds nothing and gets no column.
    # Every residue is an integer combination of the columns, and every point
    # one of their points and the generators: checking the columns' points
    # checks every point of the walk.
    digits = sorted((s, [a * (big // s) % big for a in v])
                    for s, v in zip(diag, zip(*vmat)) if s > 1)
    points = [_lattice_point(rows, column, big) for _, column in digits]
    if prod(diag) != count:
        raise IdentityViolated("Smith form gives %d residues, not %d" % (prod(diag), count))
    walk = _direct([[[t * a % big for a in column] for t in range(s)]
                    for s, column in digits if s < _BLOCK_DIGIT], rows, S.missing, big)
    for (s, column), point in zip(digits, points):
        if s >= _BLOCK_DIGIT:
            walk = _blocks(walk, s, column, point, cols, S.missing, big)
    return walk


def _direct(multiples, rows, missing, big):
    """One residue per choice of a multiple of each digit column: numerators
    are the sums mod big, in (0, big] opposite a missing facet and [0, big)
    elsewhere, and _lattice_point builds and checks the point."""
    offsets = [-s for s in missing]
    for terms in product(*multiples):
        nums = tuple([x % big + s for x, s in zip(map(sum, zip(offsets, *terms)), missing)])
        yield _lattice_point(rows, nums, big), nums, big


class _PointShifts(dict):
    """Point shift of one block step per wrap pattern, made when first met:
    the digit column's point less each wrapped generator."""

    def __init__(self, column_point, cols):
        super().__init__()
        self.column_point, self.cols = column_point, cols

    def __missing__(self, wrapped):
        shift = self.column_point
        for col, w in zip(self.cols, wrapped):
            if w:
                shift = tuple(map(sub, shift, col))
        self[wrapped] = shift
        return shift


def _blocks(starts, m, column, column_point, cols, missing, big):
    """Walk m residues from each start along one digit column, in chunks.

    Block residue k has numerators (a + k*c) % big, or (a + k*c - 1) % big + 1
    opposite a missing facet, for start numerators a and the column c; a
    chunk holds each numerator's values as one list.  A step wraps numerator
    j when its previous value is at least big + missing_j - c_j, and each
    point row is one accumulate of the cached shifts from the chunk's first
    point (a later chunk's is checked like the digit columns).  Only the zip
    of a chunk's at most _BLOCK_CHUNK triples holds its lists, so stacked
    block passes hold one chunk each.
    """
    thresholds = [big + s - c for s, c in zip(missing, column)]
    shifts = _PointShifts(column_point, cols)
    generators = list(zip(*cols))

    def chunk(point, nums, k):
        size = min(_BLOCK_CHUNK, m - k)
        lists = []
        for a, c, s in zip(nums, column, missing):
            start = a - s + k * c
            if not c:
                lists.append([a] * size)
            elif s:
                lists.append([x % big + 1 for x in range(start, start + size * c, c)])
            else:
                lists.append([x % big for x in range(start, start + size * c, c)])
        if k:
            point = _lattice_point(generators, [values[0] for values in lists], big)
        moves = list(map(shifts.__getitem__, zip(*[
            map(ge, values, repeat(t)) for values, t in zip(lists, thresholds)])))
        rows = [accumulate(map(itemgetter(r), moves), initial=x) for r, x in enumerate(point)]
        return zip(zip(*rows), zip(*lists), repeat(big))

    return chain.from_iterable(chunk(point, nums, k) for point, nums, _ in starts
                               for k in range(0, m, _BLOCK_CHUNK))


def fpp_points(S: HalfOpenSimplex, heights) -> tuple[int, ...]:
    """Sorted multiset of last coordinates of the parallelepiped lattice points.

    The multiset has exactly |det| elements, det taken over the lattice
    spanned inside the generators' rational span.
    """
    return tuple(sorted(map(_LAST, map(_POINT, fpp_lattice_points(S, heights)))))


def _height_counts(cells, q: int, top=None, open_top=False) -> Counter:
    """Residues of the cells' parallelepipeds by height, each cell walked at q
    on every vertex but the last and at top (default q) on the last; with
    open_top, only the residues whose last coefficient is positive.  The
    cells' residue counts are summed first: more than ENUMERATION_LIMIT in
    all raises WalkTooLarge before any cell is walked."""
    walks = [(cell, [q] * (len(cell.vertices) - 1) + [q if top is None else top])
             for cell in cells]
    total = sum(cell._count * prod(h // col[-1] for h, col in zip(heights, cell._columns))
                for cell, heights in walks)
    if total > ENUMERATION_LIMIT:
        raise WalkTooLarge("the cells' parallelepipeds have %d residues in all, more than "
                           "the limit %d" % (total, ENUMERATION_LIMIT))
    counts = Counter()
    for cell, heights in walks:
        walk = fpp_lattice_points(cell, heights)
        if open_top:
            walk, tops = tee(walk)
            walk = compress(walk, map(_LAST, map(_NUMS, tops)))
        counts.update(map(_LAST, map(_POINT, walk)))
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
        step = self.numerator.key_of(self.denom_exponent)
        if self.denom_power < 0:
            raise ValueError("denominator power must be nonnegative")
        num = self.numerator.as_dict()
        out = [num.get(n, 0) for n in range(count)]
        for _ in range(self.denom_power):  # each 1 / (1 - z^e) is one running sum at stride e
            for n in range(step, count):
                out[n] += out[n - step]
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
