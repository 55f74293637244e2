"""Brute-force verification channel, independent of the triangulation pipeline.

Only geometry types and the GradedPolynomial value type are shared; nothing
here touches the half-open machinery, so an agreement between the two routes
is meaningful evidence.  One sweep per dilate walks the integer bounding box
with one exact integer scanline per fiber of the last coordinate, and reads
both the closed and the interior count off each fiber; the boundary count
is their difference.
"""

from __future__ import annotations

from itertools import product
from math import ceil, floor, prod
from operator import mul

from .errors import ENUMERATION_LIMIT, BoxTooLarge, NotFullDimensional, TailNonzero
from .geometry import Polytope
from .gradedpoly import GradedPolynomial


def _bounding_box(P: Polytope, n: int):
    lows, highs = [], []
    for c in range(P.ambient_dim):
        vals = [n * v[c] for v in P.vertices]
        lows.append(ceil(min(vals)))
        highs.append(floor(max(vals)))
    return lows, highs


def _counts(P: Polytope, n: int) -> tuple[int, int]:
    """(closed, interior) lattice-point counts of nP in one scanline sweep.

    On each fiber every facet a.x <= n*offset bounds the last coordinate
    twice: by its slack R for the closed count, and by R - 1 for the interior
    one, since with integer data a.x < R <=> a.x <= R - 1.
    """
    lows, highs = _bounding_box(P, n)
    size = prod(max(0, hi - lo + 1) for lo, hi in zip(lows, highs))
    if size > ENUMERATION_LIMIT:
        raise BoxTooLarge("bounding box has %d candidate points" % size)
    if size == 0:
        return 0, 0
    facets = [(hs.normal[:-1], hs.normal[-1], n * hs.offset) for hs in P.facets]
    closed = interior = 0
    for prefix in product(*(range(lo, hi + 1) for lo, hi in zip(lows[:-1], highs[:-1]))):
        lo = open_lo = lows[-1]
        hi = open_hi = highs[-1]
        for head, a, offset in facets:
            rest = offset - sum(map(mul, head, prefix))
            if a > 0:
                hi = min(hi, rest // a)
                open_hi = min(open_hi, (rest - 1) // a)
            elif a < 0:  # a lower bound: the ceiling of rest / a
                lo = max(lo, -(rest // -a))
                open_lo = max(open_lo, -((rest - 1) // -a))
            elif rest < 0:
                break
            elif rest == 0:  # the fiber lies on this facet
                open_hi = open_lo - 1
            if lo > hi:  # the open interval lies inside the closed one
                break
        else:
            closed += hi - lo + 1
            interior += max(0, open_hi - open_lo + 1)
    return closed, interior


# mode -> (q, d) -> (constant term of the count series, power of (1 - z^q)
# that clears its denominator, degree bound of the numerator)
_SERIES = {"closed": lambda q, d: (1, d + 1, q * (d + 1) - 1),
           "interior": lambda q, d: (0, d + 1, q * (d + 1)),
           "boundary": lambda q, d: (1, d, q * d)}


def count_points(P: Polytope, n: int, mode: str = "closed") -> int:
    """|nP ∩ Z^d| (resp. interior/boundary points) from one sweep of nP."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("counting is defined for full-dimensional polytopes")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("dilation factor must be a positive integer, got %r" % (n,))
    if mode not in _SERIES:
        raise ValueError("mode must be closed, interior or boundary")
    closed, interior = _counts(P, n)
    return {"closed": closed, "interior": interior, "boundary": closed - interior}[mode]


def hstar_from_counts(P: Polytope, mode: str = "closed") -> GradedPolynomial:
    """Numerator polynomial recovered by series division against brute counts.

    The truncated count series, with the mode's constant term, is multiplied
    by the mode's power of (1 - z^q); the surplus terms past the degree bound
    must all vanish, otherwise something is inconsistent and TailNonzero is
    raised.
    """
    if not P.is_full_dimensional:
        raise NotFullDimensional("h* from counts needs a full-dimensional polytope")
    if mode not in _SERIES:
        raise ValueError("mode must be closed, boundary or interior")
    q, d = P.denominator_q, P.dim
    constant, power, bound = _SERIES[mode](q, d)
    terms = q * (d + 1) + d + 2
    coeffs = [constant] + [count_points(P, n, mode) for n in range(1, terms)]
    for _ in range(power):
        coeffs = [coeffs[i] - (coeffs[i - q] if i >= q else 0) for i in range(terms)]
    if any(coeffs[i] for i in range(bound + 1, terms)):
        raise TailNonzero("series division leaves a nonzero tail for mode %r" % mode)
    return GradedPolynomial.from_dict({i: c for i, c in enumerate(coeffs[:bound + 1])})
