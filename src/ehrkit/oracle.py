"""Brute-force verification channel, independent of the triangulation pipeline.

Only geometry types and the GradedPolynomial value type are shared; nothing
here touches the half-open machinery, so an agreement between the two routes
is meaningful evidence.  Counting walks the integer bounding box with one
exact integer scanline per fiber of the last coordinate.
"""

from __future__ import annotations

from itertools import product
from math import ceil, floor

from .errors import ENUMERATION_LIMIT, BoxTooLarge, NotFullDimensional, TailNonzero
from .geometry import Polytope
from .gradedpoly import GradedPolynomial


def _int_facets(P: Polytope):
    return [(hs.normal, hs.offset) for hs in P.facets]


def _bounding_box(P: Polytope, n: int):
    lows, highs = [], []
    for c in range(P.ambient_dim):
        vals = [n * v[c] for v in P.vertices]
        lows.append(ceil(min(vals)))
        highs.append(floor(max(vals)))
    return lows, highs


def count_points(P: Polytope, n: int, mode: str = "closed") -> int:
    """|nP ∩ Z^d| (resp. interior/boundary points) by exact scanline."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("counting is defined for full-dimensional polytopes")
    if n < 1:
        raise ValueError("dilation factor must be a positive integer")
    if mode == "boundary":
        return count_points(P, n, "closed") - count_points(P, n, "interior")
    if mode not in ("closed", "interior"):
        raise ValueError("mode must be closed, interior or boundary")
    strict = mode == "interior"

    lows, highs = _bounding_box(P, n)
    size = 1
    for lo, hi in zip(lows, highs):
        size *= max(0, hi - lo + 1)
    if size > ENUMERATION_LIMIT:
        raise BoxTooLarge("bounding box has %d candidate points" % size)
    if size == 0:
        return 0

    facets = _int_facets(P)
    d = P.ambient_dim
    prefix_ranges = [range(lows[c], highs[c] + 1) for c in range(d - 1)]
    total = 0
    for prefix in product(*prefix_ranges):
        lo, hi = lows[-1], highs[-1]
        feasible = True
        for normal, offset in facets:
            rest = n * offset - sum(a * x for a, x in zip(normal, prefix))
            if strict:
                rest -= 1  # integer data: a.x < R  <=>  a.x <= R - 1
            a_last = normal[-1]
            if a_last == 0:
                if rest < 0:
                    feasible = False
                    break
            elif a_last > 0:
                hi = min(hi, rest // a_last)
            else:
                lo = max(lo, -(rest // (-a_last)))
            if lo > hi:
                feasible = False
                break
        if feasible and lo <= hi:
            total += hi - lo + 1
    return total


def hstar_from_counts(P: Polytope, mode: str = "closed") -> GradedPolynomial:
    """Numerator polynomial recovered by series division against brute counts.

    The truncated series (constant term 1 for closed and boundary, 0 for
    interior) is multiplied by (1 - z^q)^(d+1) (power d for boundary); the
    surplus terms past the degree bound must all vanish, otherwise something
    is inconsistent and TailNonzero is raised.
    """
    if not P.is_full_dimensional:
        raise NotFullDimensional("h* from counts needs a full-dimensional polytope")
    q, d = P.denominator_q, P.dim
    terms = q * (d + 1) + d + 2
    if mode == "closed":
        series = [1] + [count_points(P, n, "closed") for n in range(1, terms)]
        power, bound = d + 1, q * (d + 1) - 1
    elif mode == "boundary":
        series = [1] + [count_points(P, n, "boundary") for n in range(1, terms)]
        power, bound = d, q * d
    elif mode == "interior":
        series = [0] + [count_points(P, n, "interior") for n in range(1, terms)]
        power, bound = d + 1, q * (d + 1)
    else:
        raise ValueError("mode must be closed, boundary or interior")

    # multiply the truncated series by (1 - z^q)^power
    coeffs = series[:]
    for _ in range(power):
        coeffs = [coeffs[i] - (coeffs[i - q] if i >= q else 0) for i in range(terms)]
    if any(coeffs[i] for i in range(bound + 1, terms)):
        raise TailNonzero("series division leaves a nonzero tail for mode %r" % mode)
    return GradedPolynomial.from_dict({i: c for i, c in enumerate(coeffs[:bound + 1])})
