"""Brute-force verification channel, independent of the triangulation pipeline.

Only geometry types and the GradedPolynomial value type are shared; nothing
here touches the half-open machinery, so an agreement between the two routes
is meaningful evidence.  One sweep per dilate walks the integer bounding box
a row at a time: every facet bounds the last coordinate on all fibers of the
row at once, as a range or a map over one, so no Python loop body runs per
fiber.  Each mode sweeps only the slack it reads: the facets' own for the
closed count, one less for the interior count, and both for the boundary
count, which is their difference.
"""

from __future__ import annotations

from itertools import product, repeat
from math import ceil, floor, prod
from operator import add, floordiv, mul

from .errors import ENUMERATION_LIMIT, BoxTooLarge, NotFullDimensional, TailNonzero
from .geometry import Polytope
from .gradedpoly import GradedPolynomial


def _bounding_box(P: Polytope, n: int):
    """(lows, highs): ceil and floor of n times each coordinate's least and
    greatest vertex value, for a positive n.  Reads only P.vertices and
    P.ambient_dim."""
    lows, highs = [], []
    for c in range(P.ambient_dim):
        column = [v[c] for v in P.vertices]
        lows.append(ceil(n * min(column)))
        highs.append(floor(n * max(column)))
    return lows, highs


def _bounds(rest, step, width, k):
    """floor(r / k) over the residuals r = rest, rest + step, ... of the width
    fibers of one row, lazily: a range itself when k = 1."""
    line = range(rest, rest + step * width, step) if step else repeat(rest, width)
    return line if k == 1 else map(floordiv, line, repeat(k))


def _tightest(bounds):
    """The least of the bounds fiber by fiber."""
    return map(min, *bounds) if len(bounds) > 1 else bounds[0]


def _counts(P: Polytope, n: int, shifts) -> list[int]:
    """One count per slack shift s: the integer points x of nP's box with
    normal.x <= n*offset - s on every facet.  s = 0 counts nP and s = 1 its
    interior, since with integer data a.x < R <=> a.x <= R - 1.

    The sweep runs over the rows of the box: its last two axes, at each point
    of the others.  On the fibers of a row a facet's residual slack r steps
    by a constant, and with a its last normal entry it bounds the last
    coordinate by floor(r / a) from above when a > 0, and by ceil(r / a) from
    below when a < 0, kept negated as floor(r / -a) so that both sides take
    the least bound.  A facet with a = 0 bounds both sides, by top + span * r
    from above and by bottom - span * r from below: where r >= 0 both lie
    outside the box, and where r < 0 they cross, which empties the fiber
    whatever the other facets allow there.  The bounds are ranges and maps,
    never lists, so memory does not grow with the row.  A box of one or two
    axes is padded with zero axes in front to two.
    """
    lows, highs = _bounding_box(P, n)
    size = prod(max(0, hi - lo + 1) for lo, hi in zip(lows, highs))
    if size > ENUMERATION_LIMIT:
        raise BoxTooLarge("bounding box has %d candidate points" % size)
    if size == 0:
        return [0] * len(shifts)
    pad = [0] * (2 - len(lows))
    lows, highs = pad + lows, pad + highs
    top, bottom = highs[-1], lows[-1]
    span = top - bottom + 1
    width = highs[-2] - lows[-2] + 1
    # per side, (normal without its last entry, divisor, slack per shift)
    above, below = [], []
    for hs in P.facets:
        *head, a = pad + list(hs.normal)
        slack = n * hs.offset
        if a:
            (above if a > 0 else below).append((head, abs(a), [slack - s for s in shifts]))
        else:
            head = [span * c for c in head]
            above.append((head, 1, [top + span * (slack - s) for s in shifts]))
            below.append((head, 1, [span * (slack - s) - bottom for s in shifts]))
    axes = [range(lo, hi + 1) for lo, hi in zip(lows[:-2], highs[:-2])]
    totals = [0] * len(shifts)
    for start in product(*axes, [lows[-2]]):  # the first fiber of each row
        for i in range(len(shifts)):
            # fiber by fiber, the upper bounds and the negated lower bounds
            upper, lower = ([_bounds(slacks[i] - sum(map(mul, head, start)), -head[-1], width, k)
                             for head, k, slacks in side] for side in (above, below))
            totals[i] += sum(map(max, map(add, _tightest(upper), _tightest(lower)),
                                 repeat(-1))) + width
    return totals


# mode -> (q, d) -> (constant term of the count series, power of (1 - z^q)
# that clears its denominator, degree bound of the numerator)
_SERIES = {"closed": lambda q, d: (1, d + 1, q * (d + 1) - 1),
           "interior": lambda q, d: (0, d + 1, q * (d + 1)),
           "boundary": lambda q, d: (1, d, q * d)}


def count_points(P: Polytope, n: int, mode: str = "closed") -> int:
    """|nP ∩ Z^d| (resp. interior/boundary points) from one sweep of nP.

    The sweep reads only the slack the mode needs: shift 0 for closed, 1 for
    interior, and both for boundary, which is closed less interior.
    """
    if not P.is_full_dimensional:
        raise NotFullDimensional("counting is defined for full-dimensional polytopes")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("dilation factor must be a positive integer, got %r" % (n,))
    if mode not in _SERIES:
        raise ValueError("mode must be closed, interior or boundary")
    if mode == "boundary":
        closed, interior = _counts(P, n, (0, 1))
        return closed - interior
    return _counts(P, n, (1,) if mode == "interior" else (0,))[0]


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
