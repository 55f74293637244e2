"""Brute-force verification channel, independent of the triangulation pipeline.

Only geometry types and the GradedPolynomial value type are shared; nothing
here touches the half-open machinery, so an agreement between the two routes
is meaningful evidence.  One sweep per dilate walks the integer points of nP
a row at a time: every facet bounds the last coordinate on all fibers of the
row at once, as a range or a map over one, so no Python loop body runs per
fiber.  Each mode sweeps only the slack it reads: the facets' own for the
closed count, one less for the interior count, and both for the boundary
count, which is their difference.

A sweep plan, built once per count_points or hstar_from_counts call, keeps
the sweep to the rows and fibers that meet nP instead of all of its bounding
box (Ancourt and Irigoin, "Scanning polyhedra with DO loops", PPoPP 1991).
The axes are ordered by the vertices' extent, longest last, so that the
longest axis is the fiber axis and the next longest the row axis; a
coordinate permutation maps the points of nP one to one onto those of its
image.  Fourier-Motzkin elimination of the facet rows, one trailing
coordinate at a time, gives rows on each leading block of coordinates that
bound its last coordinate over the prefix before it.  Every such row is a
nonnegative combination of facet rows, so it holds at every point the
facets admit, whatever the facet list: the clip never drops a point the
facets keep, and dropping a row only loosens it.  The facets still decide
each fiber, so for facets that keep every fiber inside the box, as P's own
do, every count is the one a sweep of the whole box gives.  Other facet
lists are counted past the box along the fiber axis, which the axis order
picks.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm, prod
from operator import add, floordiv, mul

from .errors import ENUMERATION_LIMIT, BoxTooLarge, NotFullDimensional, TailNonzero
from .geometry import Polytope
from .gradedpoly import GradedPolynomial


def _extremes(P: Polytope):
    """(q, least, greatest): q the least common denominator of P's vertex
    coordinates and, per axis, the least and greatest coordinate times q."""
    q = lcm(*(c.denominator for v in P.vertices for c in v))
    columns = [[c.numerator * (q // c.denominator) for c in column]
               for column in zip(*P.vertices)]
    return q, [min(column) for column in columns], [max(column) for column in columns]


def _box(extremes, n: int):
    """(lows, highs): ceil and floor of n times each axis's least and
    greatest vertex coordinate, for a positive n."""
    q, least, greatest = extremes
    return [-(-n * a // q) for a in least], [n * b // q for b in greatest]


def _bounding_box(P: Polytope, n: int):
    """(lows, highs) of nP's integer bounding box; reads only P.vertices, so
    perfbench sizes its oracle inputs with it on a bare namespace."""
    return _box(_extremes(P), n)


def _sized(extremes, n: int) -> None:
    """BoxTooLarge when nP's bounding box has more than ENUMERATION_LIMIT points."""
    size = prod(max(0, hi - lo + 1) for lo, hi in zip(*_box(extremes, n)))
    if size > ENUMERATION_LIMIT:
        raise BoxTooLarge("bounding box has %d candidate points" % size)


def _eliminate(rows, points, k):
    """Fourier-Motzkin step: the rows (normal, offset, tight mask) on k + 1
    coordinates, without their last one.  Rows with last entry 0 pass; each
    pair of opposite signs combines to cancel it.  A new row is made
    primitive and kept only if it is tight on at least k of the points
    (distinct projections of the vertices on the first k coordinates); a
    combination is tight where both of its rows are."""
    kept, pos, neg = {}, [], []
    for row in rows:
        a = row[0][-1]
        if a:
            (pos if a > 0 else neg).append(row)
        else:
            kept[row[0][:-1], row[1]] = row[2]
    for (up, b, m) in pos:
        for (down, c, w) in neg:
            mask = m & w
            if mask.bit_count() >= k:
                s, t = -down[-1], up[-1]
                normal = tuple(s * x + t * y for x, y in zip(up[:-1], down[:-1]))
                offset = s * b + t * c
                g = gcd(*normal, offset)
                if g:
                    kept[tuple(x // g for x in normal), offset // g] = mask
    out = []
    for (normal, offset), mask in kept.items():
        if any(normal) and len({points[i] for i in range(mask.bit_length())
                                if mask >> i & 1}) >= k:
            out.append((normal, offset, mask))
    return out


def _plan(P: Polytope, extremes):
    """(extremes, facets, levels): the sweep plan of P, for every dilate.

    The axes are ordered by the vertices' coordinate extent, largest last; a
    box of one axis is padded with a zero axis in front to two.  extremes
    are _extremes(P) in that order, and facets (normal, offset) with the
    normal in it.  levels[k - 1], for each coordinate k between the first and
    the last, holds the rows (head, a, offset) with head.x' + a·x_k <=
    n·offset for the prefix x' before x_k, split by the sign of a into
    (upper, lower), a kept as |a|.

    The rows of coordinate k come from the facet rows by eliminating the
    coordinates after k, last first.  Each is a nonnegative combination of
    facet rows, hence valid wherever the facets are; the tight-vertex test
    only decides which rows are worth keeping, so the clip is sound for any
    facet list, true hull or not.
    """
    q, least, greatest = extremes
    d = len(least)
    order = sorted(range(d), key=lambda c: greatest[c] - least[c])
    pad = [0] * (2 - d)
    extremes = q, pad + [least[c] for c in order], pad + [greatest[c] for c in order]
    facets = [(pad + [hs.normal[c] for c in order], hs.offset) for hs in P.facets]
    levels = []
    if d > 2:
        points = [tuple(v[c].numerator * (q // v[c].denominator) for c in order)
                  for v in P.vertices]
        rows = [(tuple(normal), offset, sum(1 << i for i, u in enumerate(points)
                                            if sum(map(mul, normal, u)) == q * offset))
                for normal, offset in facets]
        for k in range(d - 1, 1, -1):
            rows = _eliminate(rows, [u[:k] for u in points], k)
            upper = [(normal[:-1], a, offset) for normal, offset, _ in rows
                     if (a := normal[-1]) > 0]
            lower = [(normal[:-1], -a, offset) for normal, offset, _ in rows
                     if (a := normal[-1]) < 0]
            levels.append((upper, lower))
        levels.reverse()
    return extremes, facets, levels


def _bounds(rest, step, width, k):
    """floor(r / k) over the residuals r = rest, rest + step, ... of the width
    fibers of one row, lazily: a range itself when k = 1."""
    line = range(rest, rest + step * width, step) if step else repeat(rest, width)
    return line if k == 1 else map(floordiv, line, repeat(k))


def _tightest(bounds):
    """The least of the bounds fiber by fiber."""
    return map(min, *bounds) if len(bounds) > 1 else bounds[0]


def _rows(levels, n, lows, highs):
    """(first fiber, width) of each row of nP's sweep whose fibers may meet
    nP: coordinate 0 spans the box, and each later coordinate but the last
    the box clipped by its level's rows, computed as the fiber bounds are,
    for all values of the coordinate before it at once."""
    if not levels:
        yield lows[:1], highs[0] - lows[0] + 1
        return
    last = len(levels)

    def descend(prefix, lo, hi):
        k = len(prefix) + 1
        upper, lower = levels[k - 1]
        width = hi - lo + 1
        tops, bottoms = ([_bounds(n * offset - sum(map(mul, head, prefix)) - head[-1] * lo,
                                  -head[-1], width, a) for head, a, offset in side]
                         for side in (upper, lower))
        clipped = zip(range(lo, hi + 1), _tightest([repeat(highs[k], width)] + tops),
                      _tightest([repeat(-lows[k], width)] + bottoms))
        for x, top, bottom in clipped:
            if top + bottom >= 0:
                if k == last:
                    yield prefix + [x, -bottom], top + bottom + 1
                else:
                    yield from descend(prefix + [x], -bottom, top)

    yield from descend([], lows[0], highs[0])


def _counts(plan, n: int, shifts) -> list[int]:
    """One count per slack shift s: the integer points x of nP's box with
    normal.x <= n*offset - s on every facet, for facets that keep every
    fiber inside the box, as P's own do.  s = 0 counts nP and s = 1 its
    interior, since with integer data a.x < R <=> a.x <= R - 1.

    The sweep runs over the rows that _rows yields: the last two axes of the
    plan's order, at each prefix of the others that the clip keeps, each
    over the fibers the clip keeps.  Every clip row holds wherever the
    facets do, so the rows and fibers it skips hold no counted point.  On
    the fibers of a row a facet's residual slack r steps by a constant, and
    with a its last normal entry it bounds the last coordinate by
    floor(r / a) from above when a > 0, and by ceil(r / a) from below when
    a < 0, kept negated as floor(r / -a) so that both sides take the least
    bound.  A facet with a = 0 bounds both
    sides, by top + span * r from above and by bottom - span * r from below:
    where r >= 0 both lie outside the box, and where r < 0 they cross, which
    empties the fiber whatever the other facets allow there.  The bounds are
    ranges and maps, never lists, so memory does not grow with the row.
    """
    extremes, facets, levels = plan
    lows, highs = _box(extremes, n)
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return [0] * len(shifts)
    top, bottom = highs[-1], lows[-1]
    span = top - bottom + 1
    # per side, (normal without its last entry, divisor, slack per shift)
    above, below = [], []
    for normal, offset in facets:
        *head, a = normal
        slack = n * offset
        if a:
            (above if a > 0 else below).append((head, abs(a), [slack - s for s in shifts]))
        else:
            head = [span * c for c in head]
            above.append((head, 1, [top + span * (slack - s) for s in shifts]))
            below.append((head, 1, [span * (slack - s) - bottom for s in shifts]))
    totals = [0] * len(shifts)
    for start, width in _rows(levels, n, lows, highs):
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
# mode -> the slack shifts its sweep reads
_SHIFTS = {"closed": (0,), "interior": (1,), "boundary": (0, 1)}


def _count(plan, n: int, mode: str) -> int:
    """The mode's count of nP from one sweep: boundary is closed less interior."""
    counts = _counts(plan, n, _SHIFTS[mode])
    return counts[0] - counts[1] if mode == "boundary" else counts[0]


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
    extremes = _extremes(P)
    _sized(extremes, n)
    return _count(_plan(P, extremes), n, mode)


def hstar_from_counts(P: Polytope, mode: str = "closed") -> GradedPolynomial:
    """Numerator polynomial recovered by series division against brute counts.

    Every dilate's box is sized before the first sweep, since box size is not
    monotone in n, and one sweep plan serves every dilate.  The truncated
    count series, with the mode's constant term, is multiplied by the mode's
    power of (1 - z^q); the surplus terms past the degree bound must all
    vanish, otherwise something is inconsistent and TailNonzero is raised.
    """
    if not P.is_full_dimensional:
        raise NotFullDimensional("h* from counts needs a full-dimensional polytope")
    if mode not in _SERIES:
        raise ValueError("mode must be closed, boundary or interior")
    q, d = P.denominator_q, P.dim
    constant, power, bound = _SERIES[mode](q, d)
    terms = q * (d + 1) + d + 2
    extremes = _extremes(P)
    for n in range(1, terms):
        _sized(extremes, n)
    plan = _plan(P, extremes)
    coeffs = [constant] + [_count(plan, n, mode) for n in range(1, terms)]
    for _ in range(power):
        coeffs = [coeffs[i] - (coeffs[i - q] if i >= q else 0) for i in range(terms)]
    if any(coeffs[i] for i in range(bound + 1, terms)):
        raise TailNonzero("series division leaves a nonzero tail for mode %r" % mode)
    return GradedPolynomial.from_dict({i: c for i, c in enumerate(coeffs[:bound + 1])})
