"""Brute-force verification channel, independent of the triangulation pipeline.

Only geometry types and the GradedPolynomial value type are shared; nothing
here touches the half-open machinery, so an agreement between the two routes
is meaningful evidence.  One sweep per count_points or hstar_from_counts
call walks the integer points of every dilate nP the call needs, in batches
of rows: each facet that meets the fiber axis bounds the last coordinate on
all fibers of a batch at once, as one stream of ranges, and each facet
parallel to it clips the fibers of every row of the batch by floor
divisions, so no Python loop body runs per row or per fiber.  Each mode
sweeps only the slack it reads: the facets' own for the closed count, one
less for the interior count, and both for the boundary count, which is
their difference; verify reads all three modes from one sweep of both.

Each call scales P's vertices once, into the integer table (q, q·v); the box
of every dilate is read off it and sized with geometry's helpers, which the
pipeline's interior-point scans share, before anything is swept.  A sweep
plan, built once per call from the same table, keeps the sweep to the rows
and fibers that meet nP instead of all of its bounding box (Ancourt and
Irigoin, "Scanning polyhedra with DO loops", PPoPP 1991).  The axes are
ordered by the vertices' extent, longest last, so that the longest axis is
the fiber axis and the next longest the row axis; a coordinate permutation
maps the points of nP one to one onto those of its image.  Fourier-Motzkin
elimination of the facet rows, one trailing coordinate at a time, gives rows
on each leading block of coordinates that bound its last coordinate over the
prefix before it.  Every such row is a nonnegative combination of facet
rows, so it holds at every point the facets admit, whatever the facet list:
the clip never drops a point the facets keep, and dropping a row only
loosens it.  The facets still decide each fiber, so for facets that keep
every fiber inside the box, as P's own do, every count is the one a sweep of
the whole box gives.  Other facet lists are counted past the box along the
fiber axis, which the axis order picks.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import add, floordiv, le, mul, sub

from .errors import NotFullDimensional, TailNonzero
from .geometry import Polytope, _box, _extremes, _sized
from .gradedpoly import GradedPolynomial


def _table(P: Polytope):
    """P's integer vertex table (q, rows q·v), q the lcm of its denominators."""
    q = lcm(*(c.denominator for v in P.vertices for c in v))
    return q, [tuple(c.numerator * (q // c.denominator) for c in v) for v in P.vertices]


def _bounding_box(P: Polytope, n: int):
    """(lows, highs) of nP's integer bounding box; reads only P.vertices, so
    perfbench sizes its oracle inputs with it on a bare namespace."""
    return _box(_extremes(_table(P)), n)


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


def _plan(P: Polytope, table):
    """(extremes, facets, levels): the sweep plan of P, for every dilate,
    from its integer vertex table (q, rows q·v).

    The axes are ordered by the vertices' coordinate extent, largest last; a
    box of one axis is padded with a zero axis in front to two.  extremes
    are the table's, in that order, and facets (normal, offset) with the
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
    q, least, greatest = _extremes(table)
    d = len(least)
    order = sorted(range(d), key=lambda c: greatest[c] - least[c])
    pad = [0] * (2 - d)
    extremes = q, pad + [least[c] for c in order], pad + [greatest[c] for c in order]
    facets = [(pad + [hs.normal[c] for c in order], hs.offset) for hs in P.facets]
    levels = []
    if d > 2:
        points = [tuple(u[c] for c in order) for u in table[1]]
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
    """floor(r / k) over the residuals r = rest, rest + step, ... at width
    consecutive values of one coordinate, lazily: a range itself when k = 1."""
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


# rows per batch of the sweep: the per-row lists of a batch, one per facet
# and shift, grow with it, not with the call
_BATCH = 1024


def _batches(plan, dilates):
    """The rows (n, (first fiber, width)) that _rows yields for every dilate
    n with a nonempty box, in dilate order, in lists of at most _BATCH rows."""
    extremes, _, levels = plan
    boxes = ((n, _box(extremes, n)) for n in dilates)
    sweep = chain.from_iterable(zip(repeat(n), _rows(levels, n, lows, highs))
                                for n, (lows, highs) in boxes
                                if all(map(le, lows, highs)))
    while batch := list(islice(sweep, _BATCH)):
        yield batch


def _counts(plan, dilates, shifts) -> list[list[int]]:
    """Per dilate n, one count per slack shift s: the integer points x of
    nP's box with normal.x <= n*offset - s on every facet, for facets that
    keep every fiber inside the box, as P's own do.  s = 0 counts nP and
    s = 1 its interior, since with integer data a.x < R <=> a.x <= R - 1.

    One sweep serves every dilate.  It reads the rows that _rows yields, the
    last two axes of the plan's order at each prefix of the others that the
    clip keeps, a batch of rows at a time; every clip row holds wherever the
    facets do, so the rows and fibers it skips hold no counted point.  On a
    row each facet's residual slack r = n*offset - s - head.start steps by
    -b from fiber to fiber, b the facet's row-axis entry.  With a its last
    normal entry, a facet bounds the last coordinate by floor(r / a) from
    above when a > 0, and by ceil(r / a) from below when a < 0, kept
    negated as floor(r / -a) so that both sides take the least bound; each
    facet's bounds over the whole batch are one stream of ranges.  A facet
    with a = 0 instead clips the row's fiber offsets t to b*t <= r: t <=
    floor(r / b) when b > 0, t >= -floor(r / -b) when b < 0, and none when
    b = 0 and r < 0.  Each dilate's total is read off the combined stream
    by its number of fibers.  The bounds are ranges and maps, never lists,
    and the per-row lists grow only with the batch.
    """
    _, facets, _ = plan
    totals = {n: [0] * len(shifts) for n in dilates}
    for batch in _batches(plan, dilates):
        ns, rows = zip(*batch)
        starts, widths = zip(*rows)
        columns = list(zip(*starts))
        rows_per_dilate = Counter(ns).items()
        # per facet, (row-axis entry b, last entry a, unshifted residual per row)
        clips, sides = [], []
        for normal, offset in facets:
            *head, a = normal
            residual = map(mul, ns, repeat(offset))
            for c, column in zip(head, columns):
                if c:
                    residual = map(sub, residual, map(mul, column, repeat(c)))
            (sides if a else clips).append((head[-1], a, list(residual)))
        for i, s in enumerate(shifts):
            # the clip keeps each row's fibers t = first, ..., end - 1, as the
            # least end and the least -first <= 0 that its facets allow
            ends, firsts = widths, None
            for b, _, residual in clips:
                if b > 0:
                    ends = map(min, ends, map(floordiv, map(add, residual, repeat(b - s)),
                                              repeat(b)))
                elif b < 0:
                    firsts = map(min, firsts or repeat(0),
                                 map(floordiv, map(sub, residual, repeat(s)), repeat(-b)))
                else:
                    ends = map(mul, ends, map(le, repeat(s), residual))
            if firsts is not None:
                firsts = list(firsts)
                ends = map(add, ends, firsts)
            fibers = list(map(max, ends, repeat(0)))
            upper, lower = [], []
            for b, a, residual in sides:
                residual = map(sub, residual, repeat(s))
                if firsts is not None and b:
                    residual = map(add, residual, map(mul, firsts, repeat(b)))
                k = abs(a)
                if b:
                    residual = list(residual)
                    bounds = chain.from_iterable(map(
                        range, residual, map(sub, residual, map(mul, fibers, repeat(b))),
                        repeat(-b)))
                    if k > 1:
                        bounds = map(floordiv, bounds, repeat(k))
                else:
                    if k > 1:
                        residual = map(floordiv, residual, repeat(k))
                    bounds = chain.from_iterable(map(repeat, residual, fibers))
                (upper if a > 0 else lower).append(bounds)
            # top - bottom per fiber, at least -1 where the fiber is empty
            spans = map(max, map(add, _tightest(upper), _tightest(lower)), repeat(-1))
            per_row = iter(fibers)
            for n, rows in rows_per_dilate:
                width = sum(islice(per_row, rows))
                totals[n][i] += sum(islice(spans, width)) + width
    return [totals[n] for n in dilates]


# mode -> (q, d) -> (constant term of the count series, power of (1 - z^q)
# that clears its denominator, degree bound of the numerator)
_SERIES = {"closed": lambda q, d: (1, d + 1, q * (d + 1) - 1),
           "interior": lambda q, d: (0, d + 1, q * (d + 1)),
           "boundary": lambda q, d: (1, d, q * d)}
# mode -> {slack shift its sweep reads: the sign of that shift's count in
# the mode's count}: boundary is closed less interior
_SHIFTS = {"closed": {0: 1}, "interior": {1: 1}, "boundary": {0: 1, 1: -1}}


def _sweep(P: Polytope, dilates, modes) -> list[list[int]]:
    """Per mode, its count of nP for each dilate n, from one sweep of the
    modes' slacks.  Box size is not monotone in n, so every dilate's box, read
    off the one plan, is sized before the sweep."""
    plan = _plan(P, _table(P))
    for n in dilates:
        _sized(plan[0], n)
    shifts = sorted({s for mode in modes for s in _SHIFTS[mode]})
    counts = _counts(plan, dilates, shifts)
    return [[sum(map(mul, signs, c)) for c in counts]
            for signs in ([_SHIFTS[mode].get(s, 0) for s in shifts] for mode in modes)]


def count_points(P: Polytope, n: int, mode: str = "closed") -> int:
    """|nP ∩ Z^d| (resp. interior/boundary points) from one sweep of nP that
    reads only the slack the mode needs."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("counting is defined for full-dimensional polytopes")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("dilation factor must be a positive integer, got %r" % (n,))
    if mode not in _SERIES:
        raise ValueError("mode must be closed, interior or boundary")
    return _sweep(P, (n,), (mode,))[0][0]


def hstar_from_counts(P: Polytope, mode: str = "closed") -> GradedPolynomial:
    """Numerator polynomial recovered by series division against brute
    counts, from one sweep of the dilates that reads only the mode's slack."""
    if mode not in _SERIES:
        raise ValueError("mode must be closed, boundary or interior")
    return _hstars_from_counts(P, (mode,))[0]


def _hstars_from_counts(P: Polytope, modes=("closed", "boundary", "interior")):
    """The numerator of each mode, as hstar_from_counts gives it, all from
    one sweep of P's dilates 1 .. q(d+1)+d+1 that reads the modes' slacks.

    Per mode, the truncated count series, with the mode's constant term, is
    multiplied by the mode's power of (1 - z^q); the surplus terms past the
    degree bound must all vanish, otherwise something is inconsistent and
    TailNonzero is raised.
    """
    if not P.is_full_dimensional:
        raise NotFullDimensional("h* from counts needs a full-dimensional polytope")
    q, d = P.denominator_q, P.dim
    terms = q * (d + 1) + d + 2
    numerators = []
    for mode, counts in zip(modes, _sweep(P, range(1, terms), modes)):
        constant, power, bound = _SERIES[mode](q, d)
        coeffs = [constant] + counts
        for _ in range(power):
            coeffs = [coeffs[i] - (coeffs[i - q] if i >= q else 0) for i in range(terms)]
        if any(coeffs[i] for i in range(bound + 1, terms)):
            raise TailNonzero("series division leaves a nonzero tail for mode %r" % mode)
        numerators.append(GradedPolynomial.from_dict(dict(enumerate(coeffs[:bound + 1]))))
    return tuple(numerators)
