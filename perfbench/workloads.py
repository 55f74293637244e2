"""Workload inputs, task lists and output checks for the ehrkit benchmark.

A workload is a list of groups.  A group is one raw vertex list plus the
public entry points called on it; every call is one task and rebuilds its
Polytope with ``build_polytope``, so no hull is shared between tasks.  The
inputs depend only on the seed.  Checks compare each output with a
reference that does not come from the triangulation pipeline: a closed
form, the scanline oracle, or lattice-point counts of the first dilates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, prod
from types import SimpleNamespace

import ehrkit
from ehrkit.corpus import standard_corpus
from ehrkit.linalg import determinant
from ehrkit.oracle import _bounding_box

HSTAR_CALLS = (("hstar_polytope", ()), ("hstar_boundary", ()))
REPORT_CALLS = ("stapledon_report", "inequality_audit", "verify_gorenstein_identities",
                "rational_decompose", "ehrhart_report")
VERIFY_CALLS = (("hstar_polytope", ()), ("hstar_boundary", ()), ("hstar_interior", ()),
                ("hstar_from_counts", ("closed",)), ("hstar_from_counts", ("boundary",)),
                ("hstar_from_counts", ("interior",)))

# (d, q, vertex count, h*(1) band) of the rational-deep polytopes.  The
# bands are high enough that the residue walk is most of an h* call and
# narrow enough that runs with different seeds do the same work.  d=5 q=3
# sits higher because its polytopes are so thin that few in the lower band
# have an interior lattice point.
DEEP_CLASSES = ((4, 3, 5, (14_000, 18_000)), (4, 3, 6, (14_000, 18_000)),
                (5, 2, 7, (14_000, 18_000)), (5, 3, 6, (20_000, 24_000)))
SMALL_DEEP = ((4, 3, 5, (300, 3_000)),)
# (q, vertex count, h*(1) band) of the random d=3 members of full-report;
# each band holds about one decile around its class's median.
REPORT_CLASSES = ((2, 4, (75, 100)), (2, 5, (240, 300)), (3, 4, (340, 460)),
                  (3, 5, (1_000, 1_300)))
# (d, q, coordinate radius, polytopes, band of scanlines times facets) of the
# random oracle-verify polytopes; the product is what the oracle's cost
# follows, and each band holds one or two deciles of its class (the lowest
# for d=4).  One polytope per class keeps their tasks few enough that the p90
# falls among the corpus's tasks, which every seed shares.
ORACLE_CLASSES = ((3, 2, 2, 1, (30_000, 40_000)), (3, 3, 2, 1, (80_000, 100_000)),
                  (4, 2, 1, 1, (100_000, 140_000)))


@dataclass
class Group:
    name: str
    vertices: list
    calls: tuple            # (entry point, extra args) pairs, one task each
    family: str | None = None  # closed-form family: cube, centered-cube, cross
    oracle_ref: bool = False   # take reference h* from the scanline oracle
    cache: dict = field(default_factory=dict)

    def labels(self):
        return [fn + "".join(":" + str(a) for a in args) for fn, args in self.calls]


# -- input generation ----------------------------------------------------------

def cube(d, lo=0, hi=1):
    return list(product((lo, hi), repeat=d))


def cross(d):
    return [tuple(s * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)]


def scaled(points, t):
    return [tuple(Fraction(c) * t for c in p) for p in points]


def unimodular_image(rng, points):
    """Image of the points under a random signed permutation, one unit
    transvection and a translation in {0,1}^d; all of them lie in GL_d(Z)
    plus Z^d, so h* is unchanged."""
    d = len(points[0])
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    i, j = rng.sample(range(d), 2)
    shear = rng.choice((1, -1))
    shift = [rng.randint(0, 1) for _ in range(d)]
    out = []
    for p in points:
        x = [signs[k] * p[perm[k]] for k in range(d)]
        x[i] += shear * x[j]
        out.append(tuple(a + b for a, b in zip(x, shift)))
    return out


def circuit(int_points):
    """Signed maximal minors of d+2 homogenised points in R^d: the
    coefficients of their affine dependency, unique up to scale."""
    rows = [list(p) + [1] for p in int_points]
    return [(-1) ** i * int(determinant(rows[:i] + rows[i + 1:])) for i in range(len(rows))]


def circuit_hstar_one(int_points, q):
    """h*(1) = q^(d+1) d! vol of the hull of d+1 or d+2 points given as q*v.

    For d+2 points the hull splits along their affine dependency, so d! vol
    is half the sum of the minors' absolute values.
    """
    if len(int_points) == len(int_points[0]) + 1:
        return q * abs(int(determinant([list(p) + [1] for p in int_points])))
    return q * sum(map(abs, circuit(int_points))) // 2


def all_vertices(int_points):
    """True when every point is a vertex of the hull of d+1 or d+2 points.

    A point is inside the hull of the others exactly when its coefficient is
    the only one of its sign in the affine dependency.
    """
    if len(int_points) == len(int_points[0]) + 1:
        return True
    lam = circuit(int_points)
    return sum(m > 0 for m in lam) >= 2 and sum(m < 0 for m in lam) >= 2


def random_rational(rng, d, q, counts, radius, accept):
    """Corpus recipe: counts[0]..counts[1] points with coordinates k/q, |k| <= radius*q,
    redrawn until the hull is a d-polytope of denominator q and
    `accept(int_points, None)` (before the hull) and `accept(int_points, P)`
    (after it) hold."""
    while True:
        ints = [tuple(rng.randint(-radius * q, radius * q) for _ in range(d))
                for _ in range(rng.randint(*counts))]
        if not accept(ints, None):
            continue
        pts = [tuple(Fraction(c, q) for c in p) for p in ints]
        P = ehrkit.build_polytope(pts)
        if P.dim == d and P.denominator_q == q and accept(ints, P):
            return pts


def banded_polytope(rng, d, q, count, band, interior=False):
    """Corpus-recipe polytope with `count` vertices and h*(1) in `band`;
    with `interior`, it also has an interior lattice point."""
    lo, hi = band

    def accept(ints, P):
        if P is None:
            return lo <= circuit_hstar_one(ints, q) <= hi and all_vertices(ints)
        return len(P.vertices) == count and (
            not interior or ehrkit.count_points(P, 1, "interior") > 0)
    return random_rational(rng, d, q, (count, count), 2, accept)


def scanlines(P, n):
    """Scanlines one closed or interior count_points(P, n) walks: its
    bounding box without the last axis."""
    lows, highs = _bounding_box(P, n)
    return prod(max(0, hi - lo + 1) for lo, hi in zip(lows[:-1], highs[:-1]))


def oracle_scanlines(points, q):
    """Scanlines hstar_from_counts walks in closed mode on the hull of the
    points, of denominator q; the hull has the points' bounding box."""
    d = len(points[0])
    hull = SimpleNamespace(vertices=points, ambient_dim=d)
    return sum(scanlines(hull, n) for n in range(1, q * (d + 1) + d + 2))


def max_facets(d, n):
    """Upper bound theorem: facets of the cyclic polytope C(n, d), d <= 4."""
    return {3: 2 * n - 4, 4: n * (n - 3) // 2}[d]


def lattice_fan(seed, small=False):
    rng = random.Random(seed)
    dims = (3,) if small else (3, 4)
    bases = []
    for d in dims:
        bases += [("unit-cube-%dd" % d, cube(d), "cube"),
                  ("centered-cube-%dd" % d, cube(d, -1, 1), "centered-cube"),
                  ("cross-%dd" % d, cross(d), "cross")]
    groups = [Group(name, unimodular_image(rng, pts), HSTAR_CALLS, family=family)
              for name, pts, family in bases]
    if not small:
        groups.append(Group("cross-5d", unimodular_image(rng, cross(5)), HSTAR_CALLS,
                            family="cross"))
        # h* only: the odd task count puts the median on one task, not
        # between the two tasks around the middle, which differ by 2x.
        groups.append(Group("cross-6d", unimodular_image(rng, cross(6)), HSTAR_CALLS[:1],
                            family="cross"))
    return groups


def rational_deep(seed, small=False):
    rng = random.Random(seed)
    groups = []
    for d, q, count, band in SMALL_DEEP if small else DEEP_CLASSES:
        for k in range(1 if small else 2):
            pts = banded_polytope(rng, d, q, count, band, interior=True)
            groups.append(Group("seeded-d%d-q%d-v%d-%d" % (d, q, count, k), pts, HSTAR_CALLS))
    return groups


def full_report(seed, small=False):
    rng = random.Random(seed)
    corpus = dict(standard_corpus())
    worked = ("square-02", "skew-quad", "segment-half", "wide-triangle", "wide-triangle-half")
    reports = tuple((fn, ()) for fn in REPORT_CALLS)
    no_series = tuple(c for c in reports if c[0] != "rational_decompose")
    groups = [Group(name, list(corpus[name].vertices), reports, oracle_ref=True)
              for name in (worked[:1] if small else worked)]
    for d in ((3,) if small else (3, 4)):
        groups.append(Group("unit-cube-%dd" % d, cube(d), reports, family="cube"))
        groups.append(Group("cross-%dd" % d, cross(d), reports, family="cross"))
    if not small:
        groups.append(Group("half-cross-4d", scaled(cross(4), Fraction(1, 2)), reports,
                            oracle_ref=True))
        groups.append(Group("third-centered-cube-3d", scaled(cube(3, -1, 1), Fraction(1, 3)),
                            reports, oracle_ref=True))
    # Random members skip rational_decompose: their codenominator is unbounded.
    for q, count, band in REPORT_CLASSES[:1] if small else REPORT_CLASSES:
        pts = banded_polytope(rng, 3, q, count, band)
        groups.append(Group("seeded-d3-q%d-v%d" % (q, count), pts, no_series, oracle_ref=True))
    return groups


def oracle_verify(seed, small=False):
    rng = random.Random(seed)
    groups = [Group(name, list(P.vertices), VERIFY_CALLS)
              for name, P in standard_corpus() if P.is_full_dimensional]
    if small:
        groups = groups[:4]
    for d, q, radius, count, (lo, hi) in ORACLE_CLASSES[:1] if small else ORACLE_CLASSES:
        def accept(ints, P, d=d, q=q, lo=lo, hi=hi):
            lines = oracle_scanlines([tuple(Fraction(c, q) for c in p) for p in ints], q)
            if P is None:
                return lines * (d + 1) <= hi and lines * max_facets(d, len(ints)) >= lo
            return lo <= lines * len(P.facets) <= hi
        for k in range(1 if small else count):
            pts = random_rational(rng, d, q, (d + 1, d + 4), radius, accept)
            groups.append(Group("seeded-d%d-q%d-%d" % (d, q, k), pts, VERIFY_CALLS))
    return groups


BUILDERS = {"lattice-fan": lattice_fan, "rational-deep": rational_deep,
            "full-report": full_report, "oracle-verify": oracle_verify}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed, small=False):
    return BUILDERS[workload](seed, small)


# -- references ----------------------------------------------------------------

def eulerian(d):
    """h* of the unit d-cube: Eulerian numbers A(d, k)."""
    return [sum((-1) ** j * comb(d + 1, j) * (k + 1 - j) ** d for j in range(k + 1))
            for k in range(d)]


def _ncr(n, k):
    """Binomial coefficient as a polynomial in n, valid for negative n too."""
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(n - i, i + 1)
    return out


COUNTING = {  # lattice points in n*P for the closed-form families
    "cube": lambda d, n: (n + 1) ** d,
    "centered-cube": lambda d, n: (2 * n + 1) ** d,
    "cross": lambda d, n: int(sum(2 ** k * comb(d, k) * _ncr(n, k) for k in range(d + 1))),
}


def series_division(values, q, power, bound):
    """Numerator of sum values[n] z^n over (1 - z^q)^power; the tail must vanish."""
    coeffs = list(values)
    for _ in range(power):
        coeffs = [c - (coeffs[i - q] if i >= q else 0) for i, c in enumerate(coeffs)]
    if any(coeffs[bound + 1:]):
        raise ArithmeticError("series division leaves a nonzero tail")
    return ehrkit.GradedPolynomial.from_list(coeffs[:bound + 1])


def closed_form(family, d):
    """(h*, boundary h*) of the family member in dimension d."""
    L = lambda n: COUNTING[family](d, n)  # noqa: E731
    terms = 2 * d + 4
    if family == "cube":
        h = ehrkit.GradedPolynomial.from_list(eulerian(d))
    elif family == "cross":
        h = ehrkit.GradedPolynomial.from_list([comb(d, k) for k in range(d + 1)])
    else:
        h = series_division([L(n) for n in range(terms)], 1, d + 1, d)
    # boundary points of nP: L(n) minus the interior count (-1)^d L(-n)
    boundary = [1] + [L(n) - (-1) ** d * L(-n) for n in range(1, terms)]
    return h, series_division(boundary, 1, d, d)


def series_coefficient(h, q, power, n):
    """Coefficient of z^n in h(z) / (1 - z^q)^power (h on the integer grid)."""
    return sum(c * comb((n - k) // q + power - 1, power - 1)
               for k, c in h.as_dict().items() if k <= n and (n - k) % q == 0)


class Context:
    """Facts about one group's polytope, computed outside the timed region."""

    def __init__(self, group):
        self.group = group
        if "P" not in group.cache:
            group.cache["P"] = ehrkit.build_polytope(group.vertices)
        P = group.cache["P"]
        self.P, self.q, self.d = P, P.denominator_q, P.dim

    def counts(self, mode):
        key = ("counts", mode)
        if key not in self.group.cache:
            self.group.cache[key] = [ehrkit.count_points(self.P, n, mode) for n in (1, 2)]
        return self.group.cache[key]

    def reference(self):
        """(h*, boundary h*) from a closed form or the oracle, or None."""
        g = self.group
        if "ref" not in g.cache:
            if g.family:
                g.cache["ref"] = closed_form(g.family, self.d)
            elif g.oracle_ref:
                g.cache["ref"] = (ehrkit.hstar_from_counts(self.P, "closed"),
                                  ehrkit.hstar_from_counts(self.P, "boundary"))
            else:
                g.cache["ref"] = None
        return g.cache["ref"]


# -- checks ----------------------------------------------------------------------

def check_closed(ctx, h):
    q, d = ctx.q, ctx.d
    ok = (h.grid == 1 and h.coeff(0) == 1 and h.degree_key < q * (d + 1)
          and h.is_nonnegative
          and [series_coefficient(h, q, d + 1, n) for n in (1, 2)] == ctx.counts("closed"))
    ref = ctx.reference()
    return ok and (ref is None or h == ref[0])


def check_boundary(ctx, hb):
    q, d = ctx.q, ctx.d
    ok = (hb.grid == 1 and hb.coeff(0) == 1 and hb.is_palindromic(q * d)
          and hb.is_nonnegative
          and [series_coefficient(hb, q, d, n) for n in (1, 2)] == ctx.counts("boundary"))
    ref = ctx.reference()
    return ok and (ref is None or hb == ref[1])


def check_interior(ctx, hi):
    q, d = ctx.q, ctx.d
    closed, boundary = ctx.counts("closed"), ctx.counts("boundary")
    return (hi.grid == 1 and hi.coeff(0) == 0 and hi.degree_key <= q * (d + 1)
            and [series_coefficient(hi, q, d + 1, n) for n in (1, 2)]
            == [c - b for c, b in zip(closed, boundary)])


def check_decomposition(ctx, rep, h, hb):
    q, d, geom = ctx.q, ctx.d, ehrkit.GradedPolynomial.geometric
    ell = q * (d + 1) - h.degree_key
    return (rep.ell == ell and rep.s_degree == h.degree_key and rep.a == hb
            and rep.lhs == rep.a + rep.b.shift(ell)
            and rep.lhs * geom(q) == h * geom(ell)
            and rep.a.is_palindromic(q * d)
            and (rep.b.is_zero or rep.b.is_palindromic(q * d - ell)))


def check_rational(ctx, rep):
    """Series coefficients at the first two grid steps against direct counts."""
    grid = rep.numerator.grid
    d, m, num = ctx.d, rep.m, rep.numerator.as_dict()
    for k in (1, 2):
        series = sum(c * comb((k - j) // m + d, d)
                     for j, c in num.items() if j <= k and (k - j) % m == 0)
        if series != ehrkit.count_points(ehrkit.dilate(ctx.P, Fraction(k, grid)), 1):
            return False
    if rep.origin_position == "interior" and not rep.numerator.is_palindromic():
        return False
    if rep.decomposition is not None:
        a, b, ell = rep.decomposition
        geom = ehrkit.GradedPolynomial.geometric
        if (a + b.shift(ell)) * geom(m, grid) != rep.numerator * geom(ell, grid):
            return False
    return rep.numerator.is_nonnegative


def check_task(ctx, label, out):
    """True when the output of one task is right."""
    fn, _, mode = label.partition(":")
    if fn == "hstar_polytope" or (fn == "hstar_from_counts" and mode == "closed"):
        return check_closed(ctx, out)
    if fn == "hstar_boundary" or mode == "boundary":
        return check_boundary(ctx, out)
    if fn == "hstar_interior" or mode == "interior":
        return check_interior(ctx, out)
    h, hb = ctx.reference()
    if fn == "stapledon_report":
        return check_decomposition(ctx, out, h, hb)
    if fn == "inequality_audit":
        return bool(out.items) and out.all_passed
    if fn == "verify_gorenstein_identities":
        kind = out.status.kind
        if kind is not ehrkit.GorensteinKind.NONE and not (
                out.polynomials["hstar"] == h and out.polynomials["hstar_boundary"] == hb
                and "hstar_palindromic" in out.checks):
            return False
        # Stanley: a lattice polytope is Gorenstein exactly when h* is palindromic
        return ctx.q > 1 or (kind is not ehrkit.GorensteinKind.NONE) == h.is_palindromic()
    if fn == "rational_decompose":
        return check_rational(ctx, out)
    if fn == "ehrhart_report":
        return (out.hstar == h and out.hstar_boundary == hb
                and out.hstar_interior == h.reverse(ctx.q * (ctx.d + 1))
                and check_decomposition(ctx, out.decomposition, h, hb)
                and out.audit.all_passed)
    raise ValueError("no check for %s" % label)


# pipeline task -> oracle task that must agree with it
PAIRS = {"hstar_polytope": "hstar_from_counts:closed",
         "hstar_boundary": "hstar_from_counts:boundary",
         "hstar_interior": "hstar_from_counts:interior"}


def check_group(group, outputs, residues=None):
    """{label: ok} for one group's outputs; exceptions count as wrong.

    `residues` maps the labels of traced tasks to the number of
    parallelepiped residues they walked; an h* task must walk exactly h*(1).
    """
    ctx = Context(group)
    verdict = {}
    for label, out in outputs.items():
        try:
            ok = not isinstance(out, BaseException) and bool(check_task(ctx, label, out))
        except Exception:  # a malformed output is a wrong output
            ok = False
        if ok and label == "hstar_polytope" and label in (residues or {}):
            ok = residues[label] == out.evaluate_at_one()
        verdict[label] = ok
    for pipe, oracle in PAIRS.items():
        if pipe in outputs and oracle in outputs and not (
                verdict[pipe] and verdict[oracle] and outputs[pipe] == outputs[oracle]):
            verdict[pipe] = verdict[oracle] = False
    return verdict
