"""Exact rational polytopes: vertices, facets, containment, dilation, duality.

Points are tuples of Fraction; every predicate is decided exactly.  The hull
is a double description on the points scaled to integers once: the facets
are the extreme rays of the cone of valid inequalities, each with its
zero-slack points as a bitmask, which gives the vertices and the incidence
in the same pass.  That is all the sophistication needed at desk scale
(dimension <= 6, <= 50 vertices).

All types are immutable values, built with their integer vertex table and,
when full-dimensional, their facets and incidence; a Polytope holds no lazy
state.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, islice
from math import gcd, lcm
from operator import and_, not_

from .errors import (
    EmptyInput,
    HullTooLarge,
    IdentityViolated,
    MixedDimensions,
    NoLatticePoints,
    NonpositiveScale,
    NotFullDimensional,
    OriginNotInterior,
)
from .linalg import (
    _echelon,
    _homogenized,
    _int_normal,
    _int_rank,
    _residue_count,
    _scaled,
    diagonalize,
    dot,
    solve_unique,
    vec_add,
    vec_scale,
    vec_sub,
)

Point = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

# Most facets the hull may hold at once.  Intermediate counts depend on the
# insertion order; a cyclic 6-polytope with 50 vertices has 17250 facets.
HULL_RAY_LIMIT = 10 ** 5


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' exactly; floats and anything else are rejected."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError("not an exact rational literal: %r" % (text,))
    return Fraction(text.strip())


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def as_point(coords) -> Point:
    return tuple(Fraction(c) for c in coords)


def point_denominator(p: Point) -> int:
    return lcm(*(c.denominator for c in p)) if p else 1


@dataclass(frozen=True, order=True)
class Halfspace:
    """Inequality normal . x <= offset with gcd(normal entries, offset) == 1."""

    normal: tuple[int, ...]
    offset: int

    def slack(self, x):
        """offset - normal . x, an int for an integer point x and a Fraction
        otherwise; nonnegative on the polytope, zero on the facet."""
        if len(x) != len(self.normal):
            raise MixedDimensions("point has wrong dimension for this halfspace")
        return self.offset - dot(self.normal, x)

    def to_json_dict(self) -> dict:
        return {"normal": [str(a) for a in self.normal], "offset": str(self.offset)}


def _facet_table(rows, masks):
    """(facets, incidence) from integer rows (*normal, offset), made primitive,
    and the vertex bitmask of each row, sorted on the rows."""
    rows = (tuple(a // g for a in r) for r in rows for g in [gcd(*r)])
    return tuple(zip(*((Halfspace(r[:-1], r[-1]), m) for r, m in sorted(zip(rows, masks)))))


def _facet_plane(rows, inside, weight):
    """Primitive integer (normal, offset) of the hyperplane through the d
    integer points `rows`, oriented so that normal . inside < weight * offset."""
    base = rows[0]
    normal = _int_normal([vec_sub(r, base) for r in rows[1:]], len(base))
    offset = dot(normal, base)
    side = dot(normal, inside) - weight * offset
    if side == 0:
        raise ValueError("orientation reference lies on the hyperplane")
    if side > 0:
        normal, offset = tuple(-a for a in normal), -offset
    return normal, offset


def _affine_basis(ints):
    """Indices of a maximal affinely independent set of integer points: ints[0],
    then each point independent of those before it.  They are the pivot
    columns of one echelon of the differences from ints[0], as columns."""
    base = ints[0]
    pivots = _echelon([[w[c] - base[c] for w in ints[1:]] for c in range(len(base))])[1]
    return [0] + [c + 1 for c in pivots]


def _adjacent(common, masks, d) -> bool:
    """Whether two extreme rays whose tight sets meet in `common` are adjacent
    in a cone of dimension d + 1 with tight sets `masks`: they share at least
    d - 1 points and no third ray is tight on all of them (Fukuda and Prodon,
    "Double description method revisited", 1996)."""
    if common.bit_count() < d - 1:
        return False
    through = (m for m in masks if m & common == common)
    return next(islice(through, 2, None), None) is None


def _hull_full_dim(ints, d: int, simplex=None, scale: int = 1):
    """Double-description hull of sorted distinct integer points spanning R^d.

    Returns (rows, (facets, incidence)): the extreme points and the facets of
    the points over `scale`, both sorted, and per facet the bitmask of its
    vertices (bit k for rows[k]).  The facets are the extreme rays (normal,
    offset, tight set) of the cone of inequalities normal . w <= offset on the
    points.  From `simplex` (default _affine_basis's) on, each point keeps the
    rays it satisfies and adds one per adjacent pair on either side of it.  A
    ray must hold on every point, be tight exactly on its tight set, and have
    tight vertices of rank d, read against the simplex.
    """
    simplex = simplex or _affine_basis(ints)
    if len(simplex) != d + 1:
        raise ValueError("points do not span the ambient space")
    inside = tuple(sum(ints[i][c] for i in simplex) for c in range(d))  # (d+1) * centroid
    # rays are (normal, offset, tight set); base[t] is the facet opposite simplex[t]
    rays = base = [(*_facet_plane([ints[j] for j in simplex if j != i], inside, d + 1),
                    sum(1 << j for j in simplex if j != i)) for i in simplex]
    for ip, p in enumerate(ints):
        if ip in simplex:
            continue
        signed = [(dot(n, p) - o, (n, o, m)) for n, o, m in rays]
        masks = [m for _, _, m in rays]
        rays = [(n, o, m if s else m | 1 << ip) for s, (n, o, m) in signed if s <= 0]
        minus = [(s, ray) for s, ray in signed if s < 0]
        for s1, (n1, o1, m1) in [(s, ray) for s, ray in signed if s > 0]:
            for s2, (n2, o2, m2) in minus:
                if _adjacent(m1 & m2, masks, d):
                    if len(rays) >= HULL_RAY_LIMIT:
                        raise HullTooLarge("hull passed %d intermediate facets" % HULL_RAY_LIMIT)
                    # the positive combination of the pair that is tight at p
                    row = [s1 * b - s2 * a for a, b in zip(n1 + (o1,), n2 + (o2,))]
                    g = gcd(*row)
                    rays.append((tuple(a // g for a in row[:-1]), row[-1] // g, m1 & m2 | 1 << ip))

    bits = [1 << i for i in range(len(ints))]
    slacks = [[o - dot(n, w) for w in ints] for n, o, _ in rays]
    if min(map(min, slacks)) < 0:
        raise IdentityViolated("hull misses an input point")
    if any(sum(compress(bits, map(not_, row))) != m for row, (_, _, m) in zip(slacks, rays)):
        raise IdentityViolated("hull facet's bitmask is not its zero-slack set")
    # a point is a vertex exactly when the facets through it meet in it alone
    index = [i for i, b in enumerate(bits)
             if reduce(and_, (m for _, _, m in rays if m & b), -1) == b]
    # A facet's tight vertices have rank d homogenized: in the slacks of the
    # simplex's facets, where simplex[t] is a multiple of unit row t, the k simplex
    # vertices on it plus the rank of the others' slacks opposite the rest (k = d: none).
    kept = sum(bits[j] for j in simplex if j in index)
    base = [([o - dot(n, w) for w in ints], kept & bits[j]) for (n, o, _), j in zip(base, simplex)]
    if any((k := (m & kept).bit_count()) != d and (k > d or d != k + _int_rank(
            [[r[i] for i in index if m & ~kept & bits[i]] for r, b in base if not m & b]))
           for _, _, m in rays):
        raise IdentityViolated("hull facet is not spanned by its tight vertices")
    # n . x <= o / L is the integer row (L n, o)
    return [ints[i] for i in index], _facet_table(
        (vec_scale(scale, n) + (o,) for n, o, _ in rays),
        (sum(1 << k for k, i in enumerate(index) if m >> i & 1) for _, _, m in rays))


@dataclass(frozen=True)
class Polytope:
    """Rational polytope given by its extreme points.

    vertices are lexicographically sorted and irredundant; denominator_q is
    the least positive integer q with q * (every vertex) integral.  A
    full-dimensional polytope is built with its facets and the vertex-facet
    incidence: per facet a bitmask, bit i for vertices[i], and every polytope
    with its integer vertex table (q, the rows q·v).
    """

    vertices: tuple[Point, ...]
    ambient_dim: int
    dim: int
    denominator_q: int
    # (facets, incidence) when full-dimensional, else None; derived from the vertices
    _hull: tuple | None = field(default=None, compare=False, repr=False)
    _int_vertices: tuple | None = field(default=None, compare=False, repr=False)

    def _facet_data(self):
        if self._hull is None:
            raise NotFullDimensional(
                "facet description needs dim == ambient_dim (%d != %d); "
                "project to the affine hull first" % (self.dim, self.ambient_dim))
        return self._hull

    @property
    def facets(self) -> tuple[Halfspace, ...]:
        return self._facet_data()[0]

    @property
    def _incidence(self) -> tuple[int, ...]:
        return self._facet_data()[1]

    def _int_slacks(self, u, ell) -> list[int]:
        """ell times the slack of u / ell on each facet: ell·offset - normal·u."""
        return [ell * hs.offset - dot(hs.normal, u) for hs in self.facets]

    @property
    def is_lattice(self) -> bool:
        return self.denominator_q == 1

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_dim

    def __str__(self) -> str:
        kind = "lattice" if self.is_lattice else "rational (q=%d)" % self.denominator_q
        return "%d-dimensional %s polytope with %d vertices in R^%d" % (
            self.dim, kind, len(self.vertices), self.ambient_dim)

    def to_json_dict(self) -> dict:
        return {"vertices": [[format_rational(c) for c in v] for v in self.vertices]}


def _polytope(verts, ambient: int, dim: int, hull=None, scaled=None) -> Polytope:
    """The Polytope on the sorted vertices verts, with its hull's (facets,
    incidence) when full-dimensional; `scaled` is (L, rows L·v), any L."""
    scale, rows = scaled or _scaled(verts)
    g = gcd(scale, *chain.from_iterable(rows))  # q = L / g
    return Polytope(verts, ambient, dim, scale // g, hull,
                    (scale // g, [tuple(a // g for a in w) for w in rows]))


def build_polytope(points) -> Polytope:
    """Convex hull of the given rational points, as a Polytope value.

    Interior and otherwise redundant points are dropped; dimension and
    denominator are computed.  Lower-dimensional input is accepted (the hull
    runs in a chart of the affine hull), but facet-based operations will
    refuse it later.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise EmptyInput("need at least one point")
    ambient = len(pts[0])
    if ambient == 0 or any(len(p) != ambient for p in pts):
        raise MixedDimensions("points must share a positive ambient dimension")
    scale, ints = _scaled(pts)
    point_of = dict(zip(ints, pts))
    ints = sorted(point_of)
    basis = _affine_basis(ints)
    dim = len(basis) - 1

    if dim == 0:
        return _polytope((pts[0],), ambient, dim)
    if dim == ambient:
        rows, hull = _hull_full_dim(ints, ambient, basis, scale)
        return _polytope(tuple(map(point_of.get, rows)), ambient, dim, hull, (scale, rows))
    columns = list(zip(*(vec_sub(ints[j], ints[0]) for j in basis[1:])))
    chart = dict(zip(_scaled([solve_unique(columns, vec_sub(w, ints[0])) for w in ints])[1], ints))
    rows = sorted(map(chart.get, _hull_full_dim(sorted(chart), dim)[0]))
    return _polytope(tuple(map(point_of.get, rows)), ambient, dim)


def contains(P: Polytope, x, mode: str = "closed") -> bool:
    """Exact membership test against the facet inequalities, in integers."""
    x = as_point(x)
    if len(x) != P.ambient_dim:
        raise MixedDimensions("query point has wrong dimension")
    if mode not in ("closed", "interior", "boundary"):
        raise ValueError("mode must be closed, interior or boundary")
    ell, (u,) = _scaled([x])
    least = min(P._int_slacks(u, ell))
    return {"closed": least >= 0, "interior": least > 0, "boundary": least == 0}[mode]


def dilate(P: Polytope, t) -> Polytope:
    """Scale by the positive rational t about the origin."""
    t = Fraction(t)
    if t <= 0:
        raise NonpositiveScale("dilation factor must be positive, got %s" % t)
    verts = tuple(sorted(vec_scale(t, v) for v in P.vertices))
    return _polytope(verts, P.ambient_dim, P.dim, P._hull and _facet_table(
        (vec_scale(t.denominator, hs.normal) + (t.numerator * hs.offset,) for hs in P.facets),
        P._incidence))


def translate(P: Polytope, v) -> Polytope:
    v = as_point(v)
    if len(v) != P.ambient_dim:
        raise MixedDimensions("translation vector has wrong dimension")
    verts = tuple(sorted(vec_add(p, v) for p in P.vertices))
    den, (u,) = _scaled([v])
    return _polytope(verts, P.ambient_dim, P.dim, P._hull and _facet_table(
        (vec_scale(den, hs.normal) + (den * hs.offset + dot(hs.normal, u),) for hs in P.facets),
        P._incidence))


def dual(P: Polytope) -> Polytope:
    """Polar dual {x : x . y <= 1 for all y in P}; needs the origin interior."""
    origin = as_point([0] * P.ambient_dim)
    if not contains(P, origin, "interior"):
        raise OriginNotInterior("dual polytope needs the origin strictly inside")
    duals = [tuple(Fraction(a, hs.offset) for a in hs.normal) for hs in P.facets]
    return build_polytope(duals)


def project_to_affine_hull(P: Polytope) -> Polytope:
    """Rewrite P in integer-unimodular coordinates on its affine hull.

    The chart identifies aff(P) with R^dim so that lattice points correspond
    to lattice points, which keeps all Ehrhart data intact.  Raises
    NoLatticePoints when aff(P) misses the integer lattice entirely (then no
    such chart can exist).
    """
    if P.is_full_dimensional:
        return P
    if P.dim == 0:
        raise NoLatticePoints("a single point has no positive-dimensional chart")

    # integer spanning rows of the homogenized affine hull
    basis = [_homogenized(P.vertices[i]) for i in _affine_basis(_scaled(P.vertices)[1])]
    r = len(basis)  # == dim + 1

    # U*B*V = D gives B*V = U^-1 * D: the first r columns of U^-1, a basis of
    # the saturation (Cohen 1993, section 2.4), are those of B*V over diag
    B = list(zip(*basis))  # (d+1) x r, full column rank
    diag, V = diagonalize(B)
    sat = []
    for dj, vj in zip(diag, zip(*V)):
        column = [dot(row, vj) for row in B]
        if any(x % dj for x in column):
            raise IdentityViolated("column of B*V is not divisible by its diagonal entry")
        sat.append([x // dj for x in column])
    if _residue_count(sat) != 1:
        raise IdentityViolated("chart basis is not saturated")

    # gcd-eliminate last coordinates until exactly one basis vector keeps one
    while True:
        nonzero = [j for j in range(r) if sat[j][-1] != 0]
        if len(nonzero) <= 1:
            break
        j0 = min(nonzero, key=lambda j: abs(sat[j][-1]))
        for j in nonzero:
            if j != j0:
                q = sat[j][-1] // sat[j0][-1]
                sat[j] = [a - q * b for a, b in zip(sat[j], sat[j0])]
    k = next(j for j in range(r) if sat[j][-1] != 0)
    if abs(sat[k][-1]) != 1:
        raise NoLatticePoints("affine hull contains no lattice points")
    base = sat[k] if sat[k][-1] == 1 else [-a for a in sat[k]]
    directions = [sat[j][:-1] for j in range(r) if j != k]

    columns = list(zip(*directions))  # d x (r-1)
    charted = []
    for v in P.vertices:
        rhs = vec_sub(v, as_point(base[:-1]))
        charted.append(solve_unique(columns, rhs))
    return build_polytope(charted)


# -- JSON interchange -----------------------------------------------------------

def polytope_from_json_dict(data) -> Polytope:
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("polytope JSON needs a 'vertices' key")
    rows = data["vertices"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("'vertices' must be a list of coordinate lists")
    points = []
    for row in rows:
        coords = []
        for entry in row:
            if isinstance(entry, (bool, float)):
                raise ValueError("floats and booleans are not accepted; use 'p/q' strings")
            coords.append(parse_rational(entry))
        points.append(coords)
    return build_polytope(points)


def load_polytope(path: str) -> Polytope:
    with open(path, "r", encoding="utf-8") as fh:
        return polytope_from_json_dict(json.load(fh))
