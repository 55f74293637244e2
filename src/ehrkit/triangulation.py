"""Half-open triangulations: facet pulling, coning and visibility.

One path cuts P into half-open cells: triangulate each facet whose hyperplane
misses an apex by pulling, cone the pieces over the apex, then pick a generic
point y and remove from every cell the facets visible from y: the facet
opposite vertex i when y's barycentric coordinate i is negative, which one
exact solve per cell decides (y is generic when no coordinate is zero).  That
turns the cover into a genuine partition with exactly one closed cell, which
is what makes constant terms add up correctly downstream.  h* uses the
lexicographically smallest vertex as apex; boundary h* and the b-route use an
interior point x, over which every facet is pulled and the cells without x
partition the boundary.  The pulled pieces stay index tuples over P's integer
vertex table until their masks are known, so each cell is built once, with
its final mask, and each boundary cell once from its cone cell; a report
pulls both of its cones through one memo, so it pulls each face once.

Pulling works on the face lattice that the hull's vertex-facet incidence, one
vertex bitmask per facet, already gives: every face is coned from its
lexicographically smallest vertex, its lowest bit, and none is re-hulled.

Everything is deterministic: vertex orderings are lexicographic and the
generic point comes from one fixed perturbation schedule, verified exactly
and retried with a finer step on failure; each ConeTriangulation keeps the y
its masks were read at.  Callers that want another generic point pass y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, prod

from .errors import (
    ENUMERATION_LIMIT,
    AffinelyDependent,
    BoundExceeded,
    BoxTooLarge,
    ExhaustedRetries,
    IdentityViolated,
    MixedDimensions,
    NotGeneric,
)
# build_polytope is unused here but stays bound: perfbench's tracing test reads it at this name.
from .geometry import (Point, Polytope, as_point, build_polytope, contains,  # noqa: F401
                       format_rational)
from .linalg import (_echelon, _homogenized, _kernel, _residue_count, dot, solve_unique,
                     vec_add, vec_scale)


@dataclass(frozen=True)
class HalfOpenSimplex:
    """Simplex with a mask of removed facets; facet i is opposite vertices[i].

    A True mask entry removes the facet opposite that vertex, i.e. forces the
    barycentric coordinate of that vertex to stay strictly positive.  Its
    independence check also gives `_count`, the residue count of the columns.
    """

    vertices: tuple[Point, ...]
    missing: tuple[bool, ...]
    # per vertex v, the integer column (L·v, L), L v's denominator; pipeline cells pass P's
    _columns: tuple[tuple[int, ...], ...] = field(default=None, repr=False, compare=False)
    _count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.vertices) != len(self.missing):
            raise ValueError("mask length must equal vertex count")
        if len({len(v) for v in self.vertices}) > 1:
            raise MixedDimensions("simplex vertices have different dimensions")
        columns = self._columns or tuple(map(_homogenized, self.vertices))
        count = _residue_count(columns)
        if count is None:
            raise AffinelyDependent("simplex vertices are affinely dependent")
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_count", count)

    @staticmethod
    def closed(vertices) -> "HalfOpenSimplex":
        vs = tuple(as_point(v) for v in vertices)
        return HalfOpenSimplex(vs, (False,) * len(vs))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_closed(self) -> bool:
        return not any(self.missing)

    @property
    def missing_count(self) -> int:
        return sum(self.missing)

    def barycentric(self, x: Point):
        """Barycentric coordinates of x, or None when x is off the affine span."""
        if len(x) != len(self.vertices[0]):
            raise MixedDimensions("query point has wrong dimension")
        return solve_unique(list(zip(*(v + (1,) for v in self.vertices))), tuple(x) + (1,))

    def contains(self, x) -> bool:
        """Half-open membership: lambda_i >= 0, strictly so on missing facets."""
        coords = self.barycentric(as_point(x))
        if coords is None:
            return False
        return all(c > 0 if miss else c >= 0
                   for c, miss in zip(coords, self.missing))


@dataclass(frozen=True)
class BoundaryTriangulation:
    """Disjoint half-open triangulation of the boundary, one closed cell."""

    simplices: tuple[HalfOpenSimplex, ...]
    parent: Polytope

    def __post_init__(self):
        closed = sum(1 for s in self.simplices if s.is_closed)
        if closed != 1:
            raise ValueError("expected exactly one closed simplex, found %d" % closed)


@dataclass(frozen=True)
class ConeTriangulation:
    """Half-open cells coned over apex, masked by visibility from the generic point y."""

    apex: Point
    cells: tuple[HalfOpenSimplex, ...]
    parent: Polytope
    y: Point


def _pull_face(face, incidence, pulled):
    """Pulling triangulation of a face, a vertex bitmask, as index tuples: the
    lex-min vertex, its lowest bit, coned over the pulled facets of the face
    that miss it.  The facets of a face are its maximal proper intersections
    with the masks in `incidence`; `pulled` memoizes the faces pulled."""
    low = face & -face
    if face == low:
        return [(low.bit_length() - 1,)]
    meets = {face & F for F in incidence} - {face}
    pieces = []
    for G in meets:
        if not G & low and not any(G & H == G != H for H in meets):
            if G not in pulled:
                pulled[G] = _pull_face(G, incidence, pulled)
            pieces += [(low.bit_length() - 1,) + piece for piece in pulled[G]]
    return pieces


def _apex(P: Polytope, apex):
    """apex = u / ell as the homogenized column (u, ell), and q·ell times its
    slack on each facet of P; ValueError when apex is outside P."""
    if not contains(P, apex):
        raise ValueError("apex must lie in P")
    column = _homogenized(apex)
    return column, P._int_slacks(column[:-1], column[-1])


def _pull_facets(P: Polytope, apex=None, pulled=None) -> list[tuple[int, ...]]:
    """Pulling triangulations of the facets of P whose hyperplane misses the
    point apex of P (every facet when apex is None), as sorted ascending index
    tuples into P.vertices, which sort as their point tuples would.

    Each face, a vertex bitmask, is pulled once per memo `pulled` (a fresh one
    per call by default), so a second call through the same memo pulls only
    the faces the first did not reach."""
    pulled = {} if pulled is None else pulled
    slacks = [1] * len(P._incidence) if apex is None else _apex(P, apex)[1]
    pieces = []
    for F, slack in zip(P._incidence, slacks):
        if slack:
            if F not in pulled:
                pulled[F] = _pull_face(F, P._incidence, pulled)
            pieces += pulled[F]
    return sorted(pieces)


def triangulate_boundary(P: Polytope) -> list[HalfOpenSimplex]:
    """Closed (d-1)-simplices covering the boundary, using only vertices of P."""
    return [HalfOpenSimplex.closed([P.vertices[i] for i in piece]) for piece in _pull_facets(P)]


def pyramid(x, S: HalfOpenSimplex) -> HalfOpenSimplex:
    """Cone S over an apex x off its affine span; the facet opposite x is present."""
    return HalfOpenSimplex(S.vertices + (as_point(x),), S.missing + (False,))


def _visible(cell, y):
    """Mask of the facets of a cell (homogenized integer columns) visible from
    y = Y/D, given as (Y, D): True where the kernel of (columns | (Y, D)) has
    the sign of its last entry, i.e. y's barycentric coordinate is negative."""
    n = len(cell)
    if n != len(y) or len(cell[0]) != n:
        raise ValueError("cone cells must be full-dimensional simplices in P's space")
    m, pivots, _ = _echelon(list(zip(*cell, y)))
    if len(pivots) != n or pivots[-1] != n - 1:
        raise AffinelyDependent("cone cell vertices are affinely dependent")
    kernel = _kernel(m, pivots, n + 1)
    if 0 in kernel:
        return None
    return tuple(k * kernel[n] > 0 for k in kernel[:n])


def _visibility(cells, y: Point):
    """Per cell (homogenized integer columns), the mask of facets visible
    from the point y; None when y lies on some cell hyperplane."""
    Y = _homogenized(y)
    masks = [_visible(cell, Y) for cell in cells]
    return None if None in masks else masks


def _generic_point(P: Polytope, apex: Point, cells):
    """A rational interior point y of P off every hyperplane of the cells
    (homogenized integer columns) of a cone over apex, with their visibility
    masks.  y starts from the apex (the vertex centroid when the apex is on
    the boundary) and moves by eps^(i+1) along coordinate i; genericity is
    verified exactly, with 32 tries that halve eps from 1/64."""
    if not cells:
        raise ValueError("cone triangulation has no cells")
    d = P.ambient_dim
    base = apex
    if not contains(P, base, "interior"):
        base = vec_scale(Fraction(1, len(P.vertices)),
                         [sum(v[c] for v in P.vertices) for c in range(d)])
    for attempt in range(32):
        eps = Fraction(1, 64 * 2 ** attempt)
        y = vec_add(base, [eps ** (i + 1) for i in range(d)])
        if contains(P, y, "interior") and (masks := _visibility(cells, y)) is not None:
            return y, masks
    raise ExhaustedRetries("no generic point found after 32 refinements")


def _half_open(P: Polytope, pieces, apex, y=None, points=None) -> ConeTriangulation:
    """The pieces, index tuples into `points` (P's vertices, then any other
    point), coned over the point apex of P, each cell built once with the
    facets visible from y (default: _generic_point's) removed."""
    apex, points = as_point(apex), P.vertices if points is None else points
    q, rows = P._int_vertices
    columns = [tuple(a // g for a in w + (q,)) for w in rows for g in [gcd(q, *w)]]
    columns += map(_homogenized, points[len(rows):])
    top = _apex(P, apex)[0]
    cells = [tuple(columns[i] for i in piece) + (top,) for piece in pieces]
    if y is None:
        y, masks = _generic_point(P, apex, cells)
    else:
        y = as_point(y)
        masks = _visibility(cells, y)
        if masks is None:
            raise NotGeneric("point lies on a cell hyperplane")
    if any(mask[-1] for mask in masks):
        raise IdentityViolated("the facet opposite the apex is visible from y")
    return ConeTriangulation(apex, tuple(
        HalfOpenSimplex(tuple(points[i] for i in piece) + (apex,), mask, cell)
        for piece, mask, cell in zip(pieces, masks, cells)), P, y)


def _decompose(P: Polytope, pieces, apex=None, y=None, points=None):
    """half_open_decompose of the boundary pieces (index tuples into points).
    The facet opposite the apex lies in a facet of P and is never removed, so
    each cone cell's mask restricts to its boundary cell."""
    if apex is None:
        apex = find_interior_point(P)[1]
    cone = _half_open(P, pieces, apex, y, points)
    boundary = tuple(HalfOpenSimplex(cell.vertices[:-1], cell.missing[:-1], cell._columns[:-1])
                     for cell in cone.cells)
    return BoundaryTriangulation(boundary, P), cone


def half_open_cone(P: Polytope, apex) -> ConeTriangulation:
    """Half-open d-simplices partitioning P: the facets whose hyperplane misses
    the point apex of P are pulled, coned over it and masked by visibility."""
    apex = as_point(apex)
    return _half_open(P, _pull_facets(P, apex), apex)


def _index(P: Polytope, cells):
    """The cells (point tuples) as index tuples into P's vertices followed by
    every other point, in order of first appearance; returns (pieces, points)."""
    points = list(dict.fromkeys(P.vertices + tuple(v for cell in cells for v in cell)))
    index = {v: i for i, v in enumerate(points)}
    return [tuple(index[v] for v in cell) for cell in cells], points


def half_open_decompose(T, P: Polytope, y=None, apex=None):
    """Turn closed boundary cells into a disjoint half-open triangulation.

    T is a list of closed (d-1)-simplices covering the boundary.  The cells
    are coned over `apex` (default: the canonical interior point of minimal
    dilation denominator), facets visible from the generic point y are
    removed, and the masks are restricted back to the boundary cells.  Returns
    (BoundaryTriangulation, ConeTriangulation).
    """
    pieces, points = _index(P, [S.vertices for S in T])
    return _decompose(P, pieces, apex, y, points)


def _box(P: Polytope, ell: int = 1) -> list[range]:
    """The integer bounding box of ell·P, one coordinate range per axis."""
    q, rows = P._int_vertices
    return [range(-(-ell * min(col) // q), ell * max(col) // q + 1) for col in zip(*rows)]


def _box_scan(P: Polytope, ell: int = 1):
    """The integer points of ell·P's bounding box, lazily in lexicographic order,
    each paired with whether q·(normal·u) < ell·(q·offset) on every facet."""
    q = P.denominator_q
    for u in product(*_box(P, ell)):
        yield u, all(q * dot(normal, u) < ell * qoff for normal, qoff in P._int_facets)


def interior_lattice_points(P: Polytope) -> list[tuple[int, ...]]:
    """All integer points strictly inside P, in lexicographic order.

    Raises BoxTooLarge before the scan when the bounding box has more than
    ENUMERATION_LIMIT points.
    """
    size = prod(map(len, _box(P)))
    if size > ENUMERATION_LIMIT:
        raise BoxTooLarge("bounding box has %d candidate points" % size)
    return [u for u, inside in _box_scan(P) if inside]


def find_interior_point(P: Polytope):
    """Smallest positive integer ell with an interior lattice point in ell*P.

    Returns (ell, x) with x = u / ell for the lexicographically smallest such
    lattice point u.  The search cannot legitimately pass q*(d+1).  It stops
    at the first interior point and raises BoxTooLarge once it has visited
    more than ENUMERATION_LIMIT candidates over all dilates.
    """
    bound = P.denominator_q * (P.dim + 1)
    visited = 0
    for ell in range(1, bound + 1):
        for u, inside in _box_scan(P, ell):
            visited += 1
            if visited > ENUMERATION_LIMIT:
                raise BoxTooLarge("interior point search passed %d candidates"
                                  % ENUMERATION_LIMIT)
            if inside:
                return ell, tuple(Fraction(c, ell) for c in u)
    raise BoundExceeded("no interior lattice point up to dilation %d" % bound)


def triangulation_to_json_dict(cone: ConeTriangulation) -> dict:
    """Cells as vertex-index lists into a shared point pool, plus masks."""
    pieces, points = _index(cone.parent, [cell.vertices for cell in cone.cells])
    return {
        "points": [[format_rational(c) for c in v] for v in points],
        "apex": points.index(cone.apex),
        "cells": [{"vertices": list(piece), "missing": list(cell.missing)}
                  for piece, cell in zip(pieces, cone.cells)],
    }
