"""Half-open triangulations: facet pulling, coning and visibility.

One path cuts P into half-open cells: triangulate each facet whose hyperplane
misses an apex by pulling, cone the pieces over the apex, then pick a generic
point y and remove from every cell the facets visible from y: the facet
opposite vertex i when y's barycentric coordinate i is negative, which one
exact solve per cell decides (y is generic when no coordinate is zero).  That
turns the cover into a genuine partition with exactly one closed cell, which
is what makes constant terms add up correctly downstream; the same solve
gives the cell's residue count, |det| of its columns, and every boundary
cell, a caller's too, has its cone cell's count over the apex's lattice
distance to its facet (the pyramid rule), so no pipeline cell is eliminated
twice.  h* uses the lexicographically smallest vertex as apex; boundary h* and
the b-route use an interior point x, over which every facet is pulled and the
cells without x partition the boundary.  The pulled pieces stay index tuples
over P's integer vertex table until their masks are known, so each cell is
built once, with its final mask, and each boundary cell once from its cone
cell; each cone pulls its own faces.

Pulling works on the face lattice that the hull's vertex-facet incidence, one
vertex bitmask per facet, already gives: a simplex face is its own piece, any
other is coned from its lex-min vertex, its lowest bit, and none is re-hulled;
the pieces must close up at every ridge, which certifies the hull.

Everything is deterministic: vertex orderings are lexicographic and the
generic point comes from one fixed perturbation schedule, verified exactly
and retried with a finer step on failure; each ConeTriangulation keeps the y
its masks were read at.  Callers that want another generic point pass y,
which must lie in the interior of P.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd

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
from .geometry import (Point, Polytope, _box, _extremes, _sized, as_point,  # noqa: F401
                       build_polytope, format_rational)
from .linalg import _echelon, _homogenized, _kernel, _residue_count, dot, solve_unique


@dataclass(frozen=True)
class HalfOpenSimplex:
    """Simplex with a mask of removed facets; facet i is opposite vertices[i].

    A True mask entry removes the facet opposite that vertex, i.e. forces the
    barycentric coordinate of that vertex to stay strictly positive.
    `_count` is the residue count of the columns: pipeline cells pass the one
    their visibility solve or the pyramid rule found, and other cells get it
    from the Smith form of their columns after a rank check of their
    independence.
    """

    vertices: tuple[Point, ...]
    missing: tuple[bool, ...]
    # per vertex v, the integer column (L·v, L), L v's denominator; pipeline cells pass P's
    _columns: tuple[tuple[int, ...], ...] = field(default=None, repr=False, compare=False)
    _count: int = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.vertices) != len(self.missing):
            raise ValueError("mask length must equal vertex count")
        if len({len(v) for v in self.vertices}) > 1:
            raise MixedDimensions("simplex vertices have different dimensions")
        columns = self._columns or tuple(map(_homogenized, self.vertices))
        count = self._count or _residue_count(columns)
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


def _pull_face(face, dim, incidence, pulled):
    """Pulling triangulation of a face, a vertex bitmask of dimension dim, as
    index tuples: one piece for a simplex, else the lex-min vertex, its lowest
    bit, coned over the pulled facets of the face that miss it.  The facets of
    a face are its maximal proper intersections with the masks in `incidence`;
    `pulled` memoizes the faces pulled."""
    if face.bit_count() == dim + 1:
        return [tuple(i for i in range(face.bit_length()) if face >> i & 1)]
    low = face & -face
    meets = {face & F for F in incidence} - {face}
    pieces = []
    for G in meets:
        if not G & low and not any(G & H == G != H for H in meets):
            if G not in pulled:
                pulled[G] = _pull_face(G, dim - 1, incidence, pulled)
            pieces += [(low.bit_length() - 1,) + piece for piece in pulled[G]]
    return pieces


def _apex(P: Polytope, apex):
    """apex = u / ell as the homogenized column (u, ell), and ell times its
    slack on each facet of P; MixedDimensions when apex has the wrong length,
    ValueError when it is outside P."""
    column = _homogenized(as_point(apex))
    if len(column) != P.ambient_dim + 1:
        raise MixedDimensions("apex has wrong dimension")
    slacks = P._int_slacks(column[:-1], column[-1])
    if min(slacks) < 0:
        raise ValueError("apex must lie in P")
    return column, slacks


def _pull_facets(P: Polytope, slacks=None) -> list[tuple[int, ...]]:
    """Pulling triangulations of the facets of P on which an apex has nonzero
    slack, its slacks as _apex gives them (every facet when slacks is None),
    as sorted ascending index tuples into P.vertices, which sort as their
    point tuples would; each face, a vertex bitmask, is pulled once.  The
    pieces certify the hull: each ridge, a piece less one vertex, lies in two
    pieces or in one and a facet not pulled, else IdentityViolated."""
    slacks = [1] * len(P._incidence) if slacks is None else slacks
    pulled, pieces = {}, []
    for F, slack in zip(P._incidence, slacks):
        if slack:
            pieces += _pull_face(F, P.dim - 1, P._incidence, pulled)
    unpulled = [F for F, slack in zip(P._incidence, slacks) if not slack]
    masks = [sum(1 << i for i in piece) for piece in pieces]
    ridges = Counter(m ^ 1 << i for m, piece in zip(masks, pieces) for i in piece)
    for ridge, n in ridges.items():
        if n != 2 and not (n == 1 and any(ridge & F == ridge for F in unpulled)):
            raise IdentityViolated("pulled pieces do not close up: a ridge lies in %d of them" % n)
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
    the sign of its last entry, i.e. y's barycentric coordinate is negative;
    with the cell's residue count, |det| of its columns, which is the last
    pivot because (Y, D) comes after them.  None when y is on a cell hyperplane."""
    n = len(cell)
    if n != len(y) or len(cell[0]) != n:
        raise ValueError("cone cells must be full-dimensional simplices in P's space")
    m, pivots, _ = _echelon(list(zip(*cell, y)))
    if len(pivots) != n or pivots[-1] != n - 1:
        raise AffinelyDependent("cone cell vertices are affinely dependent")
    kernel = _kernel(m, pivots, n + 1)
    if 0 in kernel:
        return None
    return tuple(k * kernel[n] > 0 for k in kernel[:n]), abs(m[n - 1][n - 1])


def _visibility(cells, Y):
    """Per cell (homogenized integer columns), the mask of facets visible
    from the point with homogenized integer column Y and its count; None when
    the point lies on some cell hyperplane."""
    seen = [_visible(cell, Y) for cell in cells]
    return None if None in seen else seen


def _generic_point(P: Polytope, top, cells):
    """The homogenized integer column Y of an interior point y of P off every
    hyperplane of the cells (homogenized integer columns) of a cone over the
    apex with column top, with their visibility masks and counts.  y starts
    from the apex, or the vertex centroid when the apex is on the boundary,
    and moves by E^-(i+1) along coordinate i, E doubling from 64; genericity
    is verified exactly on at most 32 points inside P.  Points outside P are
    skipped: y nears the base, inside P, however thin P is.  Base (b, t) makes
    Y_i = b_i·E^d + t·E^(d-1-i) over D = t·E^d, reduced by their gcd."""
    if not cells:
        raise ValueError("cone triangulation has no cells")
    d = P.ambient_dim
    base, t = top[:-1], top[-1]
    if min(P._int_slacks(base, t)) <= 0:
        q, rows = P._int_vertices
        base, t = [sum(col) for col in zip(*rows)], q * len(rows)
        if min(P._int_slacks(base, t)) <= 0:
            raise IdentityViolated("the vertex centroid is not interior to P")
    E, tries = 64, 0
    while tries < 32:
        Y = [b * E ** d + t * E ** (d - 1 - i) for i, b in enumerate(base)] + [t * E ** d]
        g = gcd(*Y)
        Y = tuple(a // g for a in Y)
        if min(P._int_slacks(Y[:-1], Y[-1])) > 0:
            if (seen := _visibility(cells, Y)) is not None:
                return Y, seen
            tries += 1
        E *= 2
    raise ExhaustedRetries("no generic point found in 32 tries inside P")


def _half_open(P: Polytope, pieces, apex, top, y=None, points=None) -> ConeTriangulation:
    """The pieces, index tuples into `points` (P's vertices, then any other
    point), coned over the point apex of P, whose column top is _apex's, each
    cell built once with the facets visible from y (default:
    _generic_point's) removed and its count."""
    apex, points = as_point(apex), P.vertices if points is None else points
    q, rows = P._int_vertices
    columns = [tuple(a // g for a in w + (q,)) for w in rows for g in [gcd(q, *w)]]
    columns += map(_homogenized, points[len(rows):])
    cells = [tuple(columns[i] for i in piece) + (top,) for piece in pieces]
    if y is None:
        Y, seen = _generic_point(P, top, cells)
    else:
        Y = _homogenized(as_point(y))
        if len(Y) != len(top):
            raise MixedDimensions("query point has wrong dimension")
        if min(P._int_slacks(Y[:-1], Y[-1])) <= 0:
            raise ValueError("y must lie in the interior of P")
        seen = _visibility(cells, Y)
        if seen is None:
            raise NotGeneric("point lies on a cell hyperplane")
    y = tuple(Fraction(a, Y[-1]) for a in Y[:-1])
    if any(mask[-1] for mask, _ in seen):
        raise IdentityViolated("the facet opposite the apex is visible from y")
    return ConeTriangulation(apex, tuple(
        HalfOpenSimplex(tuple(points[i] for i in piece) + (apex,), mask, cell, count)
        for piece, (mask, count), cell in zip(pieces, seen, cells)), P, y)


def _decompose(P: Polytope, pieces, apex, y=None, points=None):
    """half_open_decompose of the boundary pieces (index tuples into points).
    The facet opposite the apex lies in a facet of P and is never removed, so
    each cone cell's mask restricts to its boundary cell.  Each boundary cell
    has its cone cell's count over the apex's lattice distance, its slack, to
    a facet that holds all of its points (the pyramid rule): a vertex's facets
    are its incidence bits, any other point's those where its slack is zero."""
    top, slacks = _apex(P, apex)
    cone = _half_open(P, pieces, apex, top, y, points)
    incidence, n = P._incidence, len(P.vertices)
    for k, u in enumerate(map(_homogenized, points[n:] if points else ()), n):
        incidence = [F | (not s) << k for F, s in zip(incidence, P._int_slacks(u[:-1], u[-1]))]
    boundary = []
    for piece, cell in zip(pieces, cone.cells):
        bits = sum(1 << i for i in piece)
        height = next((s for F, s in zip(incidence, slacks) if F & bits == bits), None)
        if height is None:
            raise ValueError("boundary cell lies in no facet of P")
        count, rest = divmod(cell._count, height)
        if rest:
            raise IdentityViolated("facet distance does not divide the cone count")
        boundary.append(HalfOpenSimplex(cell.vertices[:-1], cell.missing[:-1],
                                        cell._columns[:-1], count))
    return BoundaryTriangulation(tuple(boundary), P), cone


def half_open_cone(P: Polytope, apex) -> ConeTriangulation:
    """Half-open d-simplices partitioning P: the facets whose hyperplane misses
    the point apex of P are pulled, coned over it and masked by visibility."""
    top, slacks = _apex(P, apex)
    return _half_open(P, _pull_facets(P, slacks), apex, top)


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
    if apex is None:
        apex = find_interior_point(P)[1]
    return _decompose(P, pieces, apex, y, points)


def _box_scan(P: Polytope, ell: int = 1):
    """The integer points of ell·P's bounding box, lazily in lexicographic order,
    each paired with whether normal·u < ell·offset on every facet."""
    rows = [(hs.normal, ell * hs.offset) for hs in P.facets]
    lows, highs = _box(_extremes(P._int_vertices), ell)
    for u in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        yield u, all(dot(normal, u) < bound for normal, bound in rows)


def interior_lattice_points(P: Polytope) -> list[tuple[int, ...]]:
    """All integer points strictly inside P, in lexicographic order.

    Raises BoxTooLarge before the scan when the bounding box has more than
    ENUMERATION_LIMIT points.
    """
    _sized(_extremes(P._int_vertices), 1)
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
