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
partition the boundary.  The pulled pieces stay vertex tuples until their
masks are known, so each cell is built once, with its final mask, and each
boundary cell once from its cone cell; a report pulls both of its cones
through one memo, so it pulls each face once.

Pulling works on the face lattice that the hull's vertex-facet incidence
already gives: every face, at every level of the recursion, is coned from its
lexicographically smallest vertex, and no face is charted or re-hulled.

Everything is deterministic: vertex orderings are lexicographic and the
generic point comes from a fixed perturbation schedule that is verified
exactly and retried with a finer step on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, prod

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
                       dilate, format_rational)
from .linalg import _int_rank, _scaled, solve_unique, vec_add, vec_scale, vec_sub


@dataclass(frozen=True)
class HalfOpenSimplex:
    """Simplex with a mask of removed facets; facet i is opposite vertices[i].

    A True mask entry removes the facet opposite that vertex, i.e. forces the
    barycentric coordinate of that vertex to stay strictly positive.
    """

    vertices: tuple[Point, ...]
    missing: tuple[bool, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.missing):
            raise ValueError("mask length must equal vertex count")
        if len({len(v) for v in self.vertices}) > 1:
            raise MixedDimensions("simplex vertices have different dimensions")
        _, rows = _scaled(self.vertices)
        if _int_rank([vec_sub(r, rows[0]) for r in rows[1:]]) != len(rows) - 1:
            raise AffinelyDependent("simplex vertices are affinely dependent")

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
        return _barycentric(self.vertices, x)

    def contains(self, x) -> bool:
        """Half-open membership: lambda_i >= 0, strictly so on missing facets."""
        coords = self.barycentric(as_point(x))
        if coords is None:
            return False
        return all(c > 0 if miss else c >= 0
                   for c, miss in zip(coords, self.missing))

    def to_json_dict(self, pool: dict[Point, int]) -> dict:
        return {"vertices": [pool[v] for v in self.vertices],
                "missing": list(self.missing)}


def _barycentric(vertices, x: Point):
    """Barycentric coordinates of x, or None when x is off the affine span
    of vertices; ValueError when dependent vertices span x."""
    if len(x) != len(vertices[0]):
        raise MixedDimensions("query point has wrong dimension")
    columns = list(zip(*(tuple(v) + (1,) for v in vertices)))
    return solve_unique(columns, tuple(x) + (1,))


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
    apex: Point
    cells: tuple[HalfOpenSimplex, ...]
    parent: Polytope


def _pull_face(face, incidence, pulled):
    """Pulling triangulation of a face, given as its vertex set: the lex-min
    vertex coned over the pulled facets of the face that miss it.  The facets
    of a face are its maximal proper intersections with the sets in
    `incidence`; `pulled` memoizes the faces already pulled."""
    if len(face) == 1:
        return [tuple(face)]
    meets = {face & F for F in incidence} - {face}
    low = min(face)
    pieces = []
    for G in meets:
        if low not in G and not any(G < H for H in meets):
            if G not in pulled:
                pulled[G] = _pull_face(G, incidence, pulled)
            pieces += [(low,) + piece for piece in pulled[G]]  # low precedes all of G
    return pieces


def _pull_facets(P: Polytope, apex=None, pulled=None) -> list[tuple[Point, ...]]:
    """Pulling triangulations of the facets of P whose hyperplane misses apex
    (every facet when apex is None), as sorted vertex tuples in sorted order.

    A face is its vertex set, read off the vertex-facet incidence of P.  Each
    face, facets included, is pulled once per memo `pulled` (a fresh one per
    call by default), so a second call through the same memo pulls only the
    faces the first did not reach."""
    pulled = {} if pulled is None else pulled
    pieces = []
    for hs, F in zip(P.facets, P._incidence):
        # a facet holding apex as a vertex meets it, with no slack to compute
        if apex is None or (apex not in F and hs.slack(apex) != 0):
            if F not in pulled:
                pulled[F] = _pull_face(F, P._incidence, pulled)
            pieces += pulled[F]
    return sorted(pieces)


def triangulate_boundary(P: Polytope) -> list[HalfOpenSimplex]:
    """Closed (d-1)-simplices covering the boundary, using only vertices of P."""
    return [HalfOpenSimplex.closed(piece) for piece in _pull_facets(P)]


def pyramid(x, S: HalfOpenSimplex) -> HalfOpenSimplex:
    """Cone S over an apex x off its affine span; the facet opposite x is present."""
    return HalfOpenSimplex(S.vertices + (as_point(x),), S.missing + (False,))


def _visibility(cells, y: Point):
    """Per cell, given as its vertex tuple, the mask of facets visible from y:
    True where y's barycentric coordinate is negative.  None when y lies on
    some cell hyperplane, i.e. a coordinate is zero."""
    masks = []
    for cell in cells:
        if len(cell) != len(y) + 1:
            raise ValueError("cone cells must be full-dimensional simplices")
        try:
            coords = _barycentric(cell, y)
        except ValueError:  # dependent vertices whose span holds y
            coords = None
        if coords is None:  # the system is square, so only a degenerate cell fails
            raise AffinelyDependent("cone cell vertices are affinely dependent")
        if 0 in coords:
            return None
        masks.append(tuple(c < 0 for c in coords))
    return masks


def pick_generic_point(Tprime: ConeTriangulation, seed: int = 0) -> Point:
    """Deterministic rational interior point off every cell hyperplane.

    Starts from the apex (or the vertex centroid when the apex sits on the
    boundary) and perturbs along a power schedule epsilon, epsilon^2, ... in
    the coordinate directions; genericity is verified exactly and the step is
    halved up to 32 times.
    """
    cells = [cell.vertices for cell in Tprime.cells]
    return _generic_point(Tprime.parent, Tprime.apex, cells, seed)[0]


def _generic_point(P: Polytope, apex: Point, cells, seed: int):
    """pick_generic_point's y for the cells (vertex tuples) of a cone over
    apex, together with their visibility masks."""
    if not cells:
        raise ValueError("cone triangulation has no cells")
    d = P.ambient_dim
    base = apex
    if not contains(P, base, "interior"):
        base = vec_scale(Fraction(1, len(P.vertices)),
                         [sum(v[c] for v in P.vertices) for c in range(d)])
    for attempt in range(32):
        eps = Fraction(1, 64 * (seed + 1) * 2 ** attempt)
        offsetv = [Fraction(0)] * d
        for i in range(d):
            offsetv[(i + seed) % d] += eps ** (i + 1)
        y = vec_add(base, offsetv)
        if contains(P, y, "interior") and (masks := _visibility(cells, y)) is not None:
            return y, masks
    raise ExhaustedRetries("no generic point found after 32 refinements")


def _half_open(P: Polytope, pieces, apex, y=None, seed: int = 0) -> ConeTriangulation:
    """The pieces (vertex tuples) coned over apex, each cell built once with
    the facets visible from y (default: pick_generic_point's) removed."""
    apex = as_point(apex)
    cells = [piece + (apex,) for piece in pieces]
    if y is None:
        y, masks = _generic_point(P, apex, cells, seed)
    else:
        masks = _visibility(cells, as_point(y))
        if masks is None:
            raise NotGeneric("point lies on a cell hyperplane")
    if any(mask[-1] for mask in masks):
        raise IdentityViolated("the facet opposite the apex is visible from y")
    return ConeTriangulation(apex, tuple(map(HalfOpenSimplex, cells, masks)), P)


def _decompose(P: Polytope, pieces, apex=None, y=None, seed: int = 0):
    """half_open_decompose of the boundary pieces given as vertex tuples.  The
    facet opposite the apex lies in a facet of P and is never removed, so
    each cone cell's mask restricts to its boundary cell."""
    if apex is None:
        apex = find_interior_point(P)[1]
    cone = _half_open(P, pieces, apex, y, seed)
    boundary = tuple(
        HalfOpenSimplex(cell.vertices[:-1], cell.missing[:-1]) for cell in cone.cells)
    return BoundaryTriangulation(boundary, P), cone


def half_open_cone(P: Polytope, apex, seed: int = 0) -> ConeTriangulation:
    """Half-open d-simplices partitioning P: the facets whose hyperplane misses
    the point apex of P are pulled, coned over it and masked by visibility."""
    return _half_open(P, _pull_facets(P, as_point(apex)), apex, seed=seed)


def half_open_decompose(T, P: Polytope, y=None, apex=None, seed: int = 0):
    """Turn closed boundary cells into a disjoint half-open triangulation.

    T is a list of closed (d-1)-simplices covering the boundary.  The cells
    are coned over `apex` (default: the canonical interior point of minimal
    dilation denominator), facets visible from the generic point y are
    removed, and the masks are restricted back to the boundary cells.  Returns
    (BoundaryTriangulation, ConeTriangulation).
    """
    return _decompose(P, [S.vertices for S in T], apex, y, seed)


def _box(P: Polytope) -> list[range]:
    """The integer bounding box of P, one coordinate range per axis."""
    return [range(ceil(min(v[c] for v in P.vertices)), floor(max(v[c] for v in P.vertices)) + 1)
            for c in range(P.ambient_dim)]


def _box_scan(P: Polytope):
    """The integer points of P's bounding box, lazily in lexicographic order,
    each paired with whether it lies strictly inside P."""
    facets = P.facets
    for u in product(*_box(P)):
        yield u, all(hs.slack(u) > 0 for hs in facets)


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
        for u, inside in _box_scan(dilate(P, ell)):
            visited += 1
            if visited > ENUMERATION_LIMIT:
                raise BoxTooLarge("interior point search passed %d candidates"
                                  % ENUMERATION_LIMIT)
            if inside:
                return ell, tuple(Fraction(c, ell) for c in u)
    raise BoundExceeded("no interior lattice point up to dilation %d" % bound)


def triangulation_to_json_dict(cone: ConeTriangulation) -> dict:
    """Cells as vertex-index lists into a shared point pool, plus masks."""
    pool_points = list(cone.parent.vertices)
    index = {v: i for i, v in enumerate(pool_points)}
    for cell in cone.cells:
        for v in cell.vertices:
            if v not in index:
                index[v] = len(pool_points)
                pool_points.append(v)
    return {
        "points": [[format_rational(c) for c in v] for v in pool_points],
        "apex": index[cone.apex],
        "cells": [cell.to_json_dict(index) for cell in cone.cells],
    }
