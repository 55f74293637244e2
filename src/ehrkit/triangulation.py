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
partition the boundary.

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
    NotFullDimensional,
    NotGeneric,
    NotLatticePolytope,
)
# build_polytope is unused here but stays bound: perfbench's tracing test reads it at this name.
from .geometry import (Point, Polytope, as_point, build_polytope, contains,  # noqa: F401
                       dilate, format_rational)
from .linalg import (_int_rank, _scaled, diagonalize, dot, solve_unique, vec_add, vec_scale,
                     vec_sub)


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
        if len(x) != len(self.vertices[0]):
            raise MixedDimensions("query point has wrong dimension")
        rows = [list(v) + [1] for v in self.vertices]
        columns = list(zip(*rows))
        return solve_unique(columns, list(x) + [1])

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


def _pull_facets(P: Polytope, apex=None) -> list[tuple[Point, ...]]:
    """Pulling triangulations of the facets of P whose hyperplane misses apex
    (every facet when apex is None), as sorted vertex tuples in sorted order.

    A face is its vertex set, read off the hull's vertex-facet incidence,
    which integer arithmetic decides: normal . (q v) == q offset with q the
    denominator of P.  Each face is pulled once per call."""
    q, scaled = _scaled(P.vertices)
    incidence = [frozenset(v for v, w in zip(P.vertices, scaled)
                           if dot(hs.normal, w) == q * hs.offset) for hs in P.facets]
    pulled = {}
    return sorted(piece for hs, F in zip(P.facets, incidence)
                  if apex is None or hs.slack(apex) != 0
                  for piece in _pull_face(F, incidence, pulled))


def triangulate_boundary(P: Polytope) -> list[HalfOpenSimplex]:
    """Closed (d-1)-simplices covering the boundary, using only vertices of P."""
    if not P.is_full_dimensional:
        raise NotFullDimensional("boundary triangulation needs a full-dimensional polytope")
    return [HalfOpenSimplex.closed(piece) for piece in _pull_facets(P)]


def pyramid(x, S: HalfOpenSimplex) -> HalfOpenSimplex:
    """Cone S over an apex x off its affine span; the facet opposite x is present."""
    return HalfOpenSimplex(S.vertices + (as_point(x),), S.missing + (False,))


def cone_over_boundary(T, P: Polytope, apex) -> ConeTriangulation:
    apex = as_point(apex)
    cells = tuple(pyramid(apex, S) for S in T)
    return ConeTriangulation(apex, cells, P)


def _visibility(cone: ConeTriangulation, y: Point):
    """Per cell, the mask of facets visible from y: True where y's barycentric
    coordinate is negative.  None when y lies on some cell hyperplane, i.e. a
    coordinate is zero."""
    masks = []
    for cell in cone.cells:
        if cell.dim != len(y):
            raise ValueError("cone cells must be full-dimensional simplices")
        coords = cell.barycentric(y)
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
    return _generic_point(Tprime, seed)[0]


def _generic_point(cone: ConeTriangulation, seed: int):
    """pick_generic_point's y together with its visibility masks."""
    P = cone.parent
    if not cone.cells:
        raise ValueError("cone triangulation has no cells")
    d = P.ambient_dim
    base = cone.apex
    if not contains(P, base, "interior"):
        base = vec_scale(Fraction(1, len(P.vertices)),
                         [sum(v[c] for v in P.vertices) for c in range(d)])
    for attempt in range(32):
        eps = Fraction(1, 64 * (seed + 1) * 2 ** attempt)
        offsetv = [Fraction(0)] * d
        for i in range(d):
            offsetv[(i + seed) % d] += eps ** (i + 1)
        y = vec_add(base, offsetv)
        if contains(P, y, "interior") and (masks := _visibility(cone, y)) is not None:
            return y, masks
    raise ExhaustedRetries("no generic point found after 32 refinements")


def _apply_visibility(cone: ConeTriangulation, y=None, seed: int = 0) -> ConeTriangulation:
    """Remove from every cell the facets visible from y (default:
    pick_generic_point's).  The facet opposite the apex lies in a facet of P,
    so it is never removed, which lets the masks restrict to the base cells."""
    if y is None:
        y, masks = _generic_point(cone, seed)
    else:
        masks = _visibility(cone, as_point(y))
        if masks is None:
            raise NotGeneric("point lies on a cell hyperplane")
    cells = []
    for cell, mask in zip(cone.cells, masks):
        if mask[-1]:
            raise IdentityViolated("the facet opposite the apex is visible from y")
        cells.append(HalfOpenSimplex(cell.vertices, mask))
    return ConeTriangulation(cone.apex, tuple(cells), cone.parent)


def half_open_cone(P: Polytope, apex, seed: int = 0) -> ConeTriangulation:
    """Half-open d-simplices partitioning P: the facets whose hyperplane misses
    the point apex of P are pulled, coned over it and masked by visibility."""
    apex = as_point(apex)
    T = [HalfOpenSimplex.closed(piece) for piece in _pull_facets(P, apex)]
    return _apply_visibility(cone_over_boundary(T, P, apex), seed=seed)


def half_open_decompose(T, P: Polytope, y=None, apex=None, seed: int = 0):
    """Turn closed boundary cells into a disjoint half-open triangulation.

    T is a list of closed (d-1)-simplices covering the boundary.  The cells
    are coned over `apex` (default: the canonical interior point of minimal
    dilation denominator), facets visible from the generic point y are
    removed, and the masks are restricted back to the boundary cells.  Returns
    (BoundaryTriangulation, ConeTriangulation).
    """
    if apex is None:
        apex = find_interior_point(P)[1]
    cone = _apply_visibility(cone_over_boundary(T, P, apex), y, seed)
    boundary = tuple(
        HalfOpenSimplex(cell.vertices[:-1], cell.missing[:-1]) for cell in cone.cells)
    return BoundaryTriangulation(boundary, P), cone


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
    if not P.is_full_dimensional:
        raise NotFullDimensional("interior point search needs a full-dimensional polytope")
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


def is_unimodular(T, parent: Polytope | None = None) -> bool:
    """True when every boundary simplex has normalized volume one.

    T may be a BoundaryTriangulation or a plain list of simplices together
    with the parent polytope (masks are irrelevant to volumes).
    """
    if isinstance(T, BoundaryTriangulation):
        simplices, parent = T.simplices, T.parent
    else:
        simplices = tuple(T)
        if parent is None:
            raise ValueError("parent polytope required for a bare simplex list")
    if not parent.is_lattice:
        raise NotLatticePolytope("unimodularity is defined for lattice polytopes")
    for S in simplices:
        rows = [tuple(int(c) for c in v) + (1,) for v in S.vertices]
        if prod(diagonalize(list(zip(*rows)))[0]) != 1:  # columns = homogenized vertices
            return False
    return True


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
