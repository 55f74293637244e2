import random
from fractions import Fraction as F
from itertools import product
from math import prod

import pytest

from ehrkit import geometry, triangulation
from ehrkit.corpus import _random_rational
from ehrkit.decomposition import (EhrhartReport, ehrhart_report, hstar_boundary, hstar_interior,
                                  hstar_polytope)
from ehrkit.errors import (AffinelyDependent, BoundExceeded, BoxTooLarge, ExhaustedRetries,
                           MixedDimensions, NotFullDimensional, NotGeneric)
from ehrkit.geometry import build_polytope, contains, dilate
from ehrkit.gorenstein import gorenstein_index, is_rational_reflexive
from ehrkit.linalg import _residue_count, diagonalize
from ehrkit.rational_ehrhart import codenominator
from ehrkit.triangulation import (
    BoundaryTriangulation,
    HalfOpenSimplex,
    find_interior_point,
    half_open_cone,
    half_open_decompose,
    interior_lattice_points,
    pyramid,
    triangulate_boundary,
)

from conftest import CORPUS
from helpers import (
    cell_halfspaces,
    check_pulled_pieces,
    count_calls,
    count_constructions,
    count_in_scaled_cell,
    fraction_generic_point,
    sample_in_polytope,
    slack_masks,
)


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


square2 = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2)))
triangle = build_polytope(pts((0, 0), (1, 0), (0, 1)))
cube = build_polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
seg_half = build_polytope([(F(-1, 2),), (F(1, 2),)])
# Its facet -4y - 3z <= 2 has four vertices; both pieces there must hold the
# lex-min one, (-2, 1, -2).
five_vertex = build_polytope(pts((-2, 1, -2), (-1, -2, 2), (1, 2, 2), (2, -2, 2), (2, 1, -2)))
cross6 = build_polytope([tuple(s * (i == j) for j in range(6)) for i in range(6) for s in (1, -1)])
cube5 = build_polytope(list(product((0, 1), repeat=5)))


def test_triangulate_boundary_counts():
    assert len(triangulate_boundary(square2)) == 4
    assert len(triangulate_boundary(triangle)) == 3
    assert len(triangulate_boundary(cube)) == 12
    with pytest.raises(NotFullDimensional):
        triangulate_boundary(build_polytope(pts((0, 0), (1, 1))))


def test_triangulate_boundary_uses_only_vertices():
    for _, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        for S in triangulate_boundary(P):
            assert all(v in P.vertices for v in S.vertices)
            assert S.is_closed and S.dim == P.dim - 1


def test_pieces_follow_the_pulling_rule():
    """Boundary pieces, and the bases of the cells over the lex-min vertex,
    hold the lex-min vertex of every face in their pulling chain, and the
    boundary pieces close up."""
    for P in [P for _, P in CORPUS if P.is_full_dimensional] + [five_vertex, cross6, cube5]:
        check_pulled_pieces(P)


def test_simplex_faces_are_their_own_pieces(monkeypatch):
    """Every facet of cross-6d is a simplex, pulled as its one piece with no
    face below it; no facet of cube-5d is one."""
    assert not any(m.bit_count() == 5 for m in cube5._incidence)
    assert all(m.bit_count() == 6 for m in cross6._incidence)
    calls = count_calls(monkeypatch, triangulation._pull_face)
    pieces = triangulation._pull_facets(cross6)
    assert sorted(face for face, *_ in calls) == sorted(cross6._incidence)
    assert pieces == sorted(tuple(i for i in range(12) if m >> i & 1) for m in cross6._incidence)


def test_pulling_builds_no_hull(monkeypatch):
    """Faces come from the hull's vertex-facet incidence, never from a new hull."""
    cube4 = build_polytope(list(product((0, 1), repeat=4)))
    calls = count_calls(monkeypatch, build_polytope)
    triangulate_boundary(cube4)
    assert len(calls) == 0
    ehrhart_report(cube4)
    assert len(calls) == 0


def test_each_face_is_pulled_once(monkeypatch):
    """The boundary of the 5-cube reaches 105 distinct faces, 10 facets, 30
    cubes, 40 squares and 25 edges, each pulled once; an edge is a simplex, its
    own piece, so no vertex is pulled.  Each cone of a report pulls its own
    faces, each once: the h* cone the 30 faces of the five facets that miss
    the origin, the cone over x all 105.  A whole report builds each of its
    120 cells over a vertex, 240 cells over x and 240 boundary cells once."""
    expected = triangulate_boundary(cube5)
    calls = count_calls(monkeypatch, triangulation._pull_face)
    assert triangulate_boundary(cube5) == expected
    assert len(calls) == len({face for face, *_ in calls}) == 105
    calls.clear()
    built = count_constructions(monkeypatch)
    ehrhart_report(cube5)
    assert len(calls) == 30 + 105
    assert len(built) == 120 + 240 + 240
    report = EhrhartReport(cube5)
    for read, pulls in ((hstar_polytope, 30), (lambda P: report.hstar, 30),
                        (lambda P: report.cone, 105)):
        calls.clear()
        read(cube5)
        assert len(calls) == len({face for face, *_ in calls}) == pulls


def test_pyramid_mask_rule():
    base = HalfOpenSimplex.closed(pts((0, 0), (1, 0)))
    cone = pyramid((0, 1), base)
    assert cone.vertices[-1] == (F(0), F(1))
    assert cone.missing == (False, False, False)

    half = HalfOpenSimplex(tuple(pts((0, 0), (1, 0))), (True, False))
    cone = pyramid((0, 1), half)
    assert cone.missing == (True, False, False)
    assert cone.missing_count == half.missing_count

    with pytest.raises(AffinelyDependent):
        pyramid((F(1, 2), F(0)), base)


def test_simplex_membership_rejects_wrong_dimension():
    tri = HalfOpenSimplex.closed(pts((0, 0), (1, 0), (0, 1)))
    for x in ((0, 0, 5), (0,)):
        with pytest.raises(MixedDimensions):
            tri.contains(x)


def test_simplex_rejects_mixed_dimensions():
    for vertices in (pts((0, 0), (1, 0), (0, 1, 7)), pts((0, 0), (1,))):
        with pytest.raises(MixedDimensions):
            HalfOpenSimplex.closed(vertices)


@pytest.mark.parametrize("fn", [hstar_polytope, hstar_boundary, hstar_interior,
                                triangulate_boundary, find_interior_point,
                                is_rational_reflexive, gorenstein_index, codenominator],
                         ids=lambda fn: fn.__name__)
def test_needs_full_dimension(fn):
    with pytest.raises(NotFullDimensional):
        fn(build_polytope(pts((0, 0), (1, 1))))


def test_find_interior_point():
    assert find_interior_point(triangle) == (3, (F(1, 3), F(1, 3)))
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    assert find_interior_point(box) == (1, (F(0), F(0)))
    halfP52 = dilate(build_polytope(pts((0, 0), (0, 2), (5, 2))), F(1, 2))
    assert find_interior_point(halfP52) == (2, (F(1, 2), F(1, 2)))
    assert find_interior_point(seg_half) == (1, (F(0),))


def test_find_interior_point_stops_at_the_first_point(monkeypatch):
    # (1, 1) is candidate n + 3 of the first dilate; a full scan of its box
    # would visit about 10^6 candidates
    monkeypatch.setattr(triangulation, "ENUMERATION_LIMIT", 10 ** 4)
    big = build_polytope(pts((0, 0), (1000, 0), (0, 1000)))
    assert find_interior_point(big) == (1, (F(1), F(1)))


def test_find_interior_point_counts_candidates_over_all_dilates(monkeypatch):
    # boxes of 4 and 9 points in dilates 1 and 2, then (1, 1) is the 6th
    # candidate of dilate 3: 19 in total
    monkeypatch.setattr(triangulation, "ENUMERATION_LIMIT", 19)
    assert find_interior_point(triangle) == (3, (F(1, 3), F(1, 3)))
    monkeypatch.setattr(triangulation, "ENUMERATION_LIMIT", 18)
    with pytest.raises(BoxTooLarge):
        find_interior_point(triangle)


def test_half_open_decompose_square():
    T = triangulate_boundary(square2)
    boundary, cone = half_open_decompose(T, square2)
    masks = sorted(s.missing_count for s in boundary.simplices)
    assert masks == [0, 1, 1, 2]
    assert sum(1 for s in boundary.simplices if s.is_closed) == 1
    assert len(cone.cells) == 4


def test_half_open_decompose_triangle_cases():
    T = triangulate_boundary(triangle)
    boundary, _ = half_open_decompose(T, triangle)
    counts = sorted(s.missing_count for s in boundary.simplices)
    assert counts in ([0, 1, 1], [0, 1, 2])
    assert sum(1 for s in boundary.simplices if s.is_closed) == 1


def test_half_open_decompose_segment():
    T = triangulate_boundary(seg_half)
    boundary, _ = half_open_decompose(T, seg_half)
    assert sorted(s.missing_count for s in boundary.simplices) == [0, 1]


def test_half_open_decompose_rejects_low_dimensional_cells():
    T = [HalfOpenSimplex.closed(pts((0, 0)))]
    with pytest.raises(ValueError, match="full-dimensional"):
        half_open_decompose(T, square2, apex=(1, 1))


def test_half_open_decompose_rejects_degenerate_cells():
    # the apex (0, 1) lies on the boundary edge from (0, 0) to (0, 2)
    with pytest.raises(AffinelyDependent):
        half_open_decompose(triangulate_boundary(square2), square2, apex=(0, 1))


def test_masks_are_slack_signs_over_corpus():
    """Barycentric-sign masks equal the halfspace-slack masks at the same y,
    for the cone over the lex-min vertex and for the report's cone over x."""
    for _, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        for cone in (half_open_cone(P, P.vertices[0]), EhrhartReport(P).cone[1]):
            assert [cell.missing for cell in cone.cells] == slack_masks(cone, cone.y)


def test_apex_outside_P_is_a_bad_argument(monkeypatch):
    """An apex outside P is rejected against the facet inequalities before
    anything is pulled or coned, not reported as a broken identity."""
    T = triangulate_boundary(square2)
    pulls = count_calls(monkeypatch, triangulation._pull_face)
    for apex in ((5, 5), (F(-1, 3), 1)):
        with pytest.raises(ValueError, match="apex must lie in P"):
            half_open_cone(square2, apex)
        with pytest.raises(ValueError, match="apex must lie in P"):
            half_open_decompose(T, square2, apex=apex)
    assert pulls == []
    assert len(half_open_cone(square2, (2, 1)).cells) == 3  # a boundary apex is in P


def test_apex_of_the_wrong_dimension_is_refused(monkeypatch):
    # the facet slacks alone would zip a short apex with the normals and truncate it
    T = triangulate_boundary(square2)
    pulls = count_calls(monkeypatch, triangulation._pull_face)
    for apex in ((1,), (1, 1, 1)):
        with pytest.raises(MixedDimensions):
            half_open_cone(square2, apex)
        with pytest.raises(MixedDimensions):
            half_open_decompose(T, square2, apex=apex)
    assert pulls == []


def test_half_open_decompose_rejects_nongeneric_y():
    T = triangulate_boundary(square2)
    with pytest.raises(NotGeneric):
        half_open_decompose(T, square2, y=(1, 1), apex=(1, 1))


def test_y_outside_the_interior_is_rejected():
    skew = build_polytope([(0, 0), (0, 2), (2, 0), (3, 3)])
    v = skew.vertices[0]
    with pytest.raises(ValueError, match="y must lie in the interior of P"):
        half_open_decompose(triangulate_boundary(skew), skew, y=(10, F(1, 7)))
    with pytest.raises(ValueError, match="y must lie in the interior of P"):
        top, slacks = triangulation._apex(skew, v)
        triangulation._half_open(skew, triangulation._pull_facets(skew, slacks), v, top,
                                 (F(-3, 7), F(-11, 13)))


def test_y_of_the_wrong_dimension_is_refused():
    T = triangulate_boundary(square2)
    for y in ((1,), (1, 1, 1)):
        with pytest.raises(MixedDimensions):
            half_open_decompose(T, square2, y=y)


def test_figure_configuration_with_split_edge():
    """Square with one subdivided edge: masks come out 1 closed, 3 single, 1 double."""
    P = build_polytope(pts((0, 0), (0, 3), (3, 0), (3, 3)))
    T = [HalfOpenSimplex.closed(pts((0, 0), (0, 1))),
         HalfOpenSimplex.closed(pts((0, 1), (0, 3))),
         HalfOpenSimplex.closed(pts((0, 3), (3, 3))),
         HalfOpenSimplex.closed(pts((3, 0), (3, 3))),
         HalfOpenSimplex.closed(pts((0, 0), (3, 0)))]
    boundary, _ = half_open_decompose(T, P, y=(F(7, 5), F(2, 5)), apex=(2, 2))
    by_verts = {s.vertices: s for s in boundary.simplices}
    closed = [s for s in boundary.simplices if s.is_closed]
    assert len(closed) == 1
    assert closed[0].vertices == tuple(pts((0, 0), (3, 0)))  # the cell containing y
    assert sorted(s.missing_count for s in boundary.simplices) == [0, 1, 1, 1, 2]
    far_edge = by_verts[tuple(pts((0, 3), (3, 3)))]
    assert far_edge.missing_count == 2
    # (0, 1) is no vertex: its facet is found by zero slack, and each cell's
    # pyramid-rule count is the Smith count of its columns; they add up to
    # the 12 boundary points
    counts = [s._count for s in boundary.simplices]
    assert counts == [_residue_count(s._columns) for s in boundary.simplices]
    assert sorted(counts) == [1, 2, 3, 3, 3]


def test_a_caller_cell_in_no_facet_is_a_bad_argument():
    # a diagonal, and a chord from the non-vertex (0, 1), cut through the square
    for chord in (((0, 0), (2, 2)), ((0, 1), (2, 2))):
        with pytest.raises(ValueError, match="boundary cell lies in no facet of P"):
            half_open_decompose([HalfOpenSimplex.closed(pts(*chord))], square2,
                                apex=(1, F(1, 2)))


def test_cone_y_is_generic():
    cone = half_open_cone(square2, (1, 1))
    assert cone.y == (F(65, 64), F(4097, 4096))  # the apex moved by 1/64, 1/64^2
    assert contains(square2, cone.y, "interior")
    for cell in cone.cells:
        for hs in cell_halfspaces(cell):
            assert hs.slack(cone.y) != 0


def test_integer_generic_point_is_the_fraction_schedule():
    """The integer schedule accepts the point the Fraction schedule defines,
    for the cone over the lex-min vertex and for the report's cone over x, on
    the corpus and three seeded random polytopes with q = 2 or 3 per d = 2..5;
    the golden digests do not pin the h* cone's y, since no output dumps it.
    The last polytope has the vertex (64, 1) on the first try's ray from
    x = 0, so its report's cone takes the second try."""
    rng = random.Random(30)
    polytopes = [P for _, P in CORPUS if P.is_full_dimensional]
    polytopes += [_random_rational(rng, d, rng.choice((2, 3)))
                  for d in range(2, 6) for _ in range(3)]
    for P in polytopes + [build_polytope(pts((64, 1), (-1, -1), (-1, 1)))]:
        for cone in (half_open_cone(P, P.vertices[0]), EhrhartReport(P).cone[1]):
            assert cone.y == fraction_generic_point(cone)


def test_generic_point_counts_only_tries_inside_p(monkeypatch):
    """With every point on some cell hyperplane, the search gives up after
    32 visibility solves, all at points inside P.  On the thin triangle the
    first 32 steps of the schedule all leave P, so the solves come later."""
    solves = []
    monkeypatch.setattr(triangulation, "_visibility", lambda cells, Y: solves.append(Y))
    N = 10 ** 12
    thin = build_polytope(pts((0, 0), (N, N + 1), (1, 1)))
    centroid = [sum(v[i] for v in thin.vertices) / 3 for i in range(2)]
    for k in range(32):
        eps = F(1, 64 * 2 ** k)
        assert not contains(thin, (centroid[0] + eps, centroid[1] + eps ** 2), "interior")
    for P in (cube, thin):
        solves.clear()
        with pytest.raises(ExhaustedRetries):
            half_open_cone(P, P.vertices[0])
        assert len(solves) == 32
        assert all(min(P._int_slacks(Y[:-1], Y[-1])) > 0 for Y in solves)


def test_find_interior_point_gives_up_past_q_times_d_plus_one(monkeypatch):
    """With no candidate inside, the search scans the dilates 1 .. q(d + 1)
    and then raises BoundExceeded."""
    real = triangulation._box_scan
    scanned = []

    def scan(P, ell=1):
        scanned.append(ell)
        return ((u, False) for u, _ in real(P, ell))
    monkeypatch.setattr(triangulation, "_box_scan", scan)
    for P, bound in ((triangle, 3), (seg_half, 4), (cube, 4), (dilate(triangle, F(1, 3)), 9)):
        scanned.clear()
        with pytest.raises(BoundExceeded, match="dilation %d$" % bound):
            find_interior_point(P)
        assert scanned == list(range(1, bound + 1))


def test_int_slacks_are_ell_times_the_facet_slacks():
    rng = random.Random(31)
    for q in (2, 3):
        P = dilate(five_vertex, F(1, q))
        assert P.denominator_q == q
        for ell in (1, 2, 3, 6):
            for _ in range(5):
                u = tuple(rng.randint(-9, 9) for _ in range(3))
                x = tuple(F(a, ell) for a in u)
                assert P._int_slacks(u, ell) == [ell * hs.slack(x) for hs in P.facets]


def test_exactly_one_closed_over_corpus():
    for _, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        T = triangulate_boundary(P)
        boundary, _ = half_open_decompose(T, P)
        assert sum(1 for s in boundary.simplices if s.is_closed) == 1


def test_is_unimodular():
    """Boundary cells are unimodular exactly when boundary h*(1), the residue
    count, equals the cell count; each cell holds as many residues as the
    product of the Smith invariants of its homogenized vertices."""
    sq1 = build_polytope(pts((0, 0), (0, 1), (1, 0), (1, 1)))
    tri2 = build_polytope(pts((0, 0), (2, 0), (0, 2)))
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    for P, expected in ((sq1, True), (tri2, False), (box, False)):
        report = ehrhart_report(P)
        cells = report.cone[0].simplices
        index = []
        for S in cells:
            rows = [tuple(int(c) for c in v) + (1,) for v in S.vertices]
            index.append(prod(diagonalize(list(zip(*rows)))[0]))  # columns = homogenized vertices
        residues = report.hstar_boundary.evaluate_at_one()
        assert residues == sum(index)
        assert all(i == 1 for i in index) is expected
        assert (residues == len(cells)) is expected


def test_boundary_triangulation_invariant():
    with pytest.raises(ValueError):
        BoundaryTriangulation(tuple(triangulate_boundary(square2)), square2)


def test_interior_lattice_points():
    assert interior_lattice_points(dilate(triangle, 3)) == [(1, 1)]
    assert interior_lattice_points(square2) == [(1, 1)]


def test_interior_lattice_points_checks_the_box_first(monkeypatch):
    big = build_polytope(pts((0, 0), (20, 0), (0, 20)))  # a box of 441 points
    assert len(big.facets) == 3  # built before slack is counted
    slacks = []
    real = geometry.Halfspace.slack
    monkeypatch.setattr(geometry.Halfspace, "slack",
                        lambda hs, x: slacks.append(x) or real(hs, x))
    monkeypatch.setattr(geometry, "ENUMERATION_LIMIT", 440)
    with pytest.raises(BoxTooLarge, match="441"):
        interior_lattice_points(big)
    assert slacks == []
    monkeypatch.setattr(geometry, "ENUMERATION_LIMIT", 441)
    assert len(interior_lattice_points(big)) == 19 * 18 // 2


@pytest.mark.parametrize("name,P", [
    ("square2", square2),
    ("triangle", triangle),
    ("seg_half", seg_half),
    ("cube", cube),
])
def test_partition_by_sampling(name, P):
    """Each sampled point of P lies in exactly one half-open cone cell."""
    T = triangulate_boundary(P)
    boundary, cone = half_open_decompose(T, P)
    rng = random.Random(1234)
    for x in sample_in_polytope(P, rng, 1000 if P.dim <= 2 else 250):
        hits = sum(1 for cell in cone.cells if cell.contains(x))
        assert hits == 1, (name, x)


@pytest.mark.parametrize("name,P", [
    ("square2", square2),
    ("triangle", triangle),
    ("seg_half", seg_half),
])
def test_boundary_partition_by_sampling(name, P):
    """Each sampled boundary point lies in exactly one half-open boundary cell."""
    T = triangulate_boundary(P)
    boundary, _ = half_open_decompose(T, P)
    rng = random.Random(99)
    samples = []
    closed_cells = [HalfOpenSimplex.closed(s.vertices) for s in boundary.simplices]
    for _ in range(1000):
        cell = closed_cells[rng.randrange(len(closed_cells))]
        weights = [F(rng.randint(0, 6)) for _ in cell.vertices]
        if sum(weights) == 0:
            weights[0] = F(1)
        total = sum(weights)
        samples.append(tuple(
            sum(w / total * v[c] for w, v in zip(weights, cell.vertices))
            for c in range(P.ambient_dim)))
    for x in samples:
        hits = sum(1 for s in boundary.simplices if s.contains(x))
        assert hits == 1, (name, x)


@pytest.mark.parametrize("name,P", [
    ("square2", square2),
    ("triangle", triangle),
    ("seg_half", seg_half),
    ("halfP52", dilate(build_polytope(pts((0, 0), (0, 2), (5, 2))), F(1, 2))),
])
def test_counting_identity(name, P):
    """Summing |Z^d ∩ n*cell| over the disjoint cells matches the direct count."""
    from ehrkit.oracle import count_points
    T = triangulate_boundary(P)
    _, cone = half_open_decompose(T, P)
    q, d = P.denominator_q, P.dim
    for n in range(1, q * (d + 1) + 1):
        total = sum(count_in_scaled_cell(cell, n) for cell in cone.cells)
        assert total == count_points(P, n, "closed"), (name, n)
