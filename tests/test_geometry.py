import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction as F
from itertools import product

import pytest

from ehrkit import geometry, linalg
from ehrkit.decomposition import ehrhart_report
from ehrkit.errors import (
    EmptyInput,
    HullTooLarge,
    MixedDimensions,
    NoLatticePoints,
    NonpositiveScale,
    NotFullDimensional,
    OriginNotInterior,
)
from ehrkit.geometry import (
    Halfspace,
    build_polytope,
    contains,
    dilate,
    dual,
    parse_rational,
    polytope_from_json_dict,
    project_to_affine_hull,
    translate,
)
from ehrkit.linalg import _scaled, solve_unique
from ehrkit.oracle import hstar_from_counts
from ehrkit.rational_ehrhart import rational_decompose

from conftest import CORPUS
from helpers import (brute_force_hull, count_calls, greedy_affine_basis, unimodular_image,
                     unspanned_facets, vertices_from_halfspaces)


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


def test_a_polytope_holds_no_lazy_state():
    """Every slack is read off P's own facet rows, so the pipeline, the oracle
    and the rational decomposition leave nothing behind on a q = 2 polytope."""
    P = build_polytope(pts((F(-1, 2), 0), (1, F(1, 2)), (0, 1)))
    assert P.denominator_q == 2
    ehrhart_report(P)
    hstar_from_counts(P)
    rational_decompose(P)
    assert set(vars(P)) == {f.name for f in fields(P)}


def test_build_drops_interior_point():
    P = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2), (1, 1)))
    assert len(P.vertices) == 4
    assert P.dim == 2 and P.denominator_q == 1
    assert (F(1), F(1)) not in P.vertices


def test_build_drops_edge_midpoint():
    P = build_polytope(pts((0, 0), (1, 0), (2, 0), (0, 2), (2, 2)))
    assert (F(1), F(0)) not in P.vertices
    assert len(P.vertices) == 4


def test_build_half_segment():
    P = build_polytope([(F(-1, 2),), (F(1, 2),)])
    assert P.dim == 1 and P.denominator_q == 2


def test_denominator_is_lcm_of_vertex_denominators():
    seg = build_polytope([(F(-1, 4),), (F(1, 3),)])
    assert seg.denominator_q == 12
    tri = build_polytope(pts((0, 0), (F(1, 2), 0), (0, F(1, 3))))
    assert tri.denominator_q == 6


def test_build_unimodular_triangle():
    P = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    assert len(P.vertices) == 3 and P.dim == 2 and P.denominator_q == 1


def test_build_errors():
    with pytest.raises(EmptyInput):
        build_polytope([])
    with pytest.raises(MixedDimensions):
        build_polytope([(0, 0), (1,)])


def test_degenerate_inputs_allowed_as_objects():
    point = build_polytope([(F(1, 2), F(1, 3))])
    assert point.dim == 0 and point.denominator_q == 6
    seg = build_polytope(pts((0, 0), (1, 1), (2, 2)))
    assert seg.dim == 1 and seg.vertices == ((F(0), F(0)), (F(2), F(2)))
    with pytest.raises(NotFullDimensional):
        point.facets


def test_facets_wide_triangle():
    P = build_polytope(pts((0, 0), (0, 2), (5, 2)))
    assert set(P.facets) == {
        Halfspace((-1, 0), 0),      # x1 >= 0
        Halfspace((0, 1), 2),       # x2 <= 2
        Halfspace((2, -5), 0),      # 5 x2 - 2 x1 >= 0
    }


def test_facets_boxes_and_triangle():
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    assert set(box.facets) == {
        Halfspace((1, 0), 1), Halfspace((-1, 0), 1),
        Halfspace((0, 1), 1), Halfspace((0, -1), 1)}
    tri = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    assert set(tri.facets) == {
        Halfspace((-1, 0), 0), Halfspace((0, -1), 0), Halfspace((1, 1), 1)}


def test_facets_sorted_and_normalized():
    for _, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        facets = P.facets
        assert list(facets) == sorted(facets)
        for hs in facets:
            from math import gcd
            g = 0
            for a in hs.normal + (hs.offset,):
                g = gcd(g, a)
            assert g == 1


def _tight_masks(P):
    return tuple(sum(1 << i for i, v in enumerate(P.vertices) if hs.slack(v) == 0)
                 for hs in P.facets)


def test_hull_of_grids_with_collinear_and_redundant_points():
    # {0,1,2}^d under x -> Ux + c, U unit upper bidiagonal, plus midpoints;
    # the brute force tries every hyperplane through d points, so for d = 4
    # it runs on the images of the corners and the midpoints, which have the
    # same hull as the 81 grid points
    for d in (2, 3, 4):
        def image(p):
            return tuple(p[i] - 2 * (p[i + 1] if i + 1 < d else 0) + i for i in range(d))
        grid = [image(p) for p in product(range(3), repeat=d)]
        midpoints = [tuple(F(a + b, 2) for a, b in zip(grid[i], grid[-1 - 2 * i]))
                     for i in range(3)]
        P = build_polytope(grid + midpoints)
        reference = grid if d < 4 else [image(p) for p in product((0, 2), repeat=d)]
        assert (P.vertices, P.facets) == brute_force_hull(reference + midpoints)
        assert len(P.vertices) == 2 ** d and len(P.facets) == 2 * d
        assert P._incidence == _tight_masks(P)


def test_hull_of_cubes_and_cross_polytopes():
    for d in (5, 6):
        cube = build_polytope(list(product((0, 1), repeat=d)))
        cross = build_polytope([tuple(s * (i == j) for j in range(d))
                                for i in range(d) for s in (1, -1)])
        assert len(cube.facets) == 2 * d and len(cross.facets) == 2 ** d
        assert [m.bit_count() for m in cube._incidence] == [2 ** (d - 1)] * (2 * d)
        assert [m.bit_count() for m in cross._incidence] == [d] * 2 ** d
        assert cube._incidence == _tight_masks(cube) and cross._incidence == _tight_masks(cross)


def _simplex(d):
    return [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]


def _cube(d):
    return list(product((0, 1), repeat=d))


def _cross(d):
    return [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]


def _check_certified(P):
    """The hull's certificate against its definitions: every facet is spanned
    by its tight vertices, the incidence is the zero-slack sets, and the
    integer vertex table read off the hull's rows is the vertices scaled."""
    assert unspanned_facets(P) == []
    assert P._incidence == _tight_masks(P)
    assert P._int_vertices == _scaled(P.vertices)


def test_hull_certificate_over_the_corpus():
    for _, P in CORPUS:
        if P.is_full_dimensional:
            _check_certified(P)
            assert (P.vertices, P.facets) == brute_force_hull(P.vertices)


def test_hull_certificate_on_unimodular_cubes_and_cross_polytopes():
    """Cubes and cross-polytopes in d = 2..6 under seeded GL_d(Z) maps.  The
    brute-force hull tries every d of the points, too many for the 32 and 64
    corners of the 5- and 6-cube; there the facets must give back exactly
    the corners by vertex enumeration, and they are 2d."""
    rng = random.Random(29)
    for d in range(2, 7):
        for points, facets in ((_cube(d), 2 * d), (_cross(d), 2 ** d)):
            image = unimodular_image(rng, points)
            P = build_polytope(image)
            _check_certified(P)
            assert len(P.facets) == facets
            if len(image) <= 16:
                assert (P.vertices, P.facets) == brute_force_hull(image)
            else:
                assert P.vertices == vertices_from_halfspaces(P.facets, d) == tuple(
                    sorted(map(tuple, pts(*image))))


def test_hull_certificate_on_random_rational_polytopes():
    """The corpus recipe in d = 2..5: d + 1 to d + 4 points with coordinates
    k/q, |k| <= 2q, q = 2 or 3, redrawn until they span R^d; interior and
    repeated points are mixed in."""
    rng = random.Random(2029)
    for d in range(2, 6):
        for _ in range(6):
            q = rng.choice((2, 3))
            while True:
                points = [tuple(F(rng.randint(-2 * q, 2 * q), q) for _ in range(d))
                          for _ in range(rng.randint(d + 1, d + 4))]
                P = build_polytope(points + points[:1])
                if P.is_full_dimensional:
                    break
            _check_certified(P)
            assert (P.vertices, P.facets) == brute_force_hull(points)


def test_facets_holding_d_simplex_vertices_need_no_elimination(monkeypatch):
    """A facet that holds d vertices of the starting simplex has rank d with
    no elimination; every other facet eliminates only its other vertices'
    slacks.  With one rank elimination per facet, the d-simplex took d + 1,
    cube-4d 8, cube-6d 12 and cross-6d 64, each over d + 1 rows.  The points
    are scaled to integers once per build."""
    ranks = count_calls(monkeypatch, linalg._int_rank)
    scalings = count_calls(monkeypatch, linalg._scaled)

    def eliminations(points):
        ranks.clear()
        scalings.clear()
        build_polytope(points)
        assert len(scalings) == 1
        return [(len(rows), len(rows[0])) for (rows,) in ranks]
    for d in range(2, 7):
        assert eliminations(_simplex(d)) == []
    assert eliminations(_cube(4)) == [(4, 7)] * 4  # the facets x_i = 1
    assert eliminations(_cube(6)) == [(6, 31)] * 6
    # the simplex is -e_1, ..., -e_6 and e_6: a facet holding k of them
    # eliminates d - k vertices over d + 1 - k rows, and the two with k = 6 none
    assert Counter(eliminations(_cross(6))) == {(2, 1): 10, (3, 2): 20, (4, 3): 20, (5, 4): 10,
                                                (6, 5): 2}


def test_affine_basis_is_the_greedy_one():
    """One echelon of the differences picks the same points as one rank per
    point: random integer points in d = 1..6, spanning all of R^d or a random
    affine subspace, with repeated points and collinear runs mixed in."""
    rng = random.Random(19)
    for d in range(1, 7):
        for _ in range(40):
            k = rng.randint(0, d)  # the dimension of the points' affine hull
            base = [rng.randint(-3, 3) for _ in range(d)]
            directions = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)]
            ints = [tuple(b + sum(rng.randint(-2, 2) * w[c] for w in directions)
                          for c, b in enumerate(base)) for _ in range(rng.randint(1, 3 * d))]
            for _ in range(rng.randint(0, 3)):
                p, q = rng.choice(ints), rng.choice(ints)
                ints += [tuple(a + t * (b - a) for a, b in zip(p, q))
                         for t in range(rng.randint(1, 4))]
            ints += rng.sample(ints, rng.randint(0, min(3, len(ints))))
            rng.shuffle(ints)
            assert geometry._affine_basis(ints) == greedy_affine_basis(ints)


def test_incidence_follows_dilation_and_translation():
    # dilating by 1/3 turns x <= 1, sorted before 2x - y <= 0, into 3x <= 1, sorted after it
    P = build_polytope(pts((0, 0), (1, 2), (1, 3)))
    for Q in (dilate(P, F(1, 3)), translate(P, (F(1, 3), 0)), dilate(P, 2)):
        assert Q._incidence == _tight_masks(Q)
    assert [hs.normal for hs in dilate(P, F(1, 3)).facets] == [(-3, 1), (2, -1), (3, 0)]


def test_hull_ray_limit(monkeypatch):
    monkeypatch.setattr(geometry, "HULL_RAY_LIMIT", 5)
    with pytest.raises(HullTooLarge, match="5 intermediate facets"):
        build_polytope(list(product((0, 1), repeat=3)))
    assert len(build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1))).facets) == 4


def test_facet_description_rejects_lower_dimensional():
    seg = build_polytope(pts((0, 0), (1, 1)))
    for Q in (seg, dilate(seg, 2), translate(seg, (1, 0))):
        with pytest.raises(NotFullDimensional):
            Q.facets
        with pytest.raises(NotFullDimensional):
            Q._incidence


def test_polytope_is_built_with_its_facets(monkeypatch):
    """The hull runs once, in build_polytope; dilate and translate carry its
    facets over, and the stored facet table is outside ==, hash and repr."""
    hulls = count_calls(monkeypatch, geometry._hull_full_dim)
    P = build_polytope(pts((0, 0), (1, 2), (1, 3)))
    for Q in (P, dilate(P, F(1, 3)), translate(P, (F(1, 3), 0))):
        assert len(Q.facets) == len(Q._incidence) == 3
    assert len(hulls) == 1
    bare = geometry.Polytope(P.vertices, P.ambient_dim, P.dim, P.denominator_q)
    assert bare == P and hash(bare) == hash(P) and repr(bare) == repr(P)
    assert "Halfspace" not in repr(P)


def test_contains():
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    assert contains(box, (0, 0), "interior")
    assert not contains(box, (1, 0), "interior")
    assert contains(box, (1, 0), "boundary")
    tri = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    assert contains(tri, (F(1, 3), F(1, 3)), "interior")
    with pytest.raises(MixedDimensions):
        contains(box, (0, 0, 0))


def test_halfspace_slack_needs_a_point_of_its_dimension():
    hs = Halfspace((1, 2), 3)
    assert hs.slack((1, 1)) == 0 and hs.slack((F(1, 2), 0)) == F(5, 2)
    for x in ((1,), (1, 1, 1)):
        with pytest.raises(MixedDimensions):
            hs.slack(x)


def test_solve_unique_rejects_mismatched_rhs():
    for rhs in ([1, 2, 3], [1]):
        with pytest.raises(ValueError, match="right-hand side"):
            solve_unique([[1, 0], [0, 1]], rhs)


def test_vertex_membership_over_corpus():
    for _, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        for v in P.vertices:
            assert contains(P, v, "closed")
            assert not contains(P, v, "interior")


def test_dilate():
    seg = build_polytope([(F(-1, 2),), (F(1, 2),)])
    assert dilate(seg, 2).vertices == ((F(-1),), (F(1),))
    tri = build_polytope(pts((0, 0), (0, 2), (5, 2)))
    assert dilate(tri, F(1, 2)).vertices == (
        (F(0), F(0)), (F(0), F(1)), (F(5, 2), F(1)))
    std = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    assert dilate(std, 3).vertices == ((F(0), F(0)), (F(0), F(3)), (F(3), F(0)))
    with pytest.raises(NonpositiveScale):
        dilate(std, 0)


def test_dilate_by_q_clears_denominator():
    for _, P in CORPUS:
        assert dilate(P, P.denominator_q).denominator_q == 1


def test_dual():
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    cross = build_polytope(pts((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert dual(box) == cross
    assert dual(cross) == box
    # computed from the definition: the facets are y=-1, x=-1, x+y=1
    tri = build_polytope(pts((-1, -1), (2, -1), (-1, 2)))
    assert dual(tri) == build_polytope(pts((0, -1), (-1, 0), (1, 1)))
    with pytest.raises(OriginNotInterior):
        dual(build_polytope(pts((0, 0), (1, 0), (0, 1))))


def test_dual_involution_over_corpus():
    for _, P in CORPUS:
        if P.is_full_dimensional and contains(P, (0,) * P.ambient_dim, "interior"):
            assert dual(dual(P)) == P


def test_halfspace_roundtrip_over_corpus():
    for _, P in CORPUS:
        if not P.is_full_dimensional:
            continue
        rebuilt = vertices_from_halfspaces(P.facets, P.ambient_dim)
        assert rebuilt == P.vertices


def test_translate():
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    moved = translate(sq, (1, 1))
    assert moved.vertices == build_polytope(pts((1, 1), (2, 1), (1, 2), (2, 2))).vertices


def test_project_to_affine_hull_lattice_preserving():
    seg = build_polytope(pts((0, 0), (2, 2)))
    flat = project_to_affine_hull(seg)
    assert flat.ambient_dim == 1 and flat.denominator_q == 1
    # three lattice points on the diagonal map to three on the line
    assert flat.vertices in (((F(0),), (F(2),)), ((F(-2),), (F(0),)))

    tri3 = build_polytope([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    flat3 = project_to_affine_hull(tri3)
    assert flat3.dim == flat3.ambient_dim == 2
    assert flat3.denominator_q == 1


def test_project_to_affine_hull_no_lattice_points():
    seg = build_polytope([(F(1, 2), F(0)), (F(1, 2), F(1))])
    with pytest.raises(NoLatticePoints):
        project_to_affine_hull(seg)


def test_parse_rational():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-3") == F(-3)
    for bad in ("0.5", "1e3", "1/0", "", "one"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_polytope_json_roundtrip():
    P = build_polytope([(F(-1, 2),), (F(1, 2),)])
    assert polytope_from_json_dict(P.to_json_dict()) == P
    with pytest.raises(ValueError):
        polytope_from_json_dict({"vertices": [[0.5, 1.0]]})
