from fractions import Fraction as F

import pytest

from ehrkit.errors import (
    EmptyInput,
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
from ehrkit.linalg import solve_unique

from conftest import CORPUS
from helpers import vertices_from_halfspaces


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


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


def test_facet_description_rejects_lower_dimensional():
    seg = build_polytope(pts((0, 0), (1, 1)))
    with pytest.raises(NotFullDimensional):
        seg.facets


def test_contains():
    box = build_polytope(pts((-1, -1), (-1, 1), (1, -1), (1, 1)))
    assert contains(box, (0, 0), "interior")
    assert not contains(box, (1, 0), "interior")
    assert contains(box, (1, 0), "boundary")
    tri = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    assert contains(tri, (F(1, 3), F(1, 3)), "interior")
    with pytest.raises(MixedDimensions):
        contains(box, (0, 0, 0))


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
