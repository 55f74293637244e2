"""Property and metamorphic tests over random rational polytopes, d <= 3, q <= 3,
and over random half-open simplices for the parallelepiped walk.

Examples are derandomized, so every run draws the same polytopes.
"""

from fractions import Fraction
from math import lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrkit.decomposition import EhrhartReport, ehrhart_report, inequality_audit, stapledon_report
from ehrkit.ehrhart import fpp_lattice_points, hstar_boundary, hstar_interior, hstar_polytope
from ehrkit.errors import AffinelyDependent
from ehrkit.geometry import build_polytope
from ehrkit.oracle import hstar_from_counts
from ehrkit.triangulation import HalfOpenSimplex, half_open_cone, pick_generic_point

from helpers import brute_force_fpp_points, slack_masks

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def rational_polytopes(draw):
    d = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    span = q if d == 3 else 2 * q  # keeps the oracle's boxes small in d = 3
    coordinate = st.integers(-span, span).map(lambda n: Fraction(n, q))
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 3))
    P = build_polytope(points)
    assume(P.dim == d)
    return P


@st.composite
def polytopes_and_maps(draw):
    """A polytope with a signed permutation, an integer translation and, for
    d > 1, a unit transvection, each as a map on points."""
    P = draw(rational_polytopes())
    d = P.dim
    order = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    shift = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    maps = [lambda v: tuple(s * v[k] for s, k in zip(signs, order)),
            lambda v: tuple(c + t for c, t in zip(v, shift))]
    if d > 1:
        i, j = draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        sign = draw(st.sampled_from((1, -1)))
        maps.append(lambda v: tuple(c + sign * v[j] if k == i else c for k, c in enumerate(v)))
    return P, maps


@PROPERTY
@given(rational_polytopes())
def test_pipeline_matches_oracle(P):
    assert hstar_polytope(P) == hstar_from_counts(P, "closed")
    assert hstar_boundary(P) == hstar_from_counts(P, "boundary")
    assert hstar_interior(P) == hstar_from_counts(P, "interior")


@PROPERTY
@given(rational_polytopes())
def test_report_fields_match_standalone_entry_points(P):
    report = ehrhart_report(P)
    assert report.hstar == hstar_polytope(P)
    assert report.hstar_boundary == hstar_boundary(P)
    assert report.hstar_interior == hstar_interior(P)
    assert report.decomposition == stapledon_report(P)
    assert report.audit == inequality_audit(P)


@PROPERTY
@given(rational_polytopes())
def test_visibility_masks_are_slack_signs(P):
    for cone in (half_open_cone(P, P.vertices[0]), EhrhartReport(P).cone[1]):
        y = pick_generic_point(cone)
        assert [cell.missing for cell in cone.cells] == slack_masks(cone, y)


@PROPERTY
@given(polytopes_and_maps())
def test_hstar_invariant_under_lattice_maps(case):
    P, maps = case
    h = hstar_polytope(P)
    for f in maps:
        assert hstar_polytope(build_polytope([f(v) for v in P.vertices])) == h


@st.composite
def parallelepipeds(draw):
    """A half-open simplex in R^d, d <= 3, with heights clearing its denominators.

    It has d + 1 vertices (a cone cell: square generator matrix) or d (a
    boundary cell: d + 1 by d), and heights either a multiple of each vertex's
    denominator or the b-route's (q, ..., q, ell).
    """
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from((d, d + 1)))
    dens = draw(st.lists(st.integers(1, 2 if d == 3 else 3), min_size=n, max_size=n))
    vertices = tuple(tuple(Fraction(draw(st.integers(-den, den)), den) for _ in range(d))
                     for den in dens)
    if n > 1 and draw(st.booleans()):
        q = lcm(*dens[:-1])
        heights = [q] * (n - 1) + [dens[-1] * draw(st.integers(1, 2))]
    else:
        heights = [den * draw(st.integers(1, 2)) for den in dens]
    missing = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    try:
        S = HalfOpenSimplex(vertices, missing)
    except AffinelyDependent:
        assume(False)
    return S, heights


@settings(PROPERTY, max_examples=150)
@given(parallelepipeds())
def test_residue_walk_matches_box_scan(cell):
    S, heights = cell
    walked = sorted((point, tuple(Fraction(a, big) for a in nums))
                    for point, nums, big in fpp_lattice_points(S, heights))
    assert walked == brute_force_fpp_points(S.vertices, S.missing, heights)
