"""Property and metamorphic tests over random rational polytopes, d <= 3, q <= 3.

Examples are derandomized, so every run draws the same polytopes.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrkit.decomposition import ehrhart_report, inequality_audit, stapledon_report
from ehrkit.ehrhart import hstar_boundary, hstar_interior, hstar_polytope
from ehrkit.geometry import build_polytope
from ehrkit.oracle import hstar_from_counts

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
@given(polytopes_and_maps())
def test_hstar_invariant_under_lattice_maps(case):
    P, maps = case
    h = hstar_polytope(P)
    for f in maps:
        assert hstar_polytope(build_polytope([f(v) for v in P.vertices])) == h
