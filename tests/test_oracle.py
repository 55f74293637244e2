from fractions import Fraction as F

import pytest

from ehrkit.errors import BoxTooLarge, NotFullDimensional
from ehrkit.geometry import build_polytope, dilate
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.linalg import interpolate_polynomial
from ehrkit.oracle import count_points, hstar_from_counts


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


def test_count_examples():
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    assert count_points(sq, 3) == 16
    tri = build_polytope(pts((0, 0), (1, 0), (0, 1)))
    assert count_points(tri, 3, "interior") == 1
    seg = build_polytope(pts((F(-1, 2),), (F(1, 2),)))
    assert count_points(seg, 3) == 3
    with pytest.raises(NotFullDimensional):
        count_points(build_polytope(pts((0, 0), (1, 1))), 1)


def test_count_modes_add_up(corpus_bundle):
    P = corpus_bundle.polytope
    for n in range(1, P.denominator_q * (P.dim + 1) + 1):
        closed = count_points(P, n, "closed")
        interior = count_points(P, n, "interior")
        boundary = count_points(P, n, "boundary")
        assert closed == interior + boundary


def test_dilation_factor_must_be_an_int():
    # the strict step a.x < R <=> a.x <= R - 1 holds only for integral R: at
    # n = 3/2 it would count 9 interior and 16 boundary points of [0,3]^2, the
    # true counts of dilate(P, 3/2) swapped, and a float n would give a float
    square = build_polytope(pts((0, 0), (0, 3), (3, 0), (3, 3)))
    for n in (F(3, 2), F(2), 1.5, 2.0, True, 0, -1):
        for mode in ("closed", "interior", "boundary"):
            with pytest.raises(ValueError, match="positive integer"):
                count_points(square, n, mode)
    wide = dilate(square, F(3, 2))
    assert [count_points(wide, 1, m) for m in ("interior", "boundary")] == [16, 9]


def test_box_guard():
    huge = build_polytope(pts((0,), (10 ** 9,)))
    with pytest.raises(BoxTooLarge):
        count_points(huge, 1000)


def test_hstar_from_counts_examples():
    sq2 = build_polytope(pts((0, 0), (0, 2), (2, 0), (2, 2)))
    assert hstar_from_counts(sq2, "boundary") == GP.from_list([1, 6, 1])
    seg = build_polytope(pts((F(-1, 2),), (F(1, 2),)))
    assert hstar_from_counts(seg, "closed") == GP.from_list([1, 1, 1, 1])
    sq = build_polytope(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    assert hstar_from_counts(sq, "interior") == GP.from_dict({2: 1, 3: 1})


def test_oracle_matches_pipeline(corpus_bundle):
    assert corpus_bundle.hstar == corpus_bundle.oracle_hstar
    assert corpus_bundle.hstar_boundary == corpus_bundle.oracle_boundary
    assert corpus_bundle.hstar_interior == corpus_bundle.oracle_interior


def test_fuzz_pipeline_vs_oracle():
    """Seeded random polytopes, including degenerate inputs, agree with the oracle."""
    import random
    from ehrkit.decomposition import hstar_boundary, hstar_interior, hstar_polytope

    rng = random.Random(424242)
    checked = 0
    while checked < 40:
        d = rng.choice([1, 2, 2, 3])
        den = rng.choice([1, 1, 2, 3])
        points = [tuple(F(rng.randint(-3, 3), den) for _ in range(d))
                  for _ in range(rng.randint(d + 1, d + 5))]
        if len(points) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(points, 2)
            points.append(tuple((x + y) / 2 for x, y in zip(a, b)))
        P = build_polytope(points)
        if P.dim != d:
            continue
        checked += 1
        assert hstar_polytope(P) == hstar_from_counts(P), points
        assert hstar_boundary(P) == hstar_from_counts(P, "boundary"), points
        assert hstar_interior(P) == hstar_from_counts(P, "interior"), points


def test_reciprocity_via_interpolation(corpus_bundle):
    """Interior counts equal (-1)^d times the closed quasipolynomial at -n."""
    P = corpus_bundle.polytope
    q, d = P.denominator_q, P.dim
    sign = (-1) ** d
    # interpolate the closed counting function on each residue class mod q
    spread = 2 * q * (d + 1)
    closed = {n: count_points(P, n, "closed") for n in range(1, spread + q * (d + 1) + 1)}
    for n in range(1, spread + 1):
        residue_points = [m for m in sorted(closed) if (m - (-n)) % q == 0][:d + 1]
        coeffs = interpolate_polynomial(residue_points,
                                        [closed[m] for m in residue_points])
        value = sum(c * (-n) ** k for k, c in enumerate(coeffs))
        assert count_points(P, n, "interior") == sign * value, (n,)
