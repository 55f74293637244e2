import ast
import pathlib
import random
import tracemalloc
import types
from fractions import Fraction as F
from itertools import product
from math import ceil, floor, prod

import pytest

from ehrkit import oracle
from ehrkit.decomposition import ehrhart_series
from ehrkit.errors import BoxTooLarge, NotFullDimensional, TailNonzero
from ehrkit.geometry import Halfspace, build_polytope, dilate
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.linalg import interpolate_polynomial
from ehrkit.oracle import count_points, hstar_from_counts

from helpers import brute_force_count, count_calls, unimodular_image


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


@pytest.mark.parametrize("mode", ["closed", "interior", "boundary"])
def test_a_wrong_count_leaves_a_nonzero_tail(monkeypatch, mode):
    """One count off by one at n = 1 adds z(1 - z^q)^power to the product,
    whose last term lies past the degree bound in every mode.  The fault
    sits in the one sweep of every dilate that hstar_from_counts reads: the
    first shift's count of dilate 1."""
    real = oracle._counts

    def faulty(plan, dilates, shifts):
        counts = real(plan, dilates, shifts)
        counts[list(dilates).index(1)][0] += 1
        return counts
    monkeypatch.setattr(oracle, "_counts", faulty)
    for P in (build_polytope(pts((0, 0), (1, 0), (0, 1))),
              build_polytope(pts((F(-1, 2),), (F(1, 2),)))):
        with pytest.raises(TailNonzero, match=mode):
            hstar_from_counts(P, mode)


def test_count_modes_add_up(corpus_polytope):
    """Each mode against a point-by-point count.  The sweep's boundary count is
    its closed count less its interior count, so comparing the modes with one
    another would check nothing."""
    for n in (1, 2, 3):
        for mode in ("closed", "interior", "boundary"):
            assert count_points(corpus_polytope, n, mode) == \
                brute_force_count(corpus_polytope, n, mode), (n, mode)


def test_each_count_is_one_sweep(monkeypatch):
    """Every mode, boundary included, reads one sweep of the dilate, and the
    series division one sweep of all its dilates; each sweep asks only for
    the slack shifts its mode reads."""
    sweeps = count_calls(monkeypatch, oracle._counts)
    tri = build_polytope(pts((0, 0), (F(3, 2), 0), (0, 1)))
    for mode, shifts in (("closed", (0,)), ("interior", (1,)), ("boundary", (0, 1))):
        sweeps.clear()
        count_points(tri, 2, mode)
        assert [list(args[1]) for args in sweeps] == [[2]]
        assert [tuple(args[2]) for args in sweeps] == [shifts]
        sweeps.clear()
        hstar_from_counts(tri, mode)
        # n = 1 .. q(d+1) + d + 1
        assert [list(args[1]) for args in sweeps] == [list(range(1, 10))]
        assert [tuple(args[2]) for args in sweeps] == [shifts]


def ehrkit_imports(source):
    """The ehrkit modules a source file imports from, by name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.partition(".")[2] or a.name for a in node.names
                      if a.name.split(".")[0] == "ehrkit"}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "ehrkit":
                    continue
                module = module.partition(".")[2]
            names |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return names


def test_oracle_imports_no_pipeline_module():
    """The oracle shares only value types with the pipeline, so agreement
    between the two is evidence."""
    assert ehrkit_imports("from .triangulation import x\nimport ehrkit.linalg\n"
                          "from ehrkit import ehrhart\nfrom . import decomposition\n"
                          "import os\nfrom math import floor") == {
        "triangulation", "linalg", "ehrhart", "decomposition"}
    source = pathlib.Path(oracle.__file__).read_text()
    assert ehrkit_imports(source) <= {"errors", "geometry", "gradedpoly"}


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


def test_every_box_is_sized_before_the_first_sweep(monkeypatch):
    """Box size is not monotone in n, so hstar_from_counts sizes the box of
    every dilate first: here n = 1 fits and n = 2 does not, and nothing is
    swept before the refusal."""
    sweeps = count_calls(monkeypatch, oracle._counts)
    long = build_polytope(pts((0, 0), (2 * 10 ** 7, 0), (0, 1)))
    with pytest.raises(BoxTooLarge):
        hstar_from_counts(long, "closed")
    assert sweeps == []


def namespace(P, facets):
    """P's vertices with another facet list, as the oracle reads a polytope."""
    return types.SimpleNamespace(vertices=P.vertices, ambient_dim=P.ambient_dim,
                                 is_full_dimensional=True, facets=list(facets))


def test_the_clip_holds_every_point_the_facets_admit():
    """The loop bounds come from the facet list, not from the true hull, so a
    list missing a facet is counted point for point: the leaked-pair hull of
    test_checks, which lacks one of its 14 facets, and cross-polytopes less
    their first facet.  Each list still confines its points to P's box, so
    the box count is its whole count."""
    leaked = build_polytope(pts((0, 0, 1, 0), (0, 1, 1, 2), (1, 0, 0, 0), (1, 0, 0, 1),
                                (1, 0, 0, 2), (1, 0, 1, 2), (1, 1, 1, 1), (1, 2, 2, 1),
                                (2, 0, 1, 0), (2, 2, 0, 1)))
    lists = [namespace(leaked, [hs for hs in leaked.facets
                                if hs != Halfspace((2, -1, -2, 0), 2)])]
    for d in (3, 4):
        cross = build_polytope([tuple(F(s) if i == j else F(0) for i in range(d))
                                for j in range(d) for s in (1, -1)])
        lists.append(namespace(cross, cross.facets[1:]))
    for N in lists:
        for n in (1, 2, 3):
            for mode in ("closed", "interior", "boundary"):
                assert count_points(N, n, mode) == brute_force_count(N, n, mode), (n, mode)


def test_the_row_clip_counts_every_mode():
    """Facets with no fiber-axis entry clip each row's fibers instead of
    bounding them: boxes, prisms and cross-polytopes in d = 2..4, placed
    along the axes, halved, and moved by seeded GL_d(Z) maps plus
    translations, counted point by point.  Among them are clip facets with
    row-axis entry b > 0, b < 0 and b = 0."""
    rng = random.Random(17)
    shapes = []
    for d in (2, 3, 4):
        box = list(product(*(range(0, k + 1, k) for k in range(1, d + 1))))
        prism = [tuple(int(i == j) for j in range(d - 1)) + (h,)
                 for i in range(d) for h in (0, 2)]
        cross = [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
        for points in (box, prism, cross):
            shapes += [points, [tuple(F(c, 2) for c in p) for p in points]]
            shapes += [unimodular_image(rng, points) for _ in range(2 if d < 4 else 1)]
    signs = set()
    for points in shapes:
        P = build_polytope(pts(*points))
        _, facets, _ = oracle._plan(P, oracle._table(P))
        signs |= {(normal[-2] > 0) - (normal[-2] < 0) for normal, _ in facets if not normal[-1]}
        for n in (1, 2, 3):
            for mode in ("closed", "interior", "boundary"):
                assert count_points(P, n, mode) == brute_force_count(P, n, mode), (points, n, mode)
    assert signs == {1, -1, 0}


def test_counts_do_not_depend_on_the_axis_order():
    """Permuting the coordinates permutes the plan's axes and changes no
    count; the elongated simplex's long axis, the fiber axis, moves with the
    permutation."""
    long = pts((0, 0, 0), (9, 1, 0), (0, 1, 1), (2, 0, 1))
    for points in (long, pts((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
                   pts((0, 0, 0, 0), (F(5, 2), 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1),
                       (1, F(1, 2), 1, 1))):
        P = build_polytope(points)
        for shift in range(1, P.dim):
            Q = build_polytope([p[shift:] + p[:shift] for p in points])
            for n in (1, 2, 3):
                for mode in ("closed", "interior", "boundary"):
                    assert count_points(Q, n, mode) == count_points(P, n, mode), (n, mode)
    for points in (long, [p[1:] + p[:1] for p in long]):  # the long axis first, then last
        P = build_polytope(points)
        _, least, greatest = oracle._plan(P, oracle._table(P))[0]
        assert [b - a for a, b in zip(least, greatest)] == [1, 1, 9]


def rows_read(monkeypatch):
    """The width of every row the sweep reads from now on."""
    widths = []
    real = oracle._rows

    def rows(*args):
        for start, width in real(*args):
            widths.append(width)
            yield start, width
    monkeypatch.setattr(oracle, "_rows", rows)
    return widths


def test_the_sweep_stays_near_a_thin_polytope(monkeypatch):
    """A thin simplex along the diagonal of its box: the rows the sweep
    reads hold far fewer fibers than the box has.  The count at n = 1 is
    checked point by point, and at n = 2, whose box holds 1.8 * 10^6 points,
    against the pipeline's Ehrhart series."""
    widths = rows_read(monkeypatch)
    thin = build_polytope(pts((0, 0, 0), (1, 0, 0), (0, 1, 0), (60, 60, 61)))
    references = {1: brute_force_count(thin, 1, "closed"),
                  2: ehrhart_series(thin).coefficients(3)[2]}
    assert references == {1: 24, 2: 110}
    for n in (1, 2):
        widths.clear()
        assert count_points(thin, n) == references[n]
        lows, highs = oracle._bounding_box(thin, n)
        fibers = prod(hi - lo + 1 for lo, hi in zip(lows[:-1], highs[:-1]))
        assert sum(widths) * 8 < fibers, (n, sum(widths), fibers)


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


def test_long_rows():
    """Rows of more than 512 fibers, in d = 1, 2 and 3, with rational vertices."""
    wide = [pts((0, 0), (2000, 0), (0, 1)),
            pts((0, 0), (F(2001, 2), 0), (0, F(1, 3)), (7, 1)),
            pts((0, 0, 0), (1500, 0, 0), (0, 1, 0), (0, 0, 1), (700, 1, 1)),
            pts((F(-3, 2),), (F(1401, 2),))]
    for points in wide:
        P = build_polytope(points)
        for n in (1, 2, 3):
            for mode in ("closed", "interior", "boundary"):
                assert count_points(P, n, mode) == brute_force_count(P, n, mode), (points, n, mode)


def test_sweep_memory_does_not_grow_with_the_row():
    """A row of 2 * 10^4 fibers is swept without a list over its fibers."""
    tri = build_polytope(pts((0, 0), (10 ** 4, 0), (0, 1)))
    tracemalloc.start()
    try:
        assert count_points(tri, 2, "boundary") == 2 * 10 ** 4 + 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10, peak


def test_sweep_memory_does_not_grow_with_the_rows(monkeypatch):
    """A thin 4-simplex along a diagonal, at the dilates 1 .. 10 of its h*:
    the one sweep reads more than eight batches of rows, and its per-row
    lists hold one batch at a time."""
    thin = build_polytope(pts((0, 0, 0, 0), (8, 0, 0, 0), (0, 8, 8, 0), (0, 0, 1, 0),
                              (0, 0, 0, 8)))
    widths = rows_read(monkeypatch)
    hstar_from_counts(thin)
    assert len(widths) > 8 * oracle._BATCH, len(widths)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        h = hstar_from_counts(thin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == GP.from_list([1, 161, 315, 35]), h  # h*(1) = 8^3, the normalized volume
    assert peak < 1 << 20, peak


def test_bounding_box_reads_only_vertices_and_dimension():
    """perfbench selects its oracle inputs with _bounding_box on a bare
    namespace: per coordinate, the ceiling of the least n·v and the floor of
    the greatest."""
    vertices = [(F(-3, 2), F(1, 3)), (F(5, 4), F(-7, 3)), (F(0), F(2))]
    box = types.SimpleNamespace(vertices=vertices, ambient_dim=2)
    for n in (1, 2, 3, 7):
        assert oracle._bounding_box(box, n) == (
            [ceil(min(n * v[c] for v in vertices)) for c in range(2)],
            [floor(max(n * v[c] for v in vertices)) for c in range(2)])
    assert oracle._bounding_box(box, 3) == ([-4, -7], [3, 6])
