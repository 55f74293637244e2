"""Named test corpus: the worked examples plus systematic families.

Everything is deterministic, including the pseudo-random rational polytopes
(fixed seed, one denominator per polytope so q stays small).  The corpus is
used by the verification test suite and by the CLI `verify --corpus` run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .errors import IdentityViolated
from .geometry import Polytope, build_polytope, dilate

_SEED = 20240801


def _simplex(d: int) -> Polytope:
    pts = [tuple(0 for _ in range(d))]
    for i in range(d):
        pts.append(tuple(int(i == j) for j in range(d)))
    return build_polytope(pts)


def _cube(d: int, lo: int, hi: int) -> Polytope:
    return build_polytope(list(product((lo, hi), repeat=d)))


def _cross(d: int) -> Polytope:
    pts = []
    for i in range(d):
        for s in (1, -1):
            pts.append(tuple(s * int(i == j) for j in range(d)))
    return build_polytope(pts)


def reflexive_triangles() -> list[tuple[str, Polytope]]:
    """Two-dimensional reflexive triangles (one representative per shape)."""
    data = {
        "reflexive-tri-111": [(1, 0), (0, 1), (-1, -1)],
        "reflexive-tri-large": [(-1, -1), (2, -1), (-1, 2)],
        "reflexive-tri-112": [(1, 1), (-1, 0), (0, -1)],
        "reflexive-tri-123": [(1, 0), (0, 1), (-2, -3)],
        "reflexive-tri-122": [(1, 0), (0, 1), (-1, -2)],
    }
    return [(name, build_polytope(pts)) for name, pts in data.items()]


def _random_rational(rng: random.Random, d: int, den: int) -> Polytope:
    while True:
        count = rng.randint(d + 1, d + 4)
        pts = [tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(d))
               for _ in range(count)]
        P = build_polytope(pts)
        if P.dim == d:
            return P


def standard_corpus() -> list[tuple[str, Polytope]]:
    entries: list[tuple[str, Polytope]] = []

    # worked examples
    entries.append(("square-02", build_polytope([(0, 0), (0, 2), (2, 0), (2, 2)])))
    entries.append(("skew-quad", build_polytope([(0, 0), (0, 2), (2, 0), (3, 3)])))
    entries.append(("segment-half", build_polytope([(Fraction(-1, 2),), (Fraction(1, 2),)])))
    entries.append(("wide-triangle", build_polytope([(0, 0), (0, 2), (5, 2)])))
    entries.append(("wide-triangle-half", dilate(build_polytope([(0, 0), (0, 2), (5, 2)]), Fraction(1, 2))))

    # cubes, crosses, simplices
    for d in (1, 2, 3):
        entries.append(("unit-cube-%dd" % d, _cube(d, 0, 1)))
        entries.append(("centered-cube-%dd" % d, _cube(d, -1, 1)))
        entries.append(("simplex-%dd" % d, _simplex(d)))
    entries.append(("cross-2d", _cross(2)))
    entries.append(("cross-3d", _cross(3)))
    entries.append(("double-simplex-2d", dilate(_simplex(2), 2)))
    entries.append(("double-simplex-3d", dilate(_simplex(3), 2)))
    entries.append(("triple-simplex-2d", dilate(_simplex(2), 3)))

    entries.extend(reflexive_triangles())

    # curated lattice polytopes with vertices in {0,1,2}^3
    entries.append(("big-cube-3d", _cube(3, 0, 2)))
    entries.append(("pyramid-012", build_polytope(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)])))
    entries.append(("skew-simplex-012", build_polytope(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])))
    entries.append(("wedge-012", build_polytope(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1), (2, 0, 1), (0, 2, 1)])))
    entries.append(("octa-012", build_polytope(
        [(1, 0, 0), (0, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 2), (1, 1, 0)])))

    # rational members with q <= 3
    entries.append(("segment-two-thirds", build_polytope([(0,), (Fraction(2, 3),)])))
    entries.append(("half-centered-square", dilate(_cube(2, -1, 1), Fraction(1, 2))))
    entries.append(("third-centered-square", dilate(_cube(2, -1, 1), Fraction(1, 3))))
    entries.append(("half-simplex-2d", dilate(_simplex(2), Fraction(1, 2))))
    entries.append(("half-cross-2d", dilate(_cross(2), Fraction(1, 2))))
    entries.append(("third-reflexive-tri", dilate(build_polytope(
        [(-1, -1), (2, -1), (-1, 2)]), Fraction(1, 3))))
    entries.append(("shifted-square", build_polytope([(1, 1), (1, 2), (2, 1), (2, 2)])))

    rng = random.Random(_SEED)
    for d in (1, 2, 3):
        for den in (2, 3):
            for i in range(2 if d < 3 else 1):
                entries.append(
                    ("random-d%d-q%d-%d" % (d, den, i), _random_rational(rng, d, den)))

    names = [name for name, _ in entries]
    if len(names) != len(set(names)):
        raise IdentityViolated("corpus names must be unique")
    return entries


def nested_lattice_pairs() -> list[tuple[str, Polytope, Polytope]]:
    """Pairs (inner, outer) of lattice corpus members with inner inside outer."""
    by_name = dict(standard_corpus())
    pairs = [
        ("square-in-skew", by_name["square-02"], by_name["skew-quad"]),
        ("unit-in-big-square", by_name["unit-cube-2d"], by_name["square-02"]),
        ("simplex-in-double", by_name["simplex-2d"], by_name["double-simplex-2d"]),
        ("cube-in-big-cube", by_name["unit-cube-3d"], by_name["big-cube-3d"]),
    ]
    return pairs
