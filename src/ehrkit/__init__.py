"""Exact Ehrhart theory for rational polytopes.

Lattice-point generating functions, boundary h*-polynomials, symmetric
decompositions, reflexive/Gorenstein classification and rational-dilation
series, all in exact rational arithmetic with an independent brute-force
verification channel.
"""

from .errors import EhrkitError
from .geometry import (
    Halfspace,
    Point,
    Polytope,
    build_polytope,
    contains,
    dilate,
    dual,
    project_to_affine_hull,
    translate,
)
from .gradedpoly import GradedPolynomial
from .triangulation import (
    BoundaryTriangulation,
    ConeTriangulation,
    HalfOpenSimplex,
    find_interior_point,
    half_open_decompose,
    pick_generic_point,
    pyramid,
    triangulate_boundary,
)
from .ehrhart import QuasiCoefficients, SeriesForm, fpp_points, hstar_simplex
from .oracle import count_points, hstar_from_counts
from .decomposition import (
    DecompositionReport,
    EhrhartReport,
    InequalityAudit,
    boundary_series,
    ehrhart_report,
    ehrhart_series,
    hstar_boundary,
    hstar_interior,
    hstar_polytope,
    inequality_audit,
    pyramid_hstar_compare,
    quasi_coefficients,
    stapledon_report,
    symmetric_decompose,
    volume,
)
from .gorenstein import (
    GorensteinKind,
    GorensteinStatus,
    gorenstein_index,
    is_rational_reflexive,
    is_reflexive,
    verify_gorenstein_identities,
)
from .rational_ehrhart import (
    RationalSeriesReport,
    codenominator,
    rational_decompose,
    rational_series,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
