"""Exception hierarchy and the enumeration size limit shared by all modules."""

# Most candidates one enumeration may walk: bounding-box points in the oracle
# and in the interior-point scans, parallelepiped residues in the pipeline.
# Full scans check it before they start; the interior point search, which
# stops at its first hit, counts its candidates against it as it goes.
ENUMERATION_LIMIT = 10 ** 8


class EhrkitError(Exception):
    """Base class for every error raised by this library."""


# -- geometry -----------------------------------------------------------------

class EmptyInput(EhrkitError):
    """No points were supplied."""


class MixedDimensions(EhrkitError):
    """Points (or a query point) of inconsistent ambient dimension."""


class NotFullDimensional(EhrkitError):
    """Operation requires dim == ambient_dim."""


class NonpositiveScale(EhrkitError):
    """Dilation factor must be positive."""


class OriginNotInterior(EhrkitError):
    """Operation requires the origin strictly inside the polytope."""


class HullTooLarge(EhrkitError):
    """The hull would hold more intermediate facets than geometry.HULL_RAY_LIMIT."""


class NoLatticePoints(EhrkitError):
    """The affine hull contains no lattice points, so no unimodular chart exists."""


# -- triangulation ------------------------------------------------------------

class NotGeneric(EhrkitError):
    """The chosen point lies on a facet hyperplane of some cell."""


class ExhaustedRetries(EhrkitError):
    """No generic point found within the retry budget."""


class AffinelyDependent(EhrkitError):
    """Apex lies in the affine span of the simplex."""


class BoundExceeded(EhrkitError):
    """A search ran past its provable bound (internal bug, not a legal outcome)."""


class NotLatticePolytope(EhrkitError):
    """Operation is defined for lattice polytopes only."""


# -- enumeration kernels ------------------------------------------------------

class NonIntegralGenerator(EhrkitError):
    """heights[j] * vertex[j] is not an integer vector."""


class BoxTooLarge(EhrkitError):
    """Brute-force scan would exceed the candidate-point guard."""


class WalkTooLarge(EhrkitError):
    """A fundamental parallelepiped has more residues than the enumeration limit."""


class TailNonzero(EhrkitError):
    """Series times denominator has nonzero tail terms (internal inconsistency)."""


# -- decomposition ------------------------------------------------------------

class NotDivisible(EhrkitError):
    """Polynomial is not divisible by 1 + z + ... + z^(q-1)."""


class NoSolution(EhrkitError):
    """The palindromic decomposition system has no solution (bug signal)."""


class ApexInSpan(EhrkitError):
    """Pyramid apex must leave the base's affine span."""


# -- classification / rational series ----------------------------------------

class IdentityViolated(EhrkitError):
    """An identity or cross-check that is a theorem failed to hold (bug signal)."""


class InvalidM(EhrkitError):
    """m is not an int, does not make the scaled polytope a lattice polytope,
    or the numerator lifted to m would hold more than
    rational_ehrhart.LIFT_TERM_LIMIT terms."""
