"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: configuration problems
exit 2, numeric failures exit 3, layer-comparison mismatches exit 4.
"""


class StickyGasError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(StickyGasError):
    """Invalid run configuration (bad schema, unknown keys, bad values)."""


class NumericError(StickyGasError):
    """Base class for failures of a numeric routine."""


class NonPositiveTime(NumericError):
    """An operation that requires a finite t > 0 was called with another t."""


class PotentialOverflow(NumericError):
    """A query point x so far out that the prefix sums S - x P may overflow."""


class EmptyMeasure(NumericError):
    """Minimization requested over an empty atomic measure."""


class TauOutOfRange(NumericError):
    """Relaxation time outside the admissible interval (0, 1]."""


class RootBracketFailure(NumericError):
    """Event root finding failed to bracket a collision time."""


class EventHorizonExceeded(NumericError):
    """More merge events than atoms minus one: internal invariant broken."""


class EventMarginExhausted(NumericError):
    """No drawn sample time cleared the margin around the merge events."""


class IdentityViolation(NumericError):
    """A closed-form identity that must hold to roundoff was violated."""


class StencilTooCloseToShock(NumericError):
    """Finite-difference stencil placed within the exclusion margin of a shock."""


class QuadratureDivergence(NumericError):
    """Weak-form residuals grew under quadrature refinement."""
