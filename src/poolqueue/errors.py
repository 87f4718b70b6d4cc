"""Exception and warning types shared across the package."""


class PoolQueueError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedTransform(PoolQueueError):
    """A transform-side operation was requested for a law without one (Pareto)."""


class DomainError(PoolQueueError, ValueError):
    """An argument lies outside the domain where the operation is defined."""


class RateCollision(PoolQueueError):
    """Rates in a general plan (shifted by the killing rate) are too close."""


class ConditioningError(PoolQueueError):
    """Partial-fraction coefficients grew beyond the safe magnitude."""


class SingularityGuard(PoolQueueError):
    """Evaluation was requested too close to an excluded singular point."""


class NormalizationError(PoolQueueError):
    """An inverted probability vector deviated too far from total mass one."""


class UnsupportedOracle(PoolQueueError):
    """An exact oracle was requested for a service law it does not cover."""


class ConvergenceWarning(UserWarning):
    """The two inversion methods disagree beyond the cross-check tolerance."""
