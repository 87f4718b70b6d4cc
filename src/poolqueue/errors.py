"""Exception and warning types shared across the package."""


class PoolQueueError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedTransform(PoolQueueError):
    """A transform-side operation was requested for a law that lacks it."""


class DomainError(PoolQueueError, ValueError):
    """An argument lies outside the domain where the operation is defined."""


class SingularityGuard(PoolQueueError):
    """Evaluation was requested too close to an excluded singular point."""


class UnsupportedOracle(PoolQueueError):
    """An exact CTMC oracle was requested for a service law that is not
    phase-type (Deterministic or Pareto), so it has no finite chain."""


# Unused: kept because the benchmark counts it.
class ConvergenceWarning(UserWarning):
    """Raised by the tests' Euler oracle when its two node counts disagree."""
