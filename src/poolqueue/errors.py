"""Exception and warning types shared across the package, and the check of
a model's counts that every engine and the CLI share."""


class PoolQueueError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedTransform(PoolQueueError):
    """A law lacks what an operation needs: a transform (Pareto), or the
    phase-type form (alpha, S, s0) that the CTMC oracles take."""


class DomainError(PoolQueueError, ValueError):
    """An argument lies outside the domain where the operation is defined."""


def check_counts(k, m, plan):
    """Raise DomainError unless k, m >= 0 and the plan holds exactly the m
    rates lambda_1..lambda_m: every engine's one check of a model's shape."""
    if min(k, m) < 0:
        raise DomainError("k and m must be nonnegative")
    if plan.m != m:
        raise DomainError(f"the plan has {plan.m} rates for a pool of m = {m}")


class SingularityGuard(PoolQueueError):
    """Evaluation was requested too close to an excluded singular point."""


# Read by tests/euler.py and tests/test_inversion.py; the benchmark counts it.
class ConvergenceWarning(UserWarning):
    """Raised by the tests' Euler oracle when its two node counts disagree."""
