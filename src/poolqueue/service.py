"""Service-time laws and their transform-side functionals.

Every law is a small frozen dataclass.  The transform-capable families
(Exponential, Erlang, HyperExponential, Deterministic) expose the
Laplace-Stieltjes transform of the service time in closed form, valid at
complex arguments.  The first three are phase-type: phase_type gives their
(alpha, S) representation, from which the kernel tables are built by a
matrix recursion and the derivatives of the LST and of the survival
transform are read off as powers of (sI - S)^{-1}; Deterministic needs
only its value.  killed_survival gives E[e^{-a B} 1{B >= t}].  Pareto is
simulation-only (tail, mean, sample).
"""

from dataclasses import dataclass
from math import exp, factorial, lgamma, log

import numpy as np

from .errors import DomainError, UnsupportedTransform

__all__ = [
    "Exponential",
    "Erlang",
    "HyperExponential",
    "Deterministic",
    "Pareto",
    "ServiceLaw",
    "lst",
    "phase_type",
    "lst_derivative",
    "lst_derivative_scaled",
    "survival_transform_derivative",
    "survival_transform_derivative_scaled",
    "killed_survival",
    "killed_survival_terms",
    "tail",
    "mean",
    "sample",
]


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")


@dataclass(frozen=True)
class Erlang:
    shape: int
    rate: float

    def __post_init__(self):
        if self.shape < 1 or int(self.shape) != self.shape:
            raise ValueError("shape must be a positive integer")
        if self.rate <= 0:
            raise ValueError("rate must be positive")


@dataclass(frozen=True)
class HyperExponential:
    weights: tuple
    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(q) for q in self.weights))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.weights) != len(self.rates) or not self.weights:
            raise ValueError("weights and rates must be nonempty and equal length")
        if any(q <= 0 for q in self.weights):
            raise ValueError("weights must be positive")
        if any(r <= 0 for r in self.rates):
            raise ValueError("rates must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("value must be positive")


@dataclass(frozen=True)
class Pareto:
    """Classical Pareto on [scale, inf) with tail (t/scale)^(-index).

    Simulation-only: it has no rational transform, so every transform-side
    operation raises UnsupportedTransform.
    """

    index: float
    scale: float

    def __post_init__(self):
        if self.index <= 1:
            raise ValueError("tail index must exceed 1 (finite mean)")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


ServiceLaw = Exponential | Erlang | HyperExponential | Deterministic | Pareto


def _require_transform(law):
    if isinstance(law, Pareto):
        raise UnsupportedTransform("Pareto is simulation-only; no transform available")


def lst(law, s):
    """Laplace-Stieltjes transform E[e^{-s B}] at Re s >= 0."""
    _require_transform(law)
    if s.real < 0 and s.imag == 0:
        # Complex off-axis arguments are allowed: the inversion contours
        # evaluate the analytic continuation in the left half-plane.
        raise DomainError("lst requires Re s >= 0")
    if isinstance(law, Exponential):
        return law.rate / (law.rate + s)
    if isinstance(law, Erlang):
        return (law.rate / (law.rate + s)) ** law.shape
    if isinstance(law, HyperExponential):
        return sum(q * r / (r + s) for q, r in zip(law.weights, law.rates))
    return np.exp(-s * law.value)


def phase_type(law):
    """(alpha, S) of a phase-type law: B is the absorption time of the
    transient generator S started in the distribution alpha."""
    if isinstance(law, Exponential):
        return np.ones(1), np.array([[-law.rate]])
    if isinstance(law, Erlang):
        c, r = law.shape, law.rate
        start = np.zeros(c)
        start[0] = 1.0
        return start, r * (np.eye(c, k=1) - np.eye(c))
    if isinstance(law, HyperExponential):
        return np.array(law.weights), -np.diag(law.rates)
    raise UnsupportedTransform(f"{type(law).__name__} is not phase-type")


def _check_derivative(law, order, s):
    _require_transform(law)
    if order < 0:
        raise DomainError("derivative order must be nonnegative")
    if s.real < 0 and s.imag == 0:
        raise DomainError("transform derivatives require Re s >= 0")


def _phase_power(law, order, s):
    """(-1)^j alpha (sI - S)^{-(j+1)} and s0 = -S 1 for a phase-type law.

    beta(s) = alpha (sI - S)^{-1} s0 and sigma(s) = alpha (sI - S)^{-1} 1, so
    the row against s0 is beta^(j)(s) / j! and against 1 is sigma^(j)(s) / j!.
    """
    start, sub = phase_type(law)
    res = np.linalg.inv(s * np.eye(len(start)) - sub)
    row = (-1) ** order * (start @ np.linalg.matrix_power(res, order + 1))
    return row, -sub.sum(axis=1)


def _power_over_factorial(base, j):
    """base^j / j! for base > 0, stable for large j."""
    return exp(j * log(base) - lgamma(j + 1))


def lst_derivative_scaled(law, order, s):
    """beta^(j)(s) / j!, stable for large j.

    The plain derivative carries a factorial that overflows beyond j ~ 170;
    callers that pair it with a 1/j! coefficient use this form instead.
    """
    _check_derivative(law, order, s)
    if isinstance(law, Deterministic):
        d = law.value
        return (-1) ** order * _power_over_factorial(d, order) * np.exp(-s * d)
    row, exit_rates = _phase_power(law, order, s)
    return row @ exit_rates


def lst_derivative(law, order, s):
    """Exact j-th derivative of the LST."""
    return factorial(order) * lst_derivative_scaled(law, order, s)


def survival_transform_derivative_scaled(law, order, s):
    """sigma^(j)(s) / j! where sigma(s) = (1 - beta(s)) / s."""
    _check_derivative(law, order, s)
    if s == 0:
        raise DomainError("survival transform derivatives require s != 0")
    if isinstance(law, Deterministic):
        # Leibniz rule on (1 - e^{-s d}) / s.
        d, j = law.value, order
        total = (-1) ** j / s ** (j + 1)
        for i in range(j + 1):
            term = _power_over_factorial(d, i) * np.exp(-s * d) / s ** (j - i + 1)
            total -= (-1) ** j * term
        return total
    row, _ = _phase_power(law, order, s)
    return row.sum()


def survival_transform_derivative(law, order, s):
    """j-th derivative of s |-> integral_0^inf e^{-s t} P(B > t) dt."""
    return factorial(order) * survival_transform_derivative_scaled(law, order, s)


def killed_survival(law, alpha, t):
    """E[e^{-alpha B} 1{B >= t}] for a transform-capable law.

    At alpha=0 this is the survival function; at t=0 it is the LST.  The
    Deterministic atom at d is counted when t == d (closed endpoint).
    """
    _require_transform(law)
    if t < 0:
        raise DomainError("t must be nonnegative")
    if isinstance(law, Exponential):
        r = law.rate
        return r / (r + alpha) * np.exp(-(r + alpha) * t)
    if isinstance(law, Erlang):
        c, r = law.shape, law.rate
        x = (r + alpha) * t
        part = sum(x**i / factorial(i) for i in range(c))
        return (r / (r + alpha)) ** c * np.exp(-x) * part
    if isinstance(law, HyperExponential):
        return sum(
            q * r / (r + alpha) * np.exp(-(r + alpha) * t)
            for q, r in zip(law.weights, law.rates)
        )
    d = law.value
    return np.exp(-alpha * d) if t <= d else 0.0


def killed_survival_terms(law, alpha):
    """Exponential-polynomial form of t |-> killed_survival(law, alpha, t).

    Returns a list of (coef, power, rate) triples meaning
    sum coef * t^power * e^{-rate t}.  Only phase-type families have such a
    form; Deterministic callers must integrate over [0, d] instead.
    """
    _require_transform(law)
    if isinstance(law, Exponential):
        r = law.rate
        return [(r / (r + alpha), 0, r + alpha)]
    if isinstance(law, Erlang):
        c, r = law.shape, law.rate
        return [
            ((r / (r + alpha)) ** c * (r + alpha) ** i / factorial(i), i, r + alpha)
            for i in range(c)
        ]
    if isinstance(law, HyperExponential):
        return [
            (q * r / (r + alpha), 0, r + alpha)
            for q, r in zip(law.weights, law.rates)
        ]
    raise UnsupportedTransform(
        "Deterministic has no exponential-polynomial killed survival"
    )


def tail(law, t):
    """P(B > t)."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    if isinstance(law, Exponential):
        return float(np.exp(-law.rate * t))
    if isinstance(law, Erlang):
        x = law.rate * t
        return float(np.exp(-x) * sum(x**i / factorial(i) for i in range(law.shape)))
    if isinstance(law, HyperExponential):
        return float(
            sum(q * np.exp(-r * t) for q, r in zip(law.weights, law.rates))
        )
    if isinstance(law, Deterministic):
        return 1.0 if t < law.value else 0.0
    return 1.0 if t <= law.scale else float((t / law.scale) ** (-law.index))


def mean(law):
    """E[B]; finite for every supported law."""
    if isinstance(law, Exponential):
        return 1.0 / law.rate
    if isinstance(law, Erlang):
        return law.shape / law.rate
    if isinstance(law, HyperExponential):
        return sum(q / r for q, r in zip(law.weights, law.rates))
    if isinstance(law, Deterministic):
        return law.value
    return law.index * law.scale / (law.index - 1.0)


def sample(law, rng, size=None):
    """Draw from the law using the supplied numpy Generator."""
    if isinstance(law, Exponential):
        return rng.exponential(1.0 / law.rate, size=size)
    if isinstance(law, Erlang):
        return rng.gamma(law.shape, 1.0 / law.rate, size=size)
    if isinstance(law, HyperExponential):
        idx = rng.choice(len(law.rates), size=size, p=law.weights)
        scales = 1.0 / np.asarray(law.rates)
        return rng.exponential(scales[idx])
    if isinstance(law, Deterministic):
        if size is None:
            return law.value
        return np.full(size, law.value)
    u = 1.0 - rng.random(size)
    return law.scale * u ** (-1.0 / law.index)
