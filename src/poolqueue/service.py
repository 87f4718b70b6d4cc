"""Service-time laws: transforms, tails, means and samplers.

Every law is a small frozen dataclass.  The transform-capable families
(Exponential, Erlang, HyperExponential, Deterministic) expose the
Laplace-Stieltjes transform of the service time in closed form, valid at
complex arguments.  The first three are phase-type: phase_type gives their
(alpha, S, s0) representation, s0 = -S 1 the exit vector, from which the
kernel tables, the time-domain chain and the CTMC oracles are built;
Deterministic tables are power series in the uniformized arrival-count
chain instead.  Pareto is simulation-only (tail, mean, sample).
"""

from dataclasses import dataclass
from math import factorial, inf

import numpy as np

from .errors import DomainError, UnsupportedTransform

__all__ = [
    "Exponential",
    "Erlang",
    "HyperExponential",
    "Deterministic",
    "Pareto",
    "lst",
    "phase_type",
    "residual_lst",
    "tail",
    "mean",
    "sample",
    "sample_rows",
]


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < inf:
            raise ValueError("rate must be positive and finite")


@dataclass(frozen=True)
class Erlang:
    shape: int
    rate: float

    def __post_init__(self):
        if not 1 <= self.shape < inf or int(self.shape) != self.shape:
            raise ValueError("shape must be a positive integer")
        if not 0 < self.rate < inf:
            raise ValueError("rate must be positive and finite")


@dataclass(frozen=True)
class HyperExponential:
    weights: tuple
    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(q) for q in self.weights))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.weights) != len(self.rates) or not self.weights:
            raise ValueError("weights and rates must be nonempty and equal length")
        if not all(0 < q < inf for q in self.weights):
            raise ValueError("weights must be positive and finite")
        if not all(0 < r < inf for r in self.rates):
            raise ValueError("rates must be positive and finite")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self):
        if not 0 < self.value < inf:
            raise ValueError("value must be positive and finite")


@dataclass(frozen=True)
class Pareto:
    """Classical Pareto on [scale, inf) with tail (t/scale)^(-index).

    Simulation-only: it has no rational transform, so every transform-side
    operation raises UnsupportedTransform.
    """

    index: float
    scale: float

    def __post_init__(self):
        if not 1 < self.index < inf:
            raise ValueError("tail index must be finite and exceed 1 (finite mean)")
        if not 0 < self.scale < inf:
            raise ValueError("scale must be positive and finite")


def _require_transform(law):
    if isinstance(law, Pareto):
        raise UnsupportedTransform("Pareto is simulation-only; no transform available")


def lst(law, s):
    """Laplace-Stieltjes transform E[e^{-s B}] at Re s >= 0."""
    _require_transform(law)
    if s.real < 0 and s.imag == 0:
        # Complex off-axis arguments are allowed: the tests' Euler oracle
        # evaluates the analytic continuation in the left half-plane.
        raise DomainError("lst requires Re s >= 0")
    if isinstance(law, Exponential):
        return law.rate / (law.rate + s)
    if isinstance(law, Erlang):
        return (law.rate / (law.rate + s)) ** law.shape
    if isinstance(law, HyperExponential):
        return sum(q * r / (r + s) for q, r in zip(law.weights, law.rates))
    return np.exp(-s * law.value)


def phase_type(law):
    """(alpha, S, s0) of a phase-type law: B is the absorption time of the
    transient generator S started in the distribution alpha, and s0 = -S 1
    holds the exit rates.  Deterministic and Pareto laws raise
    UnsupportedTransform."""
    if isinstance(law, Exponential):
        start, sub = np.ones(1), np.array([[-law.rate]])
    elif isinstance(law, Erlang):
        c, r = law.shape, law.rate
        start = np.zeros(c)
        start[0] = 1.0
        sub = r * (np.eye(c, k=1) - np.eye(c))
    elif isinstance(law, HyperExponential):
        start, sub = np.array(law.weights), -np.diag(law.rates)
    else:
        raise UnsupportedTransform(f"{type(law).__name__} is not phase-type")
    return start, sub, -sub.sum(axis=1)


def residual_lst(law, alpha):
    """(alpha I - S)^{-1} s0: E[e^{-alpha R}], R the residual service from each phase."""
    start, sub, exit_ = phase_type(law)
    return np.linalg.solve(alpha * np.eye(len(start)) - sub, exit_)


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
    if isinstance(law, HyperExponential):
        # In place, to hold one draw-sized array at a time besides
        # rng.choice's own, which are freed before the draws are allocated.
        idx = rng.choice(len(law.rates), size=size, p=law.weights)
        draws = (1.0 / np.asarray(law.rates))[idx]
        del idx
        draws *= rng.standard_exponential(size)
        return draws
    if size is None:
        return float(sample(law, rng, 1)[0])
    draws = np.empty(size)
    _fill(law, rng, draws)
    return draws


def _fill(law, rng, out):
    """Overwrite out with draws from a law sampled element by element,
    any but HyperExponential: the numbers rng.exponential, rng.gamma and
    rng.random would return, since each scales the standard draws by the
    same factor."""
    if isinstance(law, Exponential):
        rng.standard_exponential(out=out)
        out *= 1.0 / law.rate
    elif isinstance(law, Erlang):
        rng.standard_gamma(law.shape, out=out)
        out *= 1.0 / law.rate
    elif isinstance(law, Deterministic):
        out.fill(law.value)
    else:
        rng.random(out=out)
        out *= -1.0
        out += 1.0
        out **= -1.0 / law.index
        out *= law.scale


def sample_rows(law, rng, shape, rows):
    """Return an iterator over sample(law, rng, shape) in consecutive
    slices of `rows` rows.

    The slices are views of one array, which holds bit for bit the numbers
    of the one whole call, and rng ends where that call leaves it.  Every
    sampler but HyperExponential's draws element by element, in order: its
    array is allocated by this call, in the calling thread, and each slice
    is drawn when the iterator reaches it.  HyperExponential draws all its
    component indices before any exponential, so its whole array is drawn
    when the first slice is asked for.
    """
    if isinstance(law, HyperExponential):
        return _drawn_rows(law, rng, shape, rows)
    return _filled_rows(law, rng, np.empty(shape), rows)


def _drawn_rows(law, rng, shape, rows):
    draws = sample(law, rng, shape)
    for lo in range(0, shape[0], rows):
        yield draws[lo : lo + rows]


def _filled_rows(law, rng, draws, rows):
    for lo in range(0, len(draws), rows):
        part = draws[lo : lo + rows]
        _fill(law, rng, part)
        yield part
