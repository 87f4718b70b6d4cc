"""Arrival-count kernels for the finite customer pool.

Three triangular probability tables drive everything downstream, indexed by
(n, i) with 0 <= i <= n <= m, n being the number of customers still to
arrive at the start of a service:

* ``u[n][i]`` -- i arrivals during one service time, jointly with the
  independent Exp(gamma) deadline outlasting the service;
* ``v[n][i]`` -- i arrivals before the deadline, jointly with the deadline
  falling inside the service;
* ``w[n][i]`` -- i arrivals during one service time, unconditionally:
  u at gamma = 0, derived on first access rather than built alongside.

The outstanding count is a pure-death process with rates lambda_n, and the
tables are built in one of two ways, neither of which forms alternating
sums that grow with m:

* phase-type service (alpha, S) with exit vector s0 = -S 1: per row n,
  x_0 = alpha ((gamma + lambda_n) I - S)^{-1} and
  x_i = lambda_{n-i+1} x_{i-1} ((gamma + lambda_{n-i}) I - S)^{-1}
  (lambda_0 = 0), so u_{ni} = x_i s0 and v_{ni} = gamma x_i 1; at real
  gamma every factor is nonnegative;
* Deterministic(d) service: one matrix exponential of the block
  [[(L - gamma I) d, d I], [0, 0]], L being the death generator, whose
  top-left block holds u and whose top-right block holds v / gamma, at
  [n, n - i].
"""

from dataclasses import dataclass
from functools import cached_property
from math import ceil, log2

import numpy as np

# Unused: kept because the benchmark's traced run times this import at setup.
import scipy.special  # noqa: F401

from . import service
from .service import Deterministic

__all__ = [
    "Constant",
    "Proportional",
    "General",
    "RatePlan",
    "plan_rates",
    "pool_size",
    "KernelTables",
    "build_tables",
]


@dataclass(frozen=True)
class Constant:
    """lambda_i = lam for every i: Poisson arrivals stopped after m."""

    lam: float
    m: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("rate must be positive")
        if self.m < 0:
            raise ValueError("pool size must be nonnegative")


@dataclass(frozen=True)
class Proportional:
    """lambda_i = i * lam: i.i.d. Exp(lam) arrival times (order statistics)."""

    lam: float
    m: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("rate must be positive")
        if self.m < 0:
            raise ValueError("pool size must be nonnegative")


@dataclass(frozen=True)
class General:
    """Explicit rate vector (lambda_1, ..., lambda_m); rates may repeat."""

    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if any(r <= 0 for r in self.rates):
            raise ValueError("all rates must be positive")

    @property
    def m(self):
        return len(self.rates)


RatePlan = Constant | Proportional | General


def pool_size(plan):
    return plan.m


def plan_rates(plan):
    """The vector (lambda_1, ..., lambda_m)."""
    if isinstance(plan, Constant):
        return np.full(plan.m, plan.lam)
    if isinstance(plan, Proportional):
        return plan.lam * np.arange(1, plan.m + 1)
    return np.asarray(plan.rates)


def rate(plan, n):
    """lambda_n, the rate of the next interarrival when n remain."""
    if n < 1 or n > pool_size(plan):
        raise IndexError("rate index out of range")
    if isinstance(plan, Constant):
        return plan.lam
    if isinstance(plan, Proportional):
        return n * plan.lam
    return plan.rates[n - 1]


def _expm(a):
    """e^a: scale until the 1-norm is at most 1/2, sum the degree-18 Taylor
    polynomial (truncation below 1e-22), then square back."""
    norm = np.abs(a).sum(axis=0).max()
    squarings = ceil(log2(max(2.0 * norm, 1.0)))
    a = a / 2.0**squarings
    eye = np.eye(len(a))
    out = eye
    for j in range(18, 0, -1):
        out = eye + a @ out / j
    for _ in range(squarings):
        out = out @ out
    return out


def _death_blocks(plan, d, gamma, alpha):
    """e^{(L - gamma) d} and integral_0^d e^{(L - gamma) t} e^{-alpha (d - t)} dt.

    L is the generator of the outstanding count, so entry [n, n - i] of the
    first block is e^{-gamma d} P(i arrivals in d | n outstanding).  Both
    come from one exponential of [[(L - gamma I) d, d I], [0, -alpha d I]].
    """
    lams = np.concatenate(([0.0], plan_rates(plan)))
    size = len(lams)
    eye = np.eye(size)
    gen = (np.diag(lams[1:], -1) - np.diag(lams) - gamma * eye) * d
    block = np.block([[gen, d * eye], [np.zeros_like(eye), -alpha * d * eye]])
    e = _expm(block)
    return e[:size, :size], e[:size, size:]


def _phase_rows(plan, start, sub, gamma, cols):
    """Rows n = 0..m of X_n @ cols, where X_n stacks x_0..x_n of row n.

    x_0 = start R_n and x_i = x_{i-1} lambda_{n-i+1} R_{n-i}, with
    R_j = ((gamma + lambda_j) I - S)^{-1}: x_i[k] is the Laplace transform at
    gamma of the density of being in phase k with i arrivals so far.  The
    m + 1 inverses are formed once, so each entry costs one vector-matrix
    product.
    """
    lams = np.concatenate(([0.0], plan_rates(plan)))
    inverses = np.linalg.inv((gamma + lams)[:, None, None] * np.eye(len(start)) - sub)
    steps = [None] + list(lams[1:, None, None] * inverses[:-1])
    rows = []
    for n in range(len(lams)):
        x = start @ inverses[n]
        xs = [x]
        for i in range(1, n + 1):
            x = x @ steps[n - i + 1]
            xs.append(x)
        rows.append(np.array(xs) @ cols)
    return rows


@dataclass(frozen=True)
class KernelTables:
    """Triangular kernel tables at a fixed killing rate.

    ``u`` and ``v`` are lists of arrays; row n has entries i = 0..n, built
    by the phase-type recursion or, for Deterministic service, by the block
    matrix exponential (see the module docstring).  Row sums are beta(gamma)
    and 1 - beta(gamma) up to rounding.  ``w`` is ``u`` at gamma = 0, in the
    same layout with row sums 1; it is derived on first access, by building
    the gamma = 0 tables when gamma != 0.
    """

    plan: object
    law: object
    gamma: complex
    u: list
    v: list

    @cached_property
    def w(self):
        if self.gamma == 0:
            return self.u
        return build_tables(self.plan, self.law, 0.0).u

    def v_alpha(self, alpha):
        """Rows n = 0..m of E[e^{-alpha(B-T)} ; i arrivals by T, T <= B].

        Phase-type: gamma x_i (alpha I - S)^{-1} s0, the residual service
        after the deadline being PH from the phase it is in.  Deterministic:
        gamma times the top-right block of the exponential, which carries
        the factor e^{-alpha(d - t)}.  At alpha = 0 the rows are v.
        """
        gamma = self.gamma
        if isinstance(self.law, Deterministic):
            _, integral = _death_blocks(self.plan, self.law.value, gamma, alpha)
            return [gamma * integral[n, n::-1] for n in range(len(integral))]
        start, sub = service.phase_type(self.law)
        exit_rates = -sub.sum(axis=1)
        residual = np.linalg.solve(alpha * np.eye(len(start)) - sub, exit_rates)
        return _phase_rows(self.plan, start, sub, gamma, gamma * residual)


def build_tables(plan, law, gamma):
    """Build the u and v kernel tables for a plan/law/killing-rate triple.

    gamma may be complex (inversion contours evaluate the whole pipeline at
    complex killing rates); the [0,1] range only applies when it is real.
    At gamma = 0 the deadline is infinite: v vanishes and u is w.
    Laws that are neither phase-type nor Deterministic raise
    UnsupportedTransform.
    """
    if isinstance(law, Deterministic):
        growth, integral = _death_blocks(plan, law.value, gamma, 0.0)
        u = [growth[n, n::-1] for n in range(len(growth))]
        v = [gamma * integral[n, n::-1] for n in range(len(integral))]
    else:
        start, sub = service.phase_type(law)
        cols = np.stack([-sub.sum(axis=1), np.full(len(start), gamma)], axis=1)
        rows = _phase_rows(plan, start, sub, gamma, cols)
        u = [row[:, 0] for row in rows]
        v = [row[:, 1] for row in rows]
    return KernelTables(plan=plan, law=law, gamma=gamma, u=u, v=v)
