"""Arrival-count kernels for the finite customer pool.

Two triangular probability tables drive everything downstream, indexed by
(n, i) with 0 <= i <= n <= m, n being the number of customers still to
arrive at the start of a service:

* ``u[n][i]`` -- i arrivals during one service time, jointly with the
  independent Exp(gamma) deadline outlasting the service;
* ``v[n][i]`` -- i arrivals before the deadline, jointly with the deadline
  falling inside the service.

The outstanding count is a pure-death process with rates lambda_n, so a
rate plan is just its vector (lambda_1, ..., lambda_m): one RatePlan,
which Constant, Proportional and General build.  The tables are built in
one of two ways, neither of which forms alternating sums that grow with m:

* phase-type service (alpha, S) with exit vector s0 = -S 1: per row n,
  x_0 = alpha ((gamma + lambda_n) I - S)^{-1} and
  x_i = lambda_{n-i+1} x_{i-1} ((gamma + lambda_{n-i}) I - S)^{-1}
  (lambda_0 = 0), so u_{ni} = x_i s0 and v_{ni} = gamma x_i 1; at real
  gamma every factor is nonnegative;
* Deterministic(d) service: one matrix exponential of the block
  [[(L - gamma I) d, d I], [0, 0]], L being the death generator, whose
  top-left block holds u and whose top-right block holds v / gamma, at
  [n, n - i].

kernel_rows returns u together with a multiple of the gamma-free kill
kernel r(a), whose entries also carry E[e^{-a R}] of the residual service R
at the kill (bottom-right block -a d I for Deterministic): v = gamma r(0),
and the waiting-time transforms read r(a) at gamma = 0.

gamma may be a 1-D array of killing rates, the nodes of an inversion
contour: every row then carries the node axis first, and each node is
computed by the same stacked products as a scalar gamma, which is a batch
of one.
"""

from dataclasses import dataclass
from math import inf

import numpy as np

# Unused: kept because the benchmark's traced run times this import at setup.
import scipy.special  # noqa: F401

from . import service
from .service import Deterministic

__all__ = [
    "RatePlan",
    "Constant",
    "Proportional",
    "General",
    "plan_rates",
    "kernel_rows",
    "KernelTables",
    "build_tables",
]


@dataclass(frozen=True)
class RatePlan:
    """The rates (lambda_1, ..., lambda_m): lambda_n drives the next arrival
    while n customers are still to come.  Rates may repeat."""

    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if not all(0 < r < inf for r in self.rates):
            raise ValueError("all rates must be positive and finite")

    @property
    def m(self):
        return len(self.rates)


def _check_rate_and_size(lam, m):
    if not 0 < lam < inf:
        raise ValueError("rate must be positive and finite")
    if m < 0:
        raise ValueError("pool size must be nonnegative")


def Constant(lam, m):
    """lambda_i = lam for every i: Poisson arrivals stopped after m."""
    _check_rate_and_size(lam, m)
    return RatePlan((lam,) * m)


def Proportional(lam, m):
    """lambda_i = i * lam: i.i.d. Exp(lam) arrival times (order statistics)."""
    _check_rate_and_size(lam, m)
    return RatePlan(lam * np.arange(1, m + 1))


def General(rates):
    """Explicit rate vector (lambda_1, ..., lambda_m)."""
    return RatePlan(rates)


def plan_rates(plan):
    """The vector (lambda_1, ..., lambda_m)."""
    return np.asarray(plan.rates)


def _expm(a):
    """e^a for each matrix of the stack a[..., :, :], which is overwritten:
    scale each until its 1-norm is at most 1/2, sum the degree-18 Taylor
    polynomial (truncation below 1e-22), then square each back by its own
    count, so that a matrix that overflows leaves the others as they would
    be alone.  The loops update in place to hold few stack-sized arrays."""
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(2.0 * norms, 1.0))).astype(int)
    a /= (2.0**squarings)[..., None, None]
    eye = np.eye(a.shape[-1])
    out = eye
    for j in range(18, 0, -1):
        out = a @ out
        out /= j
        out += eye
    for step in range(squarings.max(initial=0)):
        todo = squarings > step
        part = out[todo]
        out[todo] = part @ part
    return out


def _death_blocks(plan, d, gamma, alpha):
    """e^{(L - gamma) d} and integral_0^d e^{(L - gamma) t} e^{-alpha (d - t)} dt,
    with gamma.shape leading.

    L is the generator of the outstanding count, so entry [n, n - i] of the
    first block is e^{-gamma d} P(i arrivals in d | n outstanding).  Both
    come from one exponential of [[(L - gamma I) d, d I], [0, -alpha d I]].
    """
    lams = np.concatenate(([0.0], plan_rates(plan)))
    size = len(lams)
    eye = np.eye(size)
    gammas = np.reshape(gamma, np.shape(gamma) + (1, 1))
    block = np.zeros(
        np.shape(gamma) + (2 * size, 2 * size), dtype=np.result_type(gamma, alpha)
    )
    death = np.diag(lams[1:], -1) - np.diag(lams)
    block[..., :size, :size] = (death - gammas * eye) * d
    block[..., :size, size:] = d * eye
    block[..., size:, size:] = -alpha * d * eye
    e = _expm(block)
    return e[..., :size, :size], e[..., :size, size:]


def _phase_rows(plan, start, sub, gamma, cols):
    """Rows n = 0..m of X_n @ cols, with gamma.shape leading, where X_n
    stacks x_0..x_n of row n.

    x_0 = start R_n and x_i = x_{i-1} lambda_{n-i+1} R_{n-i}, with
    R_j = ((gamma + lambda_j) I - S)^{-1}: x_i[k] is the Laplace transform at
    gamma of the density of being in phase k with i arrivals so far.  The
    m + 1 inverses are formed once, so each entry costs one vector-matrix
    product, stacked over the gammas.
    """
    lams = np.concatenate(([0.0], plan_rates(plan)))
    inverses = np.linalg.inv(
        np.add.outer(lams, gamma)[..., None, None] * np.eye(len(start)) - sub
    )
    heads = (start @ inverses)[..., None, :]
    steps = [None] + [lam * inverse for lam, inverse in zip(lams[1:], inverses)]
    rows = []
    for n in range(len(lams)):
        x = heads[n]
        xs = [x]
        for i in range(1, n + 1):
            x = x @ steps[n - i + 1]
            xs.append(x)
        rows.append(np.concatenate(xs, axis=-2) @ cols)
    return rows


def kernel_rows(plan, law, gamma, alpha, scale):
    """Rows n = 0..m of u and of scale * r(alpha) at killing rate gamma.

    gamma is a scalar or a 1-D array of killing rates (the nodes of an
    inversion contour), and scale is a scalar or has gamma's shape.  Row n
    has shape gamma.shape + (n + 1,): every node runs through the same
    stacked products, and a scalar gamma is a batch of one.

    r_{ni}(alpha) integrates e^{-gamma t} E[e^{-alpha(B-t)} ; i arrivals by
    t, t < B] over t, so v = gamma r(0): the tables pass scale = gamma and
    the waiting times scale = 1.  Phase-type: u_{ni} = x_i s0 and
    r_{ni} = x_i (alpha I - S)^{-1} s0, the residual service after t being
    PH from the phase it is in.  Deterministic: the two blocks of one
    exponential per gamma, the second carrying the factor e^{-alpha(d - t)}.
    """
    scales = np.expand_dims(scale, -1)
    if isinstance(law, Deterministic):
        growth, integral = _death_blocks(plan, law.value, gamma, alpha)
        size = growth.shape[-1]
        return (
            [growth[..., n, n::-1] for n in range(size)],
            [scales * integral[..., n, n::-1] for n in range(size)],
        )
    start, sub = service.phase_type(law)
    exit_rates = -sub.sum(axis=1)
    residual = np.linalg.solve(alpha * np.eye(len(start)) - sub, exit_rates)
    cols = np.stack(np.broadcast_arrays(exit_rates, scales * residual), axis=-1)
    rows = _phase_rows(plan, start, sub, gamma, cols)
    return [row[..., 0] for row in rows], [row[..., 1] for row in rows]


@dataclass(frozen=True)
class KernelTables:
    """Triangular kernel tables at a fixed killing rate or array of rates.

    ``u`` and ``v`` are lists of arrays; row n has entries i = 0..n on its
    last axis, after gamma's shape, built
    by the phase-type recursion or, for Deterministic service, by the block
    matrix exponential (see the module docstring).  Row sums are beta(gamma)
    and 1 - beta(gamma) up to rounding.
    """

    plan: RatePlan
    law: object
    gamma: complex
    u: list
    v: list

    def v_alpha(self, alpha):
        """Rows n = 0..m of E[e^{-alpha(B-T)} ; i arrivals by T, T <= B]:
        gamma r(alpha) (see kernel_rows).  At alpha = 0 the rows are v."""
        return kernel_rows(self.plan, self.law, self.gamma, alpha, self.gamma)[1]


def build_tables(plan, law, gamma):
    """Build the u and v kernel tables for a plan/law/killing-rate triple.

    gamma may be complex (inversion contours evaluate the whole pipeline at
    complex killing rates); the [0,1] range only applies when it is real.
    At gamma = 0 the deadline is infinite: v vanishes and u has row sums 1.
    Laws that are neither phase-type nor Deterministic raise
    UnsupportedTransform.
    """
    u, v = kernel_rows(plan, law, gamma, 0.0, gamma)
    return KernelTables(plan=plan, law=law, gamma=gamma, u=u, v=v)
