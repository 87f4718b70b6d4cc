"""Arrival-count kernels for the finite customer pool.

Two probability tables drive everything downstream.  Each is a dense
matrix indexed [n, n'], zero where n' > n: n customers are still to arrive
when a service starts, and n' = n - i after i of them have arrived,

* ``u[n, n - i]`` -- during one service time, jointly with the
  independent Exp(gamma) deadline outlasting the service;
* ``v[n, n - i]`` -- before the deadline, jointly with the deadline
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
* Deterministic(d) service: power series in the uniformized death chain
  P = I + L/q, L being the death generator (after Lucantoni's uniformized
  M/G/1-type matrices): u = e^{-gamma d} e^{L d}, a Poisson mixture of the
  P^j, and v / gamma = integral_0^d e^{(L - gamma) t} dt, whose scalar
  weights come from a two-way recursion; at real gamma no term is negative.

kernel_rows returns u together with a multiple of the gamma-free kill
kernel r(a), whose entries also carry E[e^{-a R}] of the residual service R
at the kill (the factor e^{-a (d - t)} for Deterministic): v = gamma r(0),
and the Deterministic waiting-time transforms read r(a) at gamma = 0.  The
phase-type ones need no a: they sweep the phase vectors x_i themselves
(_phase_tables with the columns [s0 | I], see waiting).

gamma may be a 1-D array of killing rates, the nodes of an inversion
contour: both matrices then carry the node axis first, and each node is
computed by the same products as a scalar gamma, which is a batch of one.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import ceil, inf, lgamma, log, sqrt

import numpy as np

# Unused: kept because the benchmark's traced run times this import at setup.
import scipy.special  # noqa: F401

from . import service
from .errors import DomainError
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
    # every cached answer keys on the plan, so its hash is taken once
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if not all(0 < r < inf for r in self.rates):
            raise ValueError("all rates must be positive and finite")
        object.__setattr__(self, "_hash", hash(self.rates))

    def __hash__(self):
        return self._hash

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


def _death_series(lams, q, *coeffs):
    """sum_j c[..., j] P^j for each c in coeffs, with the uniformized death
    chain P = I + L/q (P[n, n] = 1 - lambda_n/q, P[n, n - 1] = lambda_n/q).
    Each leading index is its own vector-matrix product, so nodes do not
    mix; the powers are stacked 2^20 entries at a time."""
    size, terms = len(lams), coeffs[0].shape[-1]
    stay, move = (1.0 - lams / q)[:, None], (lams[1:] / q)[:, None]
    sums = [np.zeros(c.shape[:-1] + (1, size * size), dtype=c.dtype) for c in coeffs]
    power, step = np.eye(size), max(1, 2**20 // size**2)
    for start in range(0, terms, step):
        count = min(step, terms - start)
        powers = np.empty((count + 1, size, size))
        powers[0] = power
        for j in range(count):
            np.multiply(stay, powers[j], out=powers[j + 1])
            powers[j + 1, 1:] += move * powers[j, :-1]
        power = powers[count]
        flat = powers[:count].reshape(count, -1)
        for c, out in zip(coeffs, sums):
            out += c[..., None, start : start + count] @ flat
    return [out.reshape(c.shape[:-1] + (size, size)) for c, out in zip(coeffs, sums)]


def _kill_integrals(x, y, w):
    """G_j = integral_0^1 e^{-x s} (y s)^j / j! ds on w's last axis, where
    w_j = e^{-x} y^j / j!.  x G_j = y G_{j-1} - w_j (x G_0 = 1 - w_0) runs
    forward where |x| > y and backward from zero elsewhere, NaN included,
    so that rounding shrinks at every step."""
    shape, x, w = w.shape, np.atleast_1d(x), np.atleast_2d(w)
    g = np.zeros_like(w)
    up = np.abs(x) > y
    g[up, 0] = (1.0 - w[up, 0]) / x[up]
    for j in range(1, w.shape[-1]):
        g[up, j] = (y * g[up, j - 1] - w[up, j]) / x[up]
        g[~up, -j - 1] = (x[~up] * g[~up, -j] + w[~up, -j]) / y
    return g.reshape(shape)


class _DeathChain:
    """The gamma-free uniformized death chain of one (plan, d): the rates
    lams = (0, lambda_1, ..., lambda_m), q = max(lambda_max, 1/d), y = q d,
    log j! for the y + 9 sqrt(y) + 10 Poisson terms (past them under 1e-17
    of Poisson(y), the widest weight, is left, so one count serves every
    tau in [0, d]), and, built on first use, step and orbit.  The arrays
    are read-only: _death_chain shares one chain among all callers."""

    def __init__(self, plan, d):
        self.d, self.lams = d, np.concatenate(([0.0], plan_rates(plan)))
        top = float(self.lams.max())
        self.q, self.y = max(top, 1.0 / d), max(top * d, 1.0)
        if not self.y < inf:
            raise DomainError(f"lambda_max * d = {top:g} * {d:g} is not finite")
        # over Python ints: lgamma of a numpy scalar is eight times slower
        terms = ceil(self.y + 9.0 * sqrt(self.y) + 10.0)
        self.log_factorials = np.array([lgamma(j + 1.0) for j in range(terms)])
        self.lams.flags.writeable = self.log_factorials.flags.writeable = False

    @cached_property
    def step(self):
        """e^{L d} with each row rescaled to sum to 1, so that row 0 is e_0
        exactly and repeated steps leak no mass."""
        step = _death_series(self.lams, self.q, self.weights((self.d,)))[0][0]
        step /= step.sum(axis=1, keepdims=True)
        step.flags.writeable = False
        return step

    @cached_property
    def orbit(self):
        """orbit[j] = e_m P^j, the full pool's law after j uniformized steps,
        one row per Poisson term."""
        stay, move = 1.0 - self.lams / self.q, self.lams[1:] / self.q
        orbit = np.zeros((len(self.log_factorials), len(self.lams)))
        orbit[0, -1] = 1.0
        for j in range(1, len(orbit)):
            np.multiply(stay, orbit[j - 1], out=orbit[j])
            orbit[j, :-1] += move * orbit[j - 1, 1:]
        orbit.flags.writeable = False
        return orbit

    def weights(self, taus):
        """The Poisson(q tau) weights w[i, j] with e^{L tau} = sum_j w[i, j] P^j,
        one row per tau in [0, d] of taus."""
        terms = np.arange(len(self.log_factorials))
        weights = np.zeros((len(taus), len(terms)))
        weights[:, 0] = 1.0  # e^{L 0} = I
        for row, tau in zip(weights, taus):
            if tau > 0:
                y_tau = self.y * (tau / self.d)
                row[:] = np.exp(terms * log(y_tau) - y_tau - self.log_factorials)
                # Rounding in j log(y) would leave the sum off by ~1e-13 at y ~ 1000.
                row /= row.sum()
        return weights


_death_chain = lru_cache(maxsize=16)(_DeathChain)


def _death_exponentials(plan, d, taus):
    """e^{L tau} for each tau in [0, d] of taus, stacked on the first axis:
    the law after tau of the outstanding count, as a matrix [n, n'].
    n = 0 absorbs: its row is set to e_0, where the series would leave the
    weights' rounding.  The reflection pass takes these for its last steps
    at shifts xi > 0; its other steps are the cached chain's."""
    chain = _death_chain(plan, d)
    out = _death_series(chain.lams, chain.q, chain.weights(taus))[0]
    out[:, 0, 0] = 1.0
    return out


def _deterministic_tables(plan, d, gamma, alpha, scale):
    """u = e^{(L - gamma) d} and scale r(alpha), with r(alpha) the integral
    of e^{(L - gamma) t} e^{-alpha (d - t)} over [0, d], as power series in
    P = I + L/q (see _DeathChain): u = e^{-gamma d} E for the gamma-free
    E = sum_j e^{-y} y^j/j! P^j = e^{L d}, and r = sum_j d e^{-alpha d} G_j
    P^j with x = (q + gamma - alpha) d.  The term count bounds both tails
    and depends on y alone, so nodes do not mix."""
    chain = _death_chain(plan, d)
    lams, q, y, (poisson,) = chain.lams, chain.q, chain.y, chain.weights((d,))
    gammas = np.asarray(gamma)
    g = _kill_integrals(
        y + (gammas - alpha) * d, y, poisson * np.exp((alpha - gammas) * d)[..., None]
    )
    weights = np.expand_dims(scale * d * np.exp(-alpha * d), -1) * g
    death, r = _death_series(lams, q, poisson, weights)
    return np.exp(-gammas * d)[..., None, None] * death, r


def _phase_tables(plan, start, sub, gamma, cols):
    """Tables [c][..., n, n - i] = x_i cols[:, c], gamma.shape leading.

    x_0 = start R_n and x_i = x_{i-1} lambda_{n-i+1} R_{n-i}, with
    R_j = ((gamma + lambda_j) I - S)^{-1}: x_i[k] is the Laplace transform at
    gamma of the density of being in phase k with i arrivals so far.  The
    m + 1 inverses are formed once, so each entry costs one vector-matrix
    product, stacked over the gammas.
    """
    lams = np.concatenate(([0.0], plan_rates(plan)))
    size = len(lams)
    inverses = np.linalg.inv(
        np.add.outer(lams, gamma)[..., None, None] * np.eye(len(start)) - sub
    )
    heads = (start @ inverses)[..., None, :]
    steps = [None] + [lam * inverse for lam, inverse in zip(lams[1:], inverses)]
    shape = (cols.shape[-1],) + np.shape(gamma) + (size, size)
    tables = np.zeros(shape, dtype=np.result_type(inverses, cols))
    for n in range(size):
        xs = [heads[n]]
        for i in range(1, n + 1):
            xs.append(xs[-1] @ steps[n - i + 1])
        row = np.concatenate(xs, axis=-2) @ cols
        tables[..., n, : n + 1] = np.moveaxis(row[..., ::-1, :], -1, 0)
    return tables


def kernel_rows(plan, law, gamma, alpha, scale):
    """u and scale * r(alpha) at killing rate gamma, in the layout
    transient.sweep steps with: shape gamma.shape + (m + 1, m + 1), indexed
    [n, n - i] (see the module docstring).  gamma is a scalar or a 1-D
    array of killing rates, and scale a scalar or of gamma's shape.

    r_{ni}(alpha) integrates e^{-gamma t} E[e^{-alpha(B-t)} ; i arrivals by
    t, t < B] over t, so v = gamma r(0): the tables pass scale = gamma and
    the waiting times scale = 1.  Phase-type: u_{ni} = x_i s0 and
    r_{ni} = x_i (alpha I - S)^{-1} s0, the residual service after t being
    PH from the phase it is in.  Deterministic: power series in the
    uniformized death chain, the second carrying the factor e^{-alpha(d - t)}.
    """
    if isinstance(law, Deterministic):
        return _deterministic_tables(plan, law.value, gamma, alpha, scale)
    start, sub = service.phase_type(law)
    exit_rates = -sub.sum(axis=1)
    residual = np.linalg.solve(alpha * np.eye(len(start)) - sub, exit_rates)
    scaled = np.expand_dims(scale, -1) * residual
    cols = np.stack(np.broadcast_arrays(exit_rates, scaled), axis=-1)
    return tuple(_phase_tables(plan, start, sub, gamma, cols))


@dataclass(frozen=True)
class KernelTables:
    """Kernel tables u and v at a fixed killing rate or array of rates, of
    shape gamma.shape + (m + 1, m + 1) and indexed [n, n - i] (see the
    module docstring).  Row sums are beta(gamma) and 1 - beta(gamma) up to
    rounding."""

    plan: RatePlan
    law: object
    gamma: complex
    u: np.ndarray
    v: np.ndarray

    def v_alpha(self, alpha):
        """E[e^{-alpha(B-T)} ; i arrivals by T, T <= B] at [n, n - i]:
        gamma r(alpha) (see kernel_rows).  At alpha = 0 it is v."""
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
