"""Time-domain answers: P(Z(t) = l), E[z^{Z(t)}] and E[e^{-alpha W(t)}].

For phase-type service (alpha, S) they come from the chain on (customers
present, customers yet to arrive, service phase) by uniformization
(Grassmann, 1977): with q the largest exit rate, the law at time t is the
Poisson(q t) mixture of the powers of the one-step matrix I + Q / q.  The
chain's state is held as the array x[ell, n, phase], in which the idle
state (0, n) is stored as its mass times alpha, so that an arrival moves
every row (ell, n) to (ell + 1, n - 1) alike, a completion from ell >= 1
feeds ell - 1 through s0 alpha, and only rows ell >= 1 take the phase
moves of S.  One step is a few shifted slices.  (0, 0) absorbs, so once
the mass off it is negligible the rest of the series is its limit.  Only
the Poisson weights depend on t, and every answer reads only the level by
phase marginals sum_n x_j[ell, n, phase] of the iterates.  So each model
keeps one record of them (_record, cached on (k, m, plan, law)), grown on
demand: a time point reads its first y + 9 sqrt(y) + 10 rows (y = q t),
a grid of times costs the steps of its largest t once, and a repeated t
costs none.  The record holds rows x (k + m + 1) x p floats, and the stop
bounds its rows.  _uniformized, the full-state pass that ctmc_at_time
returns, is the reference it is tested against.

Deterministic(d) service has no finite chain, but its queue length comes
from the arrivals alone by the reflection map (Takacs, 1962; Prabhu,
1998): with A(u) the arrivals by u and X(u) = d A(u) - u, the work present
is W(t) = max(k d + X(t), sup_u (X(t) - X(u))) and Z(t) = ceil(W(t) / d).
A is nondecreasing, so Z(t) <= l exactly when (A(t) + k - l) d <= t and
A(t - (c + 1) d) >= A(t) - l - c at every grid point t - (c + 1) d >= 0.
The outstanding count m - A is the pure-death chain of the kernels, so
with delta = A(t) - l held as a row index the PMF takes one pass of its
transition matrices e^{L tau}: over t - C d (C the number of grid points),
then C times over d, each after zeroing the states that fail that grid
point's bound.  Every term is a probability, and once the pool has
drained no bound can fail, so the pass stops there.

The Euler inversion (binomial averaging of a trapezoidal Fourier series on
a vertical Bromwich line) remains for the Deterministic workload
transform: the pipeline's expectations at an independent Exp(gamma)
deadline, divided by gamma, are Laplace transforms (in gamma) of the
functions of deterministic time.  Following Abate and Whitt's unified
framework, the method checks itself at a second precision setting: Euler
with ANSWER_NODES gives the answer, Euler with CHECK_NODES the check.  The
transform is evaluated at the nodes of both at once: the kernel tables and
the sweep take the nodes as an array of killing rates, so a time point
costs one table build and one sweep.
"""

import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb, exp, fmod, frexp, inf, ldexp, log2, sqrt
from sys import float_info

import numpy as np

from . import kernels, service, transient
from .errors import ConvergenceWarning, DomainError
from .service import Deterministic

__all__ = [
    "InversionConfig",
    "invert",
    "pmf_at_time",
    "pgf_at_time",
    "workload_lst_at_time",
]

ANSWER_NODES = 32
CHECK_NODES = 40


@dataclass(frozen=True)
class InversionConfig:
    cross_tolerance: float = 1e-6


def _euler_nodes(t, nodes):
    # Abate-Whitt Euler scheme: beta_k = n ln(10)/3 + i pi k on a vertical
    # line, alternating series accelerated by binomial averaging.
    n = nodes // 2
    k = np.arange(2 * n + 1)
    eta = np.zeros(2 * n + 1)
    eta[0] = 0.5
    eta[1 : n + 1] = 1.0
    eta[2 * n] = 2.0**-n
    for j in range(1, n):
        eta[2 * n - j] = eta[2 * n - j + 1] + comb(n, j) * 2.0**-n
    weights = 10.0 ** (n / 3.0) * (-1.0) ** k * eta / t
    s = (n * np.log(10.0) / 3.0 + 1j * np.pi * k) / t
    return s, weights


def invert(fhat, t):
    """Recover f(t) from gamma |-> fhat(gamma) where fhat(gamma)/gamma = L f.

    fhat is the deadline-expectation form E[f at an Exp(gamma) time]; its
    division by gamma gives the plain Laplace transform inverted here.  A
    contour is a set of nodes s_j with weights w_j, and
    f(t) = Re sum_j w_j fhat(s_j) / s_j.  fhat is called once, with the
    1-D array of the nodes of both Euler contours, and returns an array
    with the nodes on its last axis, or a scalar that holds at every node.
    The result is the ANSWER_NODES estimate, with the shape of one node's
    value: an array, inverted componentwise, or else a float.  One
    ConvergenceWarning is emitted unless every component of it agrees with
    the CHECK_NODES estimate within tolerance (a NaN never agrees).
    """
    if not 0 < t < np.inf:
        raise DomainError(f"inversion requires 0 < t < inf, got t={t}")
    answer_nodes, answer_weights = _euler_nodes(t, ANSWER_NODES)
    check_nodes, check_weights = _euler_nodes(t, CHECK_NODES)
    s = np.concatenate((answer_nodes, check_nodes))
    values = np.asarray(fhat(s))
    transform = np.broadcast_to(values, values.shape[:-1] + s.shape) / s
    split = len(answer_nodes)
    estimate = np.real(transform[..., :split] @ answer_weights)
    gap = np.abs(estimate - np.real(transform[..., split:] @ check_weights))
    if not np.all(gap <= InversionConfig().cross_tolerance):
        warnings.warn(
            f"euler-{ANSWER_NODES} and euler-{CHECK_NODES} disagree at t={t}: "
            f"largest gap {np.max(gap)}",
            ConvergenceWarning,
        )
    return estimate if np.ndim(estimate) else float(estimate)


def _poisson_weights(y):
    """Yield the Poisson(y) weights e^{-y} y^j / j! for j = 0, 1, ...

    Each is carried as frac 2^e with frac in [0.5, 1), so none underflows
    on the way up from e^{-y}, which is e^{-y / 2^s} squared s times
    (y / 2^s <= 512 is exact), and one step's rounding is relative: a
    weight is off by ~1e-16 (y / 512 + sqrt(y)) relative, and their sum by
    1.8e-15 at y = 297, where a running log weight carries j times the
    rounding of log y and its sum is off by 1.8e-13.
    """
    squarings = max(0, ceil(log2(y / 512.0))) if y else 0
    frac, power = frexp(exp(-ldexp(y, -squarings)))
    for _ in range(squarings):
        frac, shift = frexp(frac * frac)
        power = 2 * power + shift
    j = 0
    while True:
        yield ldexp(frac, power)
        j += 1
        frac, shift = frexp(frac * y / j)
        power += shift


def _check_time(t):
    if not 0 <= t < inf:
        raise DomainError(f"time-domain answers require 0 <= t < inf, got t={t}")


def _chain(m, plan, law):
    """q, alpha and the one-step operators of the uniformized chain on
    x[ell, n, phase] (module docstring), in the order _step takes them."""
    start, sub = service.phase_type(law)
    rates = np.r_[0.0, kernels.plan_rates(plan)[:m]]  # lambda_0 = 0
    q = float(rates.max() + np.max(-np.diag(sub)))
    # stay and arrive are spelled out over the phases: a product with a
    # trailing axis of length 1 runs numpy's inner loop p entries at a time
    stay = np.repeat((1.0 - rates / q)[:, None], len(start), axis=1)
    arrive = np.repeat((rates[1:] / q)[:, None], len(start), axis=1)
    restart = np.outer(-sub.sum(axis=1) / q, start)  # a completion, then alpha
    return q, start, (stay, arrive, sub / q, restart)


def _step(x, stay, arrive, move, restart):
    """x (I + Q / q): stay, then phase moves, arrivals and completions."""
    nxt = stay * x
    nxt[1:] += x[1:] @ move
    nxt[1:, :-1] += arrive * x[:-1, 1:]
    nxt[:-1] += x[1:] @ restart
    return nxt


def _initial(k, m, start):
    x = np.zeros((k + m + 1, m + 1, len(start)))
    x[k, m] = start
    return x


def _series(q, t):
    """y = q t and the y + 9 sqrt(y) + 10 Poisson terms that reach past all
    but 1e-17 of the weight.  Past the largest float every weight has long
    underflowed to zero, so y stops there."""
    y = min(q * t, float_info.max)
    return y, ceil(y + 9.0 * sqrt(y) + 10.0)


def _stops(j, x):
    """The stationarity stop: at every 8th step, the mass off (0, 0) is
    summed directly, and below 1e-18 the chain counts as absorbed."""
    return j % 8 == 0 and x[1:].sum() + x[0, 1:].sum() < 1e-18


def _uniformized(k, m, plan, law, t):
    """x[ell, n, phase] at time t for phase-type service (module docstring),
    in one pass of the full state: the reference the time-domain answers,
    which read the model's _record, are tested against.

    Once the chain stops (_stops) the remaining Poisson weight goes to
    (0, 0), the limit of every later term, so late times cost about as much
    as the time to empty.
    """
    _check_time(t)
    q, start, ops = _chain(m, plan, law)
    x = _initial(k, m, start)
    y, terms = _series(q, t)
    weights = _poisson_weights(y)
    total = next(weights)
    out = total * x
    for j in range(1, terms):
        x, weight = _step(x, *ops), next(weights)
        out += weight * x
        total += weight
        if _stops(j, x):
            out[0, 0] += (1.0 - total) * start
            break
    return out


class _Record:
    """The t-free part of one phase-type model's uniformization: q, the
    frontier iterate x_J, the stop index (None until the chain stops) and
    rows[j, ell, phase] = sum_n x_j[ell, n, phase] for j <= J.  rows(n)
    grows it on demand, one _step per new row, so every t of the model
    shares one pass; the stop ends the growth, and bounds the record at
    stop + 1 rows of (k + m + 1) x p floats."""

    def __init__(self, k, m, plan, law):
        self.q, self.start, self._ops = _chain(m, plan, law)
        self._x = _initial(k, m, self.start)
        self._ones = np.ones(m + 1)  # ones @ x: 20x faster than x.sum(axis=1)
        self._rows = np.empty((8, k + m + 1, len(self.start)))
        np.matmul(self._ones, self._x, out=self._rows[0])
        self.size, self.stop = 1, None
        self._lock = threading.Lock()

    def rows(self, n):
        """rows[:n], or through the stop if it comes first (read-only)."""
        with self._lock:
            while self.size < n and self.stop is None:
                j = self.size
                self._x = _step(self._x, *self._ops)
                if j == len(self._rows):
                    self._rows = np.concatenate((self._rows, np.empty_like(self._rows)))
                np.matmul(self._ones, self._x, out=self._rows[j])
                self.size = j + 1
                if _stops(j, self._x):
                    self.stop, self._rows = j, self._rows[: j + 1].copy()
            view = self._rows[: min(n, self.size)]
        view.flags.writeable = False
        return view


@lru_cache(maxsize=16)
def _record(k, m, plan, law):
    return _Record(k, m, plan, law)


def _levels(k, m, plan, law, t):
    """sum_n x[ell, n, phase] at time t for phase-type service: the
    record's rows up to the series length under the Poisson(q t) weights,
    and, if the chain stopped within them, the weight left over on (0, 0),
    as _uniformized sums them."""
    _check_time(t)
    record = _record(k, m, plan, law)
    y, terms = _series(record.q, t)
    rows = record.rows(terms)
    weights = np.fromiter(_poisson_weights(y), float, len(rows))
    levels = (weights @ rows.reshape(len(rows), -1)).reshape(rows.shape[1:])
    if record.stop is not None and record.stop < terms:
        levels[0] += (1.0 - sum(weights.tolist())) * record.start
    return levels


def _grid(t, d):
    """(C, t - C d), C the largest integer with C d <= t in floating point,
    as _reflected's readout rounds it, so that at t = j d the departure at
    j d has happened.  Past 2^52 steps the products no longer resolve d,
    but the pass stops at the drain long before a bound can bind, so any
    C that large serves, with t - C d taken exactly by fmod."""
    steps = t // d
    if steps >= 2.0**52:
        return 2**62, fmod(t, d)
    steps = int(steps)
    while (steps + 1) * d <= t:
        steps += 1
    while steps * d > t:
        steps -= 1
    return steps, t - steps * d


def _reflected(k, m, plan, d, t):
    """P(Z(t) = l) for Deterministic(d) service by the reflection map
    (module docstring).  Row delta of x holds P(the grid bounds so far
    hold, outstanding count n) for A(t) - l = delta, on the rows the
    readout bound (delta + k) d <= t admits; P(Z(t) <= l) is then the sum
    of x[delta, n] over A = m - n = l + delta."""
    _check_time(t)
    steps, rest = _grid(t, d)
    first, step = kernels._death_exponentials(plan, d, (rest, d))
    arrived = m - np.arange(m + 1)  # A along the outstanding count n
    deltas = np.arange(-(k + m), m + 1)
    deltas = deltas[(deltas + k) * d <= t][:, None]
    x = np.repeat(first[m:], len(deltas), axis=0)
    for j in range(steps):
        if x[:, 1:].sum() < 1e-18:
            # Drained: A stays put and the bounds only tighten, to A >= delta.
            x *= arrived >= deltas
            break
        x *= arrived >= deltas - (steps - 1 - j)  # the bound at t - (C - j) d
        x = x @ step
    levels = arrived - deltas
    held = (levels >= 0) & (levels <= k + m)
    return np.diff(np.bincount(levels[held], x[held], minlength=k + m + 1), prepend=0.0)


def pmf_at_time(k, m, plan, law, t):
    """P(Z(t) = l) for l = 0..k+m.

    t = 0 is answered analytically (all mass at k).  Phase-type service:
    the uniformized chain's level sums, read from the model's record (one
    per model, of at most stop + 1 rows x (k + m + 1) x p floats, shared
    by every t; module docstring).  Deterministic service: the
    reflection map's pass over the arrival chain.  Either way the mass is
    one up to a 1e-17 truncation and rounding, with no entry negative.
    Other laws raise UnsupportedTransform.
    """
    if t == 0:
        out = np.zeros(k + m + 1)
        out[k] = 1.0
        return out
    if isinstance(law, Deterministic):
        return _reflected(k, m, plan, law.value, t)
    return _levels(k, m, plan, law, t).sum(axis=1)


def pgf_at_time(k, m, plan, law, z, t):
    """E[z^{Z(t)}] at real or complex z: the PMF of pmf_at_time at z."""
    value = np.polynomial.polynomial.polyval(z, pmf_at_time(k, m, plan, law, t))
    return complex(value) if np.iscomplexobj(value) else float(value)


def workload_lst_at_time(k, m, plan, law, alpha, t):
    """E[e^{-alpha W(t)}] at real alpha >= 0.

    Phase-type service: with c >= 1 present in phase phi, the work left is
    the residual service from phi plus c - 1 full services, so the value is
    sum_n x[0, n] 1 + sum_{c >= 1} beta(alpha)^{c-1} sum_n x[c, n]
    (alpha I - S)^{-1} s0 over the uniformized chain, whose sums over n
    are the rows of the model's record, as in pmf_at_time.  Deterministic
    service: Euler inversion, which keeps the real part of the transform
    only.  A complex or negative alpha raises DomainError.
    """
    if np.imag(alpha) != 0 or not 0 <= np.real(alpha) < inf:
        raise DomainError(f"workload_lst_at_time requires a real alpha >= 0, got {alpha}")
    if t == 0:
        return service.lst(law, alpha) ** k
    if isinstance(law, Deterministic):
        return invert(
            lambda gamma: transient.workload_lst(k, m, plan, law, gamma, alpha), t
        )
    start, sub = service.phase_type(law)
    residual = np.linalg.solve(alpha * np.eye(len(start)) - sub, -sub.sum(axis=1))
    levels = _levels(k, m, plan, law, t)
    queued = service.lst(law, alpha) ** np.arange(k + m)
    return float(levels[0].sum() + queued @ (levels[1:] @ residual))
