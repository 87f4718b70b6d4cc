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
costs none.  The record holds rows x (k + m + 1) x p floats, bounded by
the stop and by RECORD_BYTES.  Past that a time point takes _uniformized,
the full-state pass in O(state) memory that ctmc_at_time returns.

Deterministic(d) service has no finite chain, but its workload comes from
the arrivals alone by the reflection map (Takacs, 1962; Prabhu, 1998):
with A(u) the arrivals by u and X(u) = d A(u) - u, the work present is
W(t) = max(k d + X(t), sup_u (X(t) - X(u))) and Z(t) = ceil(W(t) / d).  A
is nondecreasing, so for 0 <= xi < d, W(t) <= j d + xi exactly when
(A(t) + k - j) d <= t + xi and A(u) >= A(t) - j - c at every grid point
u = t + xi - (c + 1) d >= 0.  The outstanding count m - A is the
pure-death chain of the kernels, so with delta = A(t) - j as a row index
one pass of its transition matrices e^{L tau} gives P(W(t) <= j d + xi)
for every j: to the earliest of the C grid points, over d between them
and over d - xi from the last to t, zeroing at each grid point the states
that fail its bound.  At xi = 0 it is P(Z(t) <= j).  No bound zeroes a
row delta <= 0, so one row stands for them all.  Every term is a
probability, and once the pool has drained no bound can fail, so the pass
stops there.

The workload transform, alpha times the integral of e^{-alpha x}
P(W(t) <= x), takes LST_NODES-point Gauss-Legendre in xi on each side of
the break xi* = d - (t - C d), where the grid count steps up: the
integrand is analytic on each side, and a side's shifts share one pass.
Past LST_CLIP / alpha the weight e^{-alpha xi} is below e^{-LST_CLIP}, so
the sides end there; a large alpha would otherwise fall between two nodes.
"""

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, exp, fmod, frexp, inf, ldexp, log2, sqrt
from sys import float_info

import numpy as np

from . import kernels, service
from .errors import DomainError
from .service import Deterministic

__all__ = [
    "InversionConfig",
    "pmf_at_time",
    "pgf_at_time",
    "workload_lst_at_time",
]

LST_NODES = 24
LST_CLIP = 40.0
RECORD_BYTES = 16 * 2**20
_legendre = lru_cache(np.polynomial.legendre.leggauss)  # 0.4 ms a call


# Unused: kept because the benchmark reads its cross_tolerance.
@dataclass(frozen=True)
class InversionConfig:
    cross_tolerance: float = 1e-6


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
    shares one pass; the stop ends the growth, and so does cap, the rows
    of (k + m + 1) x p floats that RECORD_BYTES holds."""

    def __init__(self, k, m, plan, law):
        self.q, self.start, self._ops = _chain(m, plan, law)
        self._x = _initial(k, m, self.start)
        self._ones = np.ones(m + 1)  # ones @ x: 20x faster than x.sum(axis=1)
        self._rows = np.empty((8, k + m + 1, len(self.start)))
        np.matmul(self._ones, self._x, out=self._rows[0])
        self.cap = max(1, RECORD_BYTES // self._rows[0].nbytes)
        self.size, self.stop = 1, None
        self._lock = threading.Lock()

    def rows(self, n):
        """rows[:n], or through the stop or the cap if either comes first
        (read-only)."""
        with self._lock:
            while self.size < min(n, self.cap) and self.stop is None:
                j = self.size
                self._x = _step(self._x, *self._ops)
                if j == len(self._rows):
                    grown = np.empty((min(2 * j, self.cap),) + self._rows.shape[1:])
                    grown[:j] = self._rows
                    self._rows = grown
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
    as _uniformized sums them.  A series that runs past the record's cap
    with no stop takes _uniformized itself."""
    _check_time(t)
    record = _record(k, m, plan, law)
    y, terms = _series(record.q, t)
    rows = record.rows(terms)
    if len(rows) < terms and record.stop is None:
        return _uniformized(k, m, plan, law, t).sum(axis=1)  # past the cap
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


def _reflected(k, m, plan, d, t, shifts):
    """F[i, j] = P(W(t) <= j d + shifts[i]), j = 0..k+m, by the reflection map
    (module docstring) at shifts in [0, d) on one side of the break.  Row
    delta of x[i] holds P(the grid bounds so far hold, outstanding count n)
    for A(t) - j = delta; row 0 stands for every delta <= 0."""
    _check_time(t)
    steps, rest = _grid(t, d)
    shifts = np.asarray(shifts, dtype=float)
    if shifts[0] >= d - rest:  # past the piece break: one grid point more
        steps, rest = steps + 1, rest - d
    count = len(shifts)
    firsts = rest + shifts if steps else np.full(count, t)
    exps = kernels._death_exponentials(plan, d, np.concatenate((firsts, [d], d - shifts)))
    first, step, last = exps[:count], exps[count], exps[count + 1 :]
    arrived = m - np.arange(m + 1)  # A along the outstanding count n
    top = min(m, steps - k)  # the last row the bound (delta + k) d <= t + xi admits
    below = min(0, top)  # row 0 holds the rows -(k + m)..below
    # Row 1 is stepped even where the readout drops it: a single row would
    # take numpy's vector-matrix product, which rounds unlike the matrix one.
    deltas = np.arange(max(top, 1) + 1)[:, None]
    copies = np.concatenate(([below + k + m + 1], deltas[1:, 0] <= top))  # for the drain stop
    x = np.repeat(first[:, None, m], len(deltas), axis=1)
    for j in range(steps):
        if x[:, :, 1:].sum(axis=(0, 2)) @ copies < 1e-18:
            # Drained: A stays put and the bounds only tighten, to A >= delta.
            x *= arrived >= deltas
            break
        x *= arrived >= deltas - (steps - 1 - j)  # the bound at t + xi - (C - j) d
        if j < steps - 1:
            x = (x.reshape(-1, m + 1) @ step).reshape(x.shape)
        else:
            x = x @ last  # from the last grid point t + xi - d to t
    # F[i, j]: row 0's mass at A <= j + below, then x[i, delta, A = j + delta] by delta
    size = k + m + 1
    held = np.cumsum(x[:, 0, ::-1], axis=1)[:, np.minimum(np.arange(size + below), m)]
    levels = arrived - deltas[1 : top + 1]
    kept = levels >= 0
    levels = np.concatenate((np.arange(-below, size), levels[kept]))
    bins = levels + size * np.arange(count)[:, None]
    masses = np.concatenate((held, x[:, 1 : top + 1][:, kept]), axis=1)
    return np.bincount(bins.ravel(), masses.ravel(), count * size).reshape(count, size)


def _reflected_lst(k, m, plan, d, alpha, t):
    """E[e^{-alpha W(t)}] for Deterministic(d) service (module docstring):
    e^{-alpha (k + m + 1) d} plus alpha e^{-alpha j d} times the integral of
    e^{-alpha xi} P(W(t) <= j d + xi) over [0, d), summed over j."""
    _check_time(t)
    _, rest = _grid(t, d)
    breaks = (0.0, d - rest, d) if rest else (0.0, d)
    reach = LST_CLIP / alpha if alpha else inf
    nodes, weights = _legendre(LST_NODES)
    levels = np.exp(-alpha * (d * np.arange(k + m + 1)))
    value = exp(-alpha * (k + m + 1) * d)
    for lo, hi in zip(breaks, breaks[1:]):
        half = 0.5 * (min(hi, reach) - lo)
        if half > 0:
            shifts = lo + half * (1.0 + nodes)
            cdf = _reflected(k, m, plan, d, t, shifts)
            value += alpha * half * ((weights * np.exp(-alpha * shifts)) @ cdf @ levels)
    return float(value)


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
        return np.diff(_reflected(k, m, plan, law.value, t, (0.0,))[0], prepend=0.0)
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
    service: alpha times the integral of e^{-alpha x} P(W(t) <= x), that
    law from the reflection map's pass shifted by xi, by Gauss-Legendre on
    the two pieces of [0, d) either side of the break in the grid count,
    each cut at LST_CLIP / alpha (module docstring).  A complex or negative
    alpha raises DomainError.
    """
    if np.imag(alpha) != 0 or not 0 <= np.real(alpha) < inf:
        raise DomainError(f"workload_lst_at_time requires a real alpha >= 0, got {alpha}")
    if t == 0:
        return service.lst(law, alpha) ** k
    if isinstance(law, Deterministic):
        return _reflected_lst(k, m, plan, law.value, alpha, t)
    start, sub = service.phase_type(law)
    residual = np.linalg.solve(alpha * np.eye(len(start)) - sub, -sub.sum(axis=1))
    levels = _levels(k, m, plan, law, t)
    queued = service.lst(law, alpha) ** np.arange(k + m)
    return float(levels[0].sum() + queued @ (levels[1:] @ residual))
