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
the stop and by RECORD_BYTES; a longer series steps on unstored from the
record's last iterate.

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
that fail its bound.  At xi = 0 it is P(Z(t) <= j).  The matrices come
from one cached death chain per (plan, d) (kernels._death_chain): the
first step is its orbit e_m P^j under the Poisson weights of the first
time, and each grid step, like the last at xi = 0, is its e^{L d}, whose
rows are rescaled to sum to 1.  No bound zeroes a row delta <= 0, so one
row stands for them all, and its mass is 1 in exact arithmetic: the pass
divides by it once, after its last step, so that rounding leaks no mass.
No grid point more than max(top, 1) before the last (top the largest row
read out) zeroes any row: the rows stay equal up to there, and the steps
up to there are one jump of the single law vector by binary powers of
e^{L d}, O(log C) products.  Every term is a probability, and once the
pool has drained no bound can fail, so the pass stops there; a pool that
never drains costs the jump, not C steps.

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
from math import ceil, exp, fmod, frexp, inf, ldexp, log2

import numpy as np

from . import kernels, service
from .errors import DomainError, check_counts
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


# Read by tests/euler.py and tests/test_inversion.py, and by the benchmark.
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


def _chain(plan, law):
    """q, alpha and the one-step operators of the uniformized chain on
    x[ell, n, phase] (module docstring), in the order _step takes them."""
    start, sub, exit_ = service.phase_type(law)
    lams = plan.lams
    q = float(lams.max() + np.max(-np.diag(sub)))
    # stay and arrive are spelled out over the phases: a product with a
    # trailing axis of length 1 runs numpy's inner loop p entries at a time
    stay = np.repeat((1.0 - lams / q)[:, None], len(start), axis=1)
    arrive = np.repeat((lams[1:] / q)[:, None], len(start), axis=1)
    restart = np.outer(exit_ / q, start)  # a completion, then alpha
    return q, start, (stay, arrive, sub / q, restart)


def _step(x, stay, arrive, move, restart):
    """x (I + Q / q): stay, then phase moves, arrivals and completions."""
    nxt = stay * x
    nxt[1:] += x[1:] @ move
    nxt[1:, :-1] += arrive * x[:-1, 1:]
    nxt[:-1] += x[1:] @ restart
    return nxt


def _initial(k, m, plan, start):
    check_counts(k, m, plan)
    x = np.zeros((k + m + 1, m + 1, len(start)))
    x[k, m] = start
    return x


def _stops(j, x):
    """The stationarity stop: at every 8th step, the mass off (0, 0) is
    summed directly, and below 1e-18 the chain counts as absorbed."""
    return j % 8 == 0 and x[1:].sum() + x[0, 1:].sum() < 1e-18


def _uniformized(k, m, plan, law, t):
    """x[ell, n, phase] at time t for phase-type service (module docstring),
    in one pass of the full state from t = 0: ctmc_at_time's answer and the
    tests' reference for the answers, which read the model's _record.

    Once the chain stops (_stops) the remaining Poisson weight goes to
    (0, 0), the limit of every later term, so late times cost about as much
    as the time to empty.
    """
    _check_time(t)
    q, start, ops = _chain(plan, law)
    x = _initial(k, m, plan, start)
    y, terms = kernels._series(q * t)
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
    rows[j, ell, phase] = sum_n x_j[ell, n, phase] for j <= J.  levels(t)
    grows it on demand, one _step per new row, so every t of the model
    shares one pass; the stop ends the growth, and so does cap, the rows
    of (k + m + 1) x p floats that RECORD_BYTES holds.  A longer series
    steps on from x_J unstored: its terms past the cap, record untouched."""

    def __init__(self, k, m, plan, law):
        self.q, self.start, self._ops = _chain(plan, law)
        self._x = _initial(k, m, plan, self.start)
        self._ones = np.ones(m + 1)  # ones @ x: 20x faster than x.sum(axis=1)
        self._rows = np.empty((8, k + m + 1, len(self.start)))
        np.matmul(self._ones, self._x, out=self._rows[0])
        self.cap = max(1, RECORD_BYTES // self._rows[0].nbytes)
        self.size, self.stop = 1, None
        self._lock = threading.Lock()

    def levels(self, t):
        """sum_n x[ell, n, phase] at time t: the rows, then any terms past
        the cap stepped on from x_J (_step leaves it as it is), under the
        Poisson(q t) weights, plus the weight left after a stop on (0, 0)."""
        y, terms = kernels._series(self.q * t)
        with self._lock:
            while self.size < min(terms, self.cap) and self.stop is None:
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
            rows, x, stop = self._rows[: min(terms, self.size)], self._x, self.stop
        weights = _poisson_weights(y)
        head = np.fromiter(weights, float, len(rows))
        levels = (head @ rows.reshape(len(rows), -1)).reshape(rows.shape[1:])
        total = sum(head.tolist())
        if stop is None:  # the terms past the cap, if any
            for j in range(len(rows), terms):
                x, weight = _step(x, *self._ops), next(weights)
                levels += weight * (self._ones @ x)
                total += weight
                if _stops(j, x):
                    stop = j
                    break
        if stop is not None and stop < terms:
            levels[0] += (1.0 - total) * self.start
        return levels


@lru_cache(maxsize=16)
def _record(k, m, plan, law):
    return _Record(k, m, plan, law)


def _grid(t, d):
    """(C, t - C d), C the largest integer with C d <= t in floating point,
    as _reflected's readout rounds it, so that at t = j d the departure at
    j d has happened.  Past 2^52 steps the products no longer resolve d,
    but any C that large serves, with t - C d taken exactly by fmod: a
    pool still not drained after 2^62 steps has a rate below about
    2^-62 / d, so its last k + m grid steps see an arrival with
    probability about (k + m) 2^-62."""
    steps = t // d
    if steps >= 2.0**52:
        return 2**62, fmod(t, d)
    steps = int(steps)
    while (steps + 1) * d <= t:
        steps += 1
    while steps * d > t:
        steps -= 1
    return steps, t - steps * d


def _jump(law, step, count):
    """law step^count by binary powers of step: the unmasked grid steps in
    O(log count) products, not renormalized (_reflected divides by row 0's
    mass once, after its last step)."""
    while count:
        if count & 1:
            law = law @ step
        count >>= 1
        if count:
            step = step @ step
    return law


def _reflected(k, m, plan, d, t, shifts):
    """F[i, j] = P(W(t) <= j d + shifts[i]), j = 0..k+m, by the reflection map
    (module docstring) at shifts in [0, d) on one side of the break.  Row
    delta of x[i] holds P(the grid bounds so far hold, outstanding count n)
    for A(t) - j = delta; row 0 stands for every delta <= 0.

    The steps are the (plan, d) death chain's (kernels._death_chain): the
    first is its orbit under each shift's Poisson weights, each grid step
    is its e^{L d}, and so is the last at xi = 0; other shifts take their
    own e^{L (d - xi)}.  Grid point j, at offset s = C - 1 - j from the
    last, masks no row while s >= max(top, 1), so the steps before the
    last max(top, 1) grid points are one _jump of the single law vector."""
    check_counts(k, m, plan)
    chain = kernels._death_chain(plan, d)
    steps, rest = _grid(t, d)
    shifts = np.asarray(shifts, dtype=float)
    if shifts[0] >= d - rest:  # past the piece break: one grid point more
        steps, rest = steps + 1, rest - d
    count = len(shifts)
    arrived = m - np.arange(m + 1)  # A along the outstanding count n
    top = min(m, steps - k)  # the last row the bound (delta + k) d <= t + xi admits
    below = min(0, top)  # row 0 holds the rows -(k + m)..below
    # Row 1 is stepped even where the readout drops it: a single row would
    # take numpy's vector-matrix product, which rounds unlike the matrix one.
    deltas = np.arange(max(top, 1) + 1)[:, None]
    masked = min(steps, len(deltas) - 1)  # the grid points that can mask a row
    law = chain.weights(rest + shifts if steps else np.full(count, t)) @ chain.orbit
    x = np.repeat(_jump(law, chain.step, steps - masked)[:, None], len(deltas), axis=1)
    # bounds[j + delta] is the bound A >= delta - (masked - 1 - j) of grid point j
    bounds = arrived >= np.arange(1 - masked, len(deltas))[:, None]
    copies = np.concatenate(([below + k + m + 1], deltas[1:, 0] <= top))  # for the drain stop
    for j in range(masked):
        if x[:, :, 1:].sum(axis=(0, 2)) @ copies < 1e-18:
            # Drained: A stays put and the bounds only tighten, to A >= delta.
            x *= bounds[masked - 1 :]
            break
        x *= bounds[j : j + len(deltas)]
        if j < masked - 1:
            x = (x.reshape(-1, m + 1) @ chain.step).reshape(x.shape)
        elif shifts.any():  # e^{L (d - xi)} from the last grid point t + xi - d to t
            x = chain.series(x, chain.weights(d - shifts))
        else:
            x = x @ chain.step
    x /= x[:, :1].sum(axis=2, keepdims=True)  # row 0's mass, 1 but for rounding
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

    Phase-type service: the uniformized chain's level sums, read from the
    model's record (one per model, of at most stop + 1 rows x (k + m + 1)
    x p floats, shared by every t; module docstring).  Deterministic
    service: the reflection map's pass over the arrival chain.  Either way
    the mass is one up to a 1e-17 truncation and rounding, with no entry
    negative (at t = 0 all on k).  Other laws raise UnsupportedTransform.
    """
    _check_time(t)
    if isinstance(law, Deterministic):
        return np.diff(_reflected(k, m, plan, law.value, t, (0.0,))[0], prepend=0.0)
    return _record(k, m, plan, law).levels(t).sum(axis=1)


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
    each cut at LST_CLIP / alpha (module docstring).  The value is a float,
    beta(alpha)^k at t = 0.  A bad k, m or plan, or an alpha off [0, inf),
    raises DomainError; a complex alpha on that half-line counts as real.
    """
    if np.imag(alpha) != 0 or not 0 <= np.real(alpha) < inf:
        raise DomainError(f"workload_lst_at_time requires a real alpha >= 0, got {alpha}")
    alpha = float(np.real(alpha))
    _check_time(t)
    if isinstance(law, Deterministic):
        return _reflected_lst(k, m, plan, law.value, alpha, t)
    residual = service.residual_lst(law, alpha)
    levels = _record(k, m, plan, law).levels(t)
    queued = service.lst(law, alpha) ** np.arange(k + m)
    return float(levels[0].sum() + queued @ (levels[1:] @ residual))
