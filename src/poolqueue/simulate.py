"""Independent oracles: Monte Carlo simulation and exact CTMC computations.

The Monte Carlo path replays the model directly, and therefore shares no
code with the transform pipeline it validates.  Each chunk of _CHUNK
replications draws the interarrival chain, all service times and the kill
times from its own substream; the FIFO single-server recursion and every
estimator then run over one cache-sized block of replications at a time,
on customer-major copies, so memory is one chunk's draws and a few blocks.
The blocking changes no draw.  Level probabilities are estimated from
per-level hit counts.  For phase-type service (alpha, S, s0), as
service.phase_type gives it, the model is a finite continuous-time Markov
chain on (customers present, customers yet to arrive, service phase) with
the plan's rates lams, held as an array x[ell, n, phase] in which the
idle state (0, n) is stored as its mass times alpha: an arrival then moves
every row (ell, n) to (ell+1, n-1) alike, a completion from ell >= 1 feeds
ell-1 through s0 alpha, and only rows ell >= 1 take the phase moves of S.
Its distribution at an exponential deadline (resolvent) follows by
substitution, column by column.  Its distribution at a fixed time is a
full-state pass of the uniformization (inversion._uniformized), the
reference that the per-model record answering the time-domain queries is
tested against.  Deterministic and Pareto service have no finite chain:
both oracles raise service.phase_type's UnsupportedTransform for them.
"""

from dataclasses import dataclass, field
from math import inf, isfinite

import numpy as np

from . import inversion, service
from .errors import check_counts

__all__ = ["SimConfig", "SimReport", "simulate", "ctmc_resolvent", "ctmc_at_time"]

_CHUNK = 200_000  # replications per Philox substream
_BLOCK = 2048  # replications per block of the recursion and the estimators


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo study; a bad k, m or plan raises DomainError, a ValueError."""

    k: int
    m: int
    plan: object
    law: object
    gamma: float | None = None
    times: tuple = ()
    z_grid: tuple = ()
    alpha_grid: tuple = ()
    tail_points: tuple = ()  # (j, t) pairs for empirical P(W_j > t)
    replications: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        check_counts(self.k, self.m, self.plan)
        if self.gamma is not None and not 0 < self.gamma < inf:
            raise ValueError("gamma must be positive and finite, or None")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if any(not t >= 0 for t in self.times):
            raise ValueError("times must be nonnegative")
        if any(not isfinite(z) for z in self.z_grid):
            raise ValueError("z values must be finite")
        if any(not 0 <= a < inf for a in self.alpha_grid):
            raise ValueError("alpha values must be nonnegative and finite")
        if self.gamma is None and (self.z_grid or self.alpha_grid):
            raise ValueError("pgf and workload estimates need a deadline rate gamma")
        for j, t in self.tail_points:
            if not 1 <= j <= self.k + self.m or not t >= 0:
                raise ValueError(f"tail point {(j, t)} needs 1 <= j <= k+m and t >= 0")


@dataclass
class Estimate:
    value: float
    stderr: float


@dataclass
class SimReport:
    config: SimConfig
    kill_pmf: list = field(default_factory=list)  # Estimate per level at T
    time_pmf: dict = field(default_factory=dict)  # t -> list of Estimate
    pgf_values: dict = field(default_factory=dict)  # z -> Estimate of E[z^Z(T)]
    workload_lst: dict = field(default_factory=dict)  # alpha -> Estimate
    waiting_means: list = field(default_factory=list)  # Estimate per customer j
    waiting_tail: dict = field(default_factory=dict)  # (j, t) -> Estimate


def _chunk_rng(seed, chunk_index):
    # Counter-based substreams: one disjoint Philox block per chunk, so the
    # aggregate is independent of execution order.
    bits = np.random.Philox(key=seed)
    bits.advance(chunk_index * (1 << 64))
    return np.random.Generator(bits)


def _draw(config, rng, n_rep):
    """One chunk's interarrival gaps and service times, replication-major.

    Returns gaps, shape (n_rep, m), whose prefix sums are the arrival
    times of customers k+1..k+m (the k initial ones arrive at zero and are
    not stored), and services, shape (n_rep, k+m).  The gaps are standard
    exponentials scaled in place by 1/lambda, which is what rng.exponential
    draws, and the kill times, if any, are the stream's next draws.
    """
    gaps = rng.standard_exponential(size=(n_rep, config.m))
    gaps *= 1.0 / config.plan.lams[:0:-1]
    services = service.sample(config.law, rng, size=(n_rep, config.k + config.m))
    return gaps, services


def _fifo(k, arrivals, services):
    """Start and departure times of a block of replications, customer-major.

    arrivals (m, b) and services (k+m, b) hold one customer per row; the
    returned start and depart are new C-ordered (k+m, b) arrays.  The
    recursion start_j = max(arrival_j, depart_{j-1}) steps row by row, and
    an initial customer (j <= k, arrival zero) starts at depart_{j-1}.
    """
    depart = services.copy(order="C")
    start = np.empty_like(depart)
    prev = np.zeros(depart.shape[1])
    for j in range(depart.shape[0]):
        if j < k:
            start[j] = prev
        else:
            np.maximum(arrivals[j - k], prev, out=start[j])
        depart[j] += start[j]
        prev = depart[j]
    return start, depart


class _Tally:
    """Running sums of every estimator, fed one customer-major block at a
    time.  Level, tail and kill counts are exact integers; the waiting and
    workload sums add each block's pairwise row sums."""

    def __init__(self, config):
        self.config = config
        total = config.k + config.m
        self.n = 0
        self.kill = np.zeros(total + 1, dtype=np.int64)
        self.times = {t: np.zeros(total + 1, dtype=np.int64) for t in config.times}
        self.tail = dict.fromkeys(config.tail_points, 0)
        self.wait = np.zeros((2, total))  # sums of W_j and W_j^2
        self.work = {a: np.zeros(2) for a in config.alpha_grid}

    def _levels(self, arrivals, depart, t):
        """Customers arrived by t (the k initial ones included) and Z(t)."""
        arrived = self.config.k + (arrivals <= t).sum(axis=0)
        return arrived, arrived - (depart <= t).sum(axis=0)

    def add(self, arrivals, start, depart, kill):
        """Score one block; start is overwritten with the waiting times."""
        k, levels = self.config.k, len(self.kill)
        self.n += depart.shape[1]
        start[k:] -= arrivals
        self.wait[0] += start.sum(axis=1)
        self.wait[1] += (start * start).sum(axis=1)
        for j, t in self.tail:
            self.tail[j, t] += int(np.count_nonzero(start[j - 1] > t))
        for t, counts in self.times.items():
            counts += np.bincount(self._levels(arrivals, depart, t)[1], minlength=levels)
        if kill is None:
            return
        arrived, present = self._levels(arrivals, depart, kill)
        self.kill += np.bincount(present, minlength=levels)
        if self.work:
            # FIFO: the work left at T is the last arrival's departure
            # time past T, or zero once it has left or before anyone came.
            work = np.zeros(len(kill))
            seen = np.flatnonzero(arrived)
            last = depart[arrived[seen] - 1, seen]
            work[seen] = np.maximum(last - kill[seen], 0.0)
            for a, sums in self.work.items():
                draws = np.exp(-float(a) * work)
                sums += draws.sum(), (draws * draws).sum()

    def report(self):
        n, config = self.n, self.config
        report = SimReport(config=config)
        if config.gamma is not None:
            report.kill_pmf = _estimates(n, self.kill, self.kill)
        for z in config.z_grid:
            # E[z^Z(T)] is a projection of the level counts at T
            powers = float(z) ** np.arange(len(self.kill))
            sums = (self.kill * powers).sum(), (self.kill * powers**2).sum()
            report.pgf_values[z] = _estimates(n, *sums)[0]
        report.time_pmf = {t: _estimates(n, c, c) for t, c in self.times.items()}
        report.workload_lst = {a: _estimates(n, *s)[0] for a, s in self.work.items()}
        report.waiting_means = _estimates(n, *self.wait)
        report.waiting_tail = {jt: _estimates(n, c, c)[0] for jt, c in self.tail.items()}
        return report


def _estimates(n, sums, squares):
    """Sample means and their standard errors from n draws' sums and sums
    of squares (an indicator squared is itself, so counts are both)."""
    mean = np.atleast_1d(sums) / n
    var = np.maximum(np.atleast_1d(squares) / n - mean**2, 0.0)
    se = np.sqrt(var / n)
    return [Estimate(float(mu), float(e)) for mu, e in zip(mean, se)]


def simulate(config):
    """Run the Monte Carlo study described by config and collect estimates.

    No array of a whole chunk's start, departure or waiting times is
    formed: each block is replayed and scored while it is in cache.
    """
    tally = _Tally(config)
    for index, first in enumerate(range(0, config.replications, _CHUNK)):
        n_rep = min(_CHUNK, config.replications - first)
        rng = _chunk_rng(config.seed, index)
        gaps, services = _draw(config, rng, n_rep)
        kill = None if config.gamma is None else rng.exponential(1.0 / config.gamma, size=n_rep)
        for lo in range(0, n_rep, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            arr = gaps[rows].T.copy()
            # The arrival times, customer-major: row by row, the sums a
            # cumsum would add, at half its cost on this layout.
            for j in range(1, config.m):
                arr[j] += arr[j - 1]
            start, depart = _fifo(config.k, arr, services[rows].T)
            tally.add(arr, start, depart, None if kill is None else kill[rows])
        del gaps, services, kill  # before the next chunk draws
    return tally.report()


def ctmc_resolvent(k, m, plan, law, gamma):
    """Exact distribution of (Z, still-to-arrive) at an Exp(gamma) deadline.

    Returns an array P[ell, n] summed over phases; its marginal over n
    matches the pgf coefficients.  Every transition lowers n or, keeping
    it, ell, so columns n = m..0 are solved in turn, each from ell = k+m-n
    down.  With R_n = ((gamma + lambda_n) I - S)^{-1}, b[ell] the deadline
    and arrival inflow and c_ell = x[ell, n] s0 the completion outflow,

        x[ell, n] = (b[ell] + c_{ell+1} alpha) R_n      (ell >= 1),
        x[0, n] = (b[0] + c_1 alpha) / (gamma + lambda_n),

    so one matmul applies R_n to a whole column and the completions are the
    scalar recursion c_ell = b[ell] R_n s0 + c_{ell+1} alpha R_n s0.
    A law that is not phase-type raises UnsupportedTransform.
    """
    if not 0 < gamma < inf:
        raise ValueError("gamma must be positive and finite")
    check_counts(k, m, plan)
    start, sub, exit_ = service.phase_type(law)
    top, lams = k + m, plan.lams
    res = np.linalg.inv((gamma + lams)[:, None, None] * np.eye(len(start)) - sub)
    feeds = start @ res  # alpha R_n: a completion's restart, per column
    ratios = (feeds @ exit_).tolist()
    x = np.zeros((top + 1, m + 1, len(start)))
    x[k, m] = gamma * start
    for n in range(m, -1, -1):
        col = x[: top - n + 1, n]
        if n < m:
            col[1:] += lams[n + 1] * x[: top - n, n + 1]  # arrivals from n+1
        busy = col[1:] @ res[n]
        done, ratio = (busy @ exit_).tolist(), ratios[n]
        carry = [0.0] * (top - n + 1)  # carry[i] = c_{i+1}
        for i in range(top - n - 1, -1, -1):
            carry[i] = done[i] + ratio * carry[i + 1]
        col[1:] = busy + np.array(carry[1:])[:, None] * feeds[n]
        col[0] = (col[0] + carry[0] * start) / (gamma + lams[n])
    return x.sum(axis=2)


def ctmc_at_time(k, m, plan, law, t):
    """Exact distribution of (Z, still-to-arrive) at time t, by
    uniformization: the array P[ell, n] of inversion's full-state pass,
    summed over phases.  It keeps every state, where the time-domain
    answers keep only the level sums; they are tested against it.  A law
    that is not phase-type raises UnsupportedTransform."""
    return inversion._uniformized(k, m, plan, law, t).sum(axis=2)
