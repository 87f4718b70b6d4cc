"""Independent oracles: Monte Carlo simulation and exact CTMC computations.

The Monte Carlo path replays the model directly -- draw the interarrival
chain and all service times, run the FIFO single-server recursion over
cache-sized blocks of replications -- and therefore shares no code with the
transform pipeline it validates.  Level probabilities are estimated from
per-level hit counts.  For phase-type service (alpha, S) the model is a
finite continuous-time Markov chain on (customers present, customers yet
to arrive, service phase), held as an array x[ell, n, phase] in which the
idle state (0, n) is stored as its mass times alpha: an arrival then moves
every row (ell, n) to (ell+1, n-1) alike, a completion from ell >= 1 feeds
ell-1 through s0 alpha, and only rows ell >= 1 take the phase moves of S.
Its distribution at an exponential deadline (resolvent) follows by
substitution, column by column; at a fixed time, by uniformization.
"""

from dataclasses import dataclass, field
from math import inf

import numpy as np

from . import kernels, service
from .errors import UnsupportedOracle, UnsupportedTransform

__all__ = ["SimConfig", "SimReport", "simulate", "ctmc_resolvent", "ctmc_at_time"]

_CHUNK = 200_000  # replications per Philox substream
_BLOCK = 2048  # rows per pass of the FIFO recursion, sized to stay in cache


@dataclass(frozen=True)
class SimConfig:
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
        if self.k < 0 or self.m < 0:
            raise ValueError("k and m must be nonnegative")
        if self.gamma is not None and not 0 < self.gamma < inf:
            raise ValueError("gamma must be positive and finite, or None")
        if any(not t >= 0 for t in self.times):
            raise ValueError("times must be nonnegative")
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


class _Acc:
    """Streaming mean/variance accumulator (deterministic reduction order)."""

    def __init__(self, dim):
        self.n = 0
        self.s = np.zeros(dim)
        self.s2 = np.zeros(dim)

    def add(self, block):
        self.n += block.shape[0]
        self.s += block.sum(axis=0)
        self.s2 += (block * block).sum(axis=0)

    def add_counts(self, counts, n):
        """Add n indicator rows given only their column sums; an indicator
        squared is itself, so both sums are the counts."""
        self.n += n
        self.s += counts
        self.s2 += counts

    def estimates(self):
        mean = self.s / self.n
        var = np.maximum(self.s2 / self.n - mean**2, 0.0)
        se = np.sqrt(var / self.n)
        return [Estimate(float(mu), float(e)) for mu, e in zip(mean, se)]


def _chunk_rng(seed, chunk_index):
    # Counter-based substreams: one disjoint Philox block per chunk, so the
    # aggregate is independent of execution order.
    bits = np.random.Philox(key=seed)
    bits.advance(chunk_index * (1 << 64))
    return np.random.Generator(bits)


def _replay(config, rng, n_rep):
    """One vectorized batch of FIFO sample paths.

    Returns (arrival, start, depart) arrays of shape (n_rep, k+m); the
    first k columns are the customers already present at time zero.  The
    recursion start_j = max(arrival_j, depart_{j-1}) runs column by column
    within blocks of _BLOCK rows, so each block's columns stay in cache; the
    draws do not depend on the blocking.
    """
    k, m = config.k, config.m
    total = k + m
    arrivals = np.zeros((n_rep, total))
    if m:
        rates = kernels.plan_rates(config.plan)  # lambda_1..lambda_m
        gaps = rng.exponential(1.0 / rates[::-1], size=(n_rep, m))
        np.cumsum(gaps, axis=1, out=arrivals[:, k:])
        del gaps
    services = service.sample(config.law, rng, size=(n_rep, total))
    start = np.empty((n_rep, total))
    depart = np.empty((n_rep, total))
    for lo in range(0, n_rep, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        arr, srv, st, dep = arrivals[rows], services[rows], start[rows], depart[rows]
        prev_depart = np.zeros(arr.shape[0])
        for j in range(total):
            np.maximum(arr[:, j], prev_depart, out=st[:, j])
            np.add(st[:, j], srv[:, j], out=dep[:, j])
            prev_depart = dep[:, j]
    return arrivals, start, depart


def _count_at(arrivals, depart, t):
    """Z(t) per replication; t is a column vector or scalar.

    The k initial customers occupy the first k columns with arrival time
    zero, so counting arrivals covers them."""
    arrived = (arrivals <= t).sum(axis=1)
    departed = (depart <= t).sum(axis=1)
    return arrived - departed


def _workload_at(arrivals, start, depart, t):
    services = depart - start
    present = (arrivals <= t) * services
    busy = np.clip(np.minimum(depart, t) - np.minimum(start, t), 0.0, None)
    return present.sum(axis=1) - busy.sum(axis=1)


def simulate(config):
    """Run the Monte Carlo study described by config and collect estimates."""
    k, m = config.k, config.m
    total = k + m
    levels = total + 1
    acc_kill = _Acc(levels) if config.gamma is not None else None
    acc_time = {t: _Acc(levels) for t in config.times}
    acc_pgf = {z: _Acc(1) for z in config.z_grid}
    acc_work = {a: _Acc(1) for a in config.alpha_grid}
    acc_wait = _Acc(total) if total else None
    acc_tail = {jt: _Acc(1) for jt in config.tail_points}

    remaining = config.replications
    chunk_index = 0
    while remaining > 0:
        n_rep = min(_CHUNK, remaining)
        rng = _chunk_rng(config.seed, chunk_index)
        arrivals, start, depart = _replay(config, rng, n_rep)
        if total:
            acc_wait.add(start - arrivals)
        for (j, t), acc in acc_tail.items():
            w = start[:, j - 1] - arrivals[:, j - 1]
            acc.add_counts(np.count_nonzero(w > t), n_rep)
        if config.gamma is not None:
            kill = rng.exponential(1.0 / config.gamma, size=n_rep)[:, None]
            z_at_kill = _count_at(arrivals, depart, kill)
            acc_kill.add_counts(np.bincount(z_at_kill, minlength=levels), n_rep)
            for z, acc in acc_pgf.items():
                acc.add((float(z) ** z_at_kill)[:, None])
            if acc_work:
                wl = _workload_at(arrivals, start, depart, kill)
                for a, acc in acc_work.items():
                    acc.add(np.exp(-float(a) * wl)[:, None])
        for t, acc in acc_time.items():
            z_at_t = _count_at(arrivals, depart, float(t))
            acc.add_counts(np.bincount(z_at_t, minlength=levels), n_rep)
        remaining -= n_rep
        chunk_index += 1

    report = SimReport(config=config)
    if acc_kill is not None:
        report.kill_pmf = acc_kill.estimates()
    report.time_pmf = {t: acc.estimates() for t, acc in acc_time.items()}
    report.pgf_values = {z: acc.estimates()[0] for z, acc in acc_pgf.items()}
    report.workload_lst = {a: acc.estimates()[0] for a, acc in acc_work.items()}
    if acc_wait is not None:
        report.waiting_means = acc_wait.estimates()
    report.waiting_tail = {jt: acc.estimates()[0] for jt, acc in acc_tail.items()}
    return report


def _phases(law):
    """(alpha, S, s0 = -S 1) of a phase-type law."""
    try:
        start, sub = service.phase_type(law)
    except UnsupportedTransform as exc:
        raise UnsupportedOracle(f"exact CTMC oracles need phase-type service: {exc}") from None
    return start, sub, -sub.sum(axis=1)


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
    """
    if not 0 < gamma < inf:
        raise ValueError("gamma must be positive and finite")
    start, sub, exit_ = _phases(law)
    top, rates = k + m, np.r_[0.0, kernels.plan_rates(plan)[:m]]  # lambda_0 = 0
    res = np.linalg.inv((gamma + rates)[:, None, None] * np.eye(len(start)) - sub)
    feeds = start @ res  # alpha R_n: a completion's restart, per column
    ratios = (feeds @ exit_).tolist()
    x = np.zeros((top + 1, m + 1, len(start)))
    x[k, m] = gamma * start
    for n in range(m, -1, -1):
        col = x[: top - n + 1, n]
        if n < m:
            col[1:] += rates[n + 1] * x[: top - n, n + 1]  # arrivals from n+1
        busy = col[1:] @ res[n]
        done, ratio = (busy @ exit_).tolist(), ratios[n]
        carry = [0.0] * (top - n + 1)  # carry[i] = c_{i+1}
        for i in range(top - n - 1, -1, -1):
            carry[i] = done[i] + ratio * carry[i + 1]
        col[1:] = busy + np.array(carry[1:])[:, None] * feeds[n]
        col[0] = (col[0] + carry[0] * start) / (gamma + rates[n])
    return x.sum(axis=2)


def ctmc_at_time(k, m, plan, law, t):
    """Exact distribution of (Z, still-to-arrive) at time t, by uniformization.

    With q the largest exit rate, one step x + x Q / q of the (ell, n,
    phase) array is a few shifted slices.  The Poisson series is summed
    over pieces with q dt <= 50, so that e^{-q dt} cannot underflow, each
    stopped past its mean once the weight falls below 1e-18.
    """
    if not 0 <= t < inf:
        raise ValueError("t must be nonnegative and finite")
    start, sub, exit_ = _phases(law)
    rates = np.r_[0.0, kernels.plan_rates(plan)[:m]]  # lambda_0 = 0
    q = rates.max() + np.max(-np.diag(sub))
    stay, arrive = (1.0 - rates / q)[:, None], rates[1:, None] / q
    move, done = sub / q, exit_ / q
    x = np.zeros((k + m + 1, m + 1, len(start)))
    x[k, m] = start
    pieces = int(np.ceil(q * t / 50.0))
    for _ in range(pieces):
        mean = q * t / pieces
        weight = np.exp(-mean)
        step, out, j = x, weight * x, 0
        while j <= mean or weight >= 1e-18:
            nxt = stay * step  # then phase moves, arrivals and completions
            nxt[1:] += step[1:] @ move
            nxt[1:, :-1] += arrive * step[:-1, 1:]
            nxt[:-1] += (step[1:] @ done)[..., None] * start
            step, j = nxt, j + 1
            weight *= mean / j
            out += weight * step
        x = out
    return x.sum(axis=2)
