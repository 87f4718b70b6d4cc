"""Independent oracles: Monte Carlo simulation and exact CTMC computations.

The Monte Carlo path replays the model directly -- draw the interarrival
chain and all service times, run the FIFO single-server recursion over
cache-sized blocks of replications -- and therefore shares no code with the
transform pipeline it validates.  Level probabilities are estimated from
per-level hit counts.  For exponential service the model is a finite
continuous-time Markov chain on (customers present, customers yet to
arrive).  Every transition lowers the yet-to-arrive count or, keeping it,
the number present, so the chain is acyclic: its distribution at an
exponential deadline (resolvent) follows by forward substitution in O(states)
time and memory.  Its distribution at a fixed time comes from uniformization
of the dense generator, which caps the state space.
"""

from dataclasses import dataclass, field
from math import inf

import numpy as np

from . import kernels, service
from .errors import UnsupportedOracle
from .service import Exponential

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


def _state_index(ell, n, m):
    return ell * (m + 1) + n


def _service_rate(law):
    if not isinstance(law, Exponential):
        raise UnsupportedOracle("exact CTMC oracles require exponential service")
    return law.rate


def _generator(k, m, plan, law):
    """Dense generator of the (ell, n) chain for ctmc_at_time."""
    mu = _service_rate(law)
    size = (k + m + 1) * (m + 1)
    if size > 10_000:
        raise ValueError("CTMC state space too large")
    rates = kernels.plan_rates(plan)
    Q = np.zeros((size, size))
    for ell in range(k + m + 1):
        for n in range(m + 1):
            if ell + n > k + m:
                continue  # unreachable: more customers than the pool holds
            s = _state_index(ell, n, m)
            if n >= 1:
                lam = rates[n - 1]
                Q[s, _state_index(ell + 1, n - 1, m)] += lam
                Q[s, s] -= lam
            if ell >= 1:
                Q[s, _state_index(ell - 1, n, m)] += mu
                Q[s, s] -= mu
    return Q, size


def ctmc_resolvent(k, m, plan, law, gamma):
    """Exact distribution of (Z, still-to-arrive) at an Exp(gamma) deadline.

    Returns an array P[ell, n]; the marginal over n matches the pgf
    coefficients from the transform recursion.  An arrival moves (ell, n)
    to (ell+1, n-1) at rate lambda_n and a departure to (ell-1, n) at rate
    mu, so taking n from m down to 0 and, within n, ell from k+m-n down to
    0 visits every state after both of its predecessors:

        P[ell, n] = (gamma 1{(ell, n) = (k, m)} + lambda_{n+1} P[ell-1, n+1]
                     + mu P[ell+1, n]) / (gamma + lambda_n + mu 1{ell >= 1}).

    States with ell + n > k + m are unreachable and stay zero.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mu = _service_rate(law)
    top = k + m
    rates = [0.0, *kernels.plan_rates(plan)[:m].tolist(), 0.0]  # lambda_0..lambda_{m+1}
    dist = np.zeros((top + 1, m + 1))
    above = [0.0] * (top + 1)  # P[., n+1]
    for n in range(m, -1, -1):
        lam_in, leave = rates[n + 1], gamma + rates[n]
        col = [0.0] + [lam_in * p for p in above[:top]]  # arrivals into (ell, n)
        if n == m:
            col[k] += gamma
        right = 0.0  # P[ell+1, n]
        for ell in range(top - n, -1, -1):
            right = (col[ell] + mu * right) / (leave + (mu if ell else 0.0))
            col[ell] = right
        dist[:, n] = col
        above = col
    return dist


def ctmc_at_time(k, m, plan, law, t):
    """Exact distribution of (Z, still-to-arrive) at time t, by uniformization."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    Q, size = _generator(k, m, plan, law)
    q = float(np.max(-np.diag(Q)))
    init = np.zeros(size)
    init[_state_index(k, m, m)] = 1.0
    if q == 0.0 or t == 0.0:
        return init.reshape(k + m + 1, m + 1)
    if q * t > 200.0:
        # Poisson weights underflow; fall back to a direct matrix exponential.
        from scipy.linalg import expm

        out = init @ expm(Q * t)
        return out.reshape(k + m + 1, m + 1)
    P = np.eye(size) + Q / q
    out = np.zeros(size)
    vec = init
    weight = np.exp(-q * t)
    cumulative = weight
    out += weight * vec
    j = 0
    while cumulative < 1.0 - 1e-12:
        j += 1
        vec = vec @ P
        weight *= q * t / j
        out += weight * vec
        cumulative += weight
        if j > 10_000:
            break
    return out.reshape(k + m + 1, m + 1)
