"""Independent oracles: Monte Carlo simulation and exact CTMC computations.

The Monte Carlo path replays the model directly, and therefore shares no
code with the transform pipeline it validates.  Each chunk of _CHUNK
replications draws the interarrival chain, all service times and the kill
times from its own substream, in that order.  A producer thread draws them
in slices of one cache-sized block of replications, each slice the numbers
the whole-chunk calls put there.  The calling thread runs the FIFO
single-server recursion and every estimator over each block as soon as its
slice arrives, on customer-major copies, in the order one thread would; it
keeps the arrival and departure times in the memory of the draws they
replace until the kill times are drawn, so memory is one chunk's draws and
a few blocks.  Neither the blocking nor the thread changes a draw or a
sum.  Level probabilities are estimated from per-level hit counts.  For
phase-type service (alpha, S, s0), as service.phase_type gives it, the
model is a finite continuous-time Markov chain on (customers present,
customers yet to arrive, service phase) with the plan's rates lams, held
as an array x[ell, n, phase] in which the idle state (0, n) is stored as
its mass times alpha: an arrival then moves every row (ell, n) to (ell+1,
n-1) alike, a completion from ell >= 1 feeds ell-1 through s0 alpha, and
only rows ell >= 1 take the phase moves of S.  Its distribution at an
exponential deadline (resolvent) follows by substitution, column by
column.  Its distribution at a fixed time is a full-state pass of the
uniformization (inversion._uniformized), the reference that the per-model
record answering the time-domain queries is tested against.  Deterministic
and Pareto service have no finite chain: both oracles raise
service.phase_type's UnsupportedTransform for them.
"""

import queue
import threading
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


def _stream(config, rng, n_rep):
    """One chunk's draws in stream order, a slice at a time.

    Returns an iterator that yields the interarrival gaps, then the service
    times, each in slices of _BLOCK replications of one chunk-sized array,
    replication-major: gaps (b, m), whose prefix sums are the arrival times
    of customers k+1..k+m (the k initial ones arrive at zero and are not
    stored), and services (b, k+m).  Then, if there is a deadline, the
    chunk's n_rep kill times.  Each slice holds bit for bit what the
    whole-chunk calls put there: gaps and kill times are standard
    exponentials scaled in place, which is what rng.exponential draws, and
    service.sample_rows keeps the sampler's stream.  The arrays are
    allocated here, in the calling thread, and filled as the iterator
    reaches them: a producer thread that allocated them would hold their
    memory in an allocator arena of its own, besides the calling thread's.
    """
    gaps = np.empty((n_rep, config.m))
    services = service.sample_rows(config.law, rng, (n_rep, config.k + config.m), _BLOCK)
    kill = None if config.gamma is None else np.empty(n_rep)
    return _draw_into(rng, gaps, 1.0 / config.plan.lams[:0:-1], services, kill, config.gamma)


def _draw_into(rng, gaps, scale, services, kill, gamma):
    """The draws of _stream, drawn slice by slice into its arrays."""
    for lo in range(0, len(gaps), _BLOCK):
        rows = gaps[lo : lo + _BLOCK]
        rng.standard_exponential(out=rows)
        rows *= scale
        yield rows
    yield from services
    if kill is not None:
        rng.standard_exponential(out=kill)
        kill *= 1.0 / gamma
        yield kill


def _produce(stream, out, stop):
    """Producer thread: put each item of stream on out, until stop is set.

    An exception the draws raise is put on out in the item's place, for
    the consumer to raise.
    """
    try:
        for item in stream:
            out.put(item)
            if stop.is_set():
                return
    except BaseException as exc:  # raised again in the consumer's thread
        out.put(exc)


def _arrival_times(gaps):
    """Customer-major arrival times (m, b) from one block's gaps (b, m),
    written over the gaps' own memory: row by row, the sums a cumsum would
    add, at half its cost on this layout."""
    steps = gaps.T.copy()
    arr = gaps.reshape(steps.shape)
    arr[:1] = steps[:1]
    for j in range(1, len(arr)):
        np.add(arr[j - 1], steps[j], out=arr[j])
    return arr


def _fifo(k, arrivals, services):
    """Start and departure times of a block of replications, customer-major.

    arrivals (m, b) holds one customer per row and services is the block's
    replication-major (b, k+m) slice of service times.  Returns start, a
    new C-ordered (k+m, b) array, and depart, the same shape over
    services' own memory, which the departures overwrite.  The recursion
    start_j = max(arrival_j, depart_{j-1}) steps row by row, and an initial
    customer (j <= k, arrival zero) starts at depart_{j-1}.
    """
    served = services.T.copy()
    depart = services.reshape(served.shape)
    start = np.empty_like(served)
    prev = np.zeros(served.shape[1])
    for j in range(len(served)):
        if j < k:
            start[j] = prev
        else:
            np.maximum(arrivals[j - k], prev, out=start[j])
        np.add(served[j], start[j], out=depart[j])
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
        self.level_type = np.min_scalar_type(total + 1)  # holds every level

    def _levels(self, arrivals, depart, t):
        """Customers arrived by t (the k initial ones included) and Z(t).

        Each count adds a mask's uint8 view in the smallest integer type
        that holds k+m+1, which is cheaper than summing the bools and, the
        counts being exact, gives the same integers."""
        arrived = self.config.k + (arrivals <= t).view(np.uint8).sum(axis=0, dtype=self.level_type)
        return arrived, arrived - (depart <= t).view(np.uint8).sum(axis=0, dtype=self.level_type)

    def add(self, arrivals, start, depart):
        """Score one block at the fixed times; start is overwritten with
        the waiting times."""
        k, levels = self.config.k, len(self.kill)
        self.n += depart.shape[1]
        start[k:] -= arrivals
        self.wait[0] += start.sum(axis=1)
        self.wait[1] += (start * start).sum(axis=1)
        for j, t in self.tail:
            self.tail[j, t] += int(np.count_nonzero(start[j - 1] > t))
        for t, counts in self.times.items():
            counts += np.bincount(self._levels(arrivals, depart, t)[1], minlength=levels)

    def add_kill(self, arrivals, depart, kill):
        """Score one block at its kill times."""
        arrived, present = self._levels(arrivals, depart, kill)
        self.kill += np.bincount(present, minlength=len(self.kill))
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


def _chunk(config, tally, rng, n_rep):
    """Replay and score one chunk of n_rep replications while a producer
    thread draws its stream from rng; the thread has ended on return,
    whether the chunk was scored or an error was raised."""
    items, stop = queue.SimpleQueue(), threading.Event()
    producer = threading.Thread(
        target=_produce, args=(_stream(config, rng, n_rep), items, stop), daemon=True
    )

    def take():
        item = items.get()
        if isinstance(item, BaseException):
            raise item
        return item

    producer.start()
    try:
        blocks = range(0, n_rep, _BLOCK)
        arrivals = [_arrival_times(take()) for _ in blocks]
        departs = []
        for arr in arrivals:
            start, depart = _fifo(config.k, arr, take())
            tally.add(arr, start, depart)
            departs.append(depart)
        if config.gamma is not None:
            kill = take()
            for lo, arr, depart in zip(blocks, arrivals, departs):
                tally.add_kill(arr, depart, kill[lo : lo + _BLOCK])
    finally:
        stop.set()
        producer.join()


def simulate(config):
    """Run the Monte Carlo study described by config and collect estimates.

    Each chunk runs on two threads.  A producer thread draws the chunk's
    stream (_stream) in slices of whole blocks; this thread replays and
    scores each block as soon as its slice has arrived, while the next one
    is drawn.  Scores at the deadline wait for the kill times, the
    stream's last draws, and are taken block by block after them, from the
    arrival and departure times kept in the memory of the draws they came
    from.  The draws, the blocks and the order of every float sum are
    those of one thread drawing whole chunks, so every estimate is too,
    bit for bit, and memory stays one chunk's draws and a few blocks.
    """
    tally = _Tally(config)
    for index, first in enumerate(range(0, config.replications, _CHUNK)):
        n_rep = min(_CHUNK, config.replications - first)
        _chunk(config, tally, _chunk_rng(config.seed, index), n_rep)
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
