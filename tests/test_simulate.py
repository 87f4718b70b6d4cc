import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from poolqueue import kernels, service, simulate, transient
from poolqueue.errors import UnsupportedTransform
from test_service import reference_sample


LAWS = [
    service.Exponential(1.3),
    service.Erlang(2, 2.0),
    service.HyperExponential((0.3, 0.7), (0.5, 2.0)),
    service.Deterministic(0.8),
    service.Pareto(1.5, 1.0),
]

PHASE_TYPE_LAWS = [
    service.Exponential(1.3),
    service.Erlang(2, 2.0),
    service.HyperExponential((0.3, 0.7), (0.5, 2.0)),
    service.Erlang(4, 4.0),
]
PHASE_TYPE_IDS = ["exp", "erlang2", "hyperexp", "erlang4"]


def reference_replay(config, rng, n_rep):
    """The FIFO recursion one whole column at a time, with the same draws."""
    k, m = config.k, config.m
    total = k + m
    arrivals = np.zeros((n_rep, total))
    if m:
        rates = config.plan.lams[1:]
        gaps = rng.exponential(1.0 / rates[::-1], size=(n_rep, m))
        arrivals[:, k:] = np.cumsum(gaps, axis=1)
    services = reference_sample(config.law, rng, (n_rep, total))
    start = np.zeros((n_rep, total))
    depart = np.zeros((n_rep, total))
    prev_depart = np.zeros(n_rep)
    for j in range(total):
        start[:, j] = np.maximum(arrivals[:, j], prev_depart)
        prev_depart = start[:, j] + services[:, j]
        depart[:, j] = prev_depart
    return arrivals, start, depart


def replay(config, rng, n_rep):
    """(arrival, start, depart), replication-major, from the chunk's stream,
    _arrival_times and _fifo, block by block, as simulate takes them."""
    stream = simulate._stream(config, rng, n_rep)
    blocks = range(0, n_rep, simulate._BLOCK)
    arrivals = [simulate._arrival_times(next(stream)) for _ in blocks]
    start, depart = zip(*(simulate._fifo(config.k, arr, next(stream)) for arr in arrivals))
    arrivals = np.vstack([np.zeros((config.k, n_rep)), np.hstack(arrivals)])
    return arrivals.T, np.hstack(start).T, np.hstack(depart).T


def reference_simulate(config, chunk):
    """Every estimate from whole-chunk arrays, one value per replication:
    levels counted over all customers, the workload as the work present less
    the work done, and the means summed exactly."""
    k, m, gamma = config.k, config.m, config.gamma
    levels = np.arange(k + m + 1)
    draws = {}
    for index, first in enumerate(range(0, config.replications, chunk)):
        n_rep = min(chunk, config.replications - first)
        rng = simulate._chunk_rng(config.seed, index)
        arrivals, start, depart = reference_replay(config, rng, n_rep)
        kill = rng.exponential(1.0 / gamma, size=n_rep)[:, None]
        at = {t: (arrivals <= t).sum(axis=1) - (depart <= t).sum(axis=1) for t in config.times}
        z_kill = (arrivals <= kill).sum(axis=1) - (depart <= kill).sum(axis=1)
        present = ((arrivals <= kill) * (depart - start)).sum(axis=1)
        busy = np.clip(np.minimum(depart, kill) - np.minimum(start, kill), 0.0, None)
        values = {
            "kill": (z_kill[:, None] == levels).astype(float),
            "work": present - busy.sum(axis=1),
            "z_kill": z_kill,
            "wait": start - arrivals,
        }
        values.update({("time", t): (z[:, None] == levels).astype(float) for t, z in at.items()})
        for key, value in values.items():
            draws.setdefault(key, []).append(value)
    draws = {key: np.concatenate(value) for key, value in draws.items()}
    n = config.replications

    def estimates(x):
        x = x.reshape(n, -1)
        mean = np.array([math.fsum(col) for col in x.T]) / n
        var = np.maximum((x * x).sum(axis=0) / n - mean**2, 0.0)
        return [simulate.Estimate(float(mu), float(se)) for mu, se in zip(mean, np.sqrt(var / n))]

    wait = draws["wait"]
    return simulate.SimReport(
        config=config,
        kill_pmf=estimates(draws["kill"]),
        time_pmf={t: estimates(draws["time", t]) for t in config.times},
        pgf_values={z: estimates(float(z) ** draws["z_kill"])[0] for z in config.z_grid},
        workload_lst={a: estimates(np.exp(-a * draws["work"]))[0] for a in config.alpha_grid},
        waiting_means=estimates(wait),
        waiting_tail={
            (j, t): estimates((wait[:, j - 1] > t).astype(float))[0]
            for j, t in config.tail_points
        },
    )


def dense_chain(k, m, plan, law):
    """Dense generator of the (ell, n, phase) chain with each idle state
    (0, n) kept as one state, its start vector and the index of each state."""
    start, sub, _ = service.phase_type(law)
    exit_ = -sub.sum(axis=1)
    phases = range(len(start))
    rates = plan.lams
    index = {}
    for n in range(m + 1):
        index[0, n, 0] = len(index)
        for ell in range(1, k + m - n + 1):
            for ph in phases:
                index[ell, n, ph] = len(index)
    Q = np.zeros((len(index), len(index)))
    for (ell, n, ph), s in index.items():
        Q[s, s] -= rates[n]
        if ell == 0:
            if n:
                Q[s, [index[1, n - 1, nxt] for nxt in phases]] += rates[n] * start
            continue
        if n:
            Q[s, index[ell + 1, n - 1, ph]] += rates[n]
        for nxt in phases:
            Q[s, index[ell, n, nxt]] += sub[ph, nxt]
            if ell == 1:
                Q[s, index[0, n, 0]] += exit_[ph] * (nxt == 0)
            else:
                Q[s, index[ell - 1, n, nxt]] += exit_[ph] * start[nxt]
    init = np.zeros(len(index))
    for ph in phases:
        init[index[k, m, ph if k else 0]] += start[ph]
    return Q, init, index


def fold(vec, index, k, m):
    """A distribution over the chain summed over phases: P[ell, n]."""
    out = np.zeros((k + m + 1, m + 1))
    for (ell, n, _), s in index.items():
        out[ell, n] += vec[s]
    return out


def dense_resolvent(k, m, plan, law, gamma):
    """Resolvent by one dense solve against the CTMC generator."""
    Q, init, index = dense_chain(k, m, plan, law)
    x = np.linalg.solve((gamma * np.eye(len(init)) - Q).T, gamma * init)
    return fold(x, index, k, m)


def dense_at_time(k, m, plan, law, t):
    """Time law by a matrix exponential of the dense generator."""
    Q, init, index = dense_chain(k, m, plan, law)
    return fold(init @ scipy.linalg.expm(Q * t), index, k, m)


def config(**overrides):
    base = dict(
        k=1,
        m=1,
        plan=kernels.Constant(1.0, 1),
        law=service.Exponential(1.0),
        gamma=1.0,
        replications=100_000,
        seed=0,
    )
    base.update(overrides)
    return simulate.SimConfig(**base)


class TestSimulate:
    def test_empty_model(self):
        report = simulate.simulate(
            config(k=0, m=0, plan=kernels.Constant(1.0, 0), replications=1000)
        )
        assert report.kill_pmf[0].value == pytest.approx(1.0)
        assert report.waiting_means == []

    def test_single_customer_split(self):
        report = simulate.simulate(
            config(k=1, m=0, plan=kernels.Constant(1.0, 0), replications=1_000_000)
        )
        est = report.kill_pmf[0]
        assert abs(est.value - 0.5) <= 4 * est.stderr

    def test_second_customer_waiting_mean(self):
        report = simulate.simulate(config(replications=1_000_000))
        est = report.waiting_means[1]
        assert abs(est.value - 0.5) <= 4 * est.stderr

    def test_reproducible_across_chunking(self):
        # more replications than one chunk, so substream stitching matters
        a = simulate.simulate(config(replications=450_000, seed=42))
        b = simulate.simulate(config(replications=450_000, seed=42))
        assert a == b

    def test_seed_changes_estimates(self):
        a = simulate.simulate(config(seed=1, replications=10_000))
        b = simulate.simulate(config(seed=2, replications=10_000))
        assert a.kill_pmf[0].value != b.kill_pmf[0].value

    def test_kill_pmf_matches_transforms(self):
        cfg = config(k=2, m=2, plan=kernels.Proportional(0.8, 2), replications=400_000)
        report = simulate.simulate(cfg)
        exact = transient.pmf(2, 2, cfg.plan, cfg.law, cfg.gamma)
        for level, est in enumerate(report.kill_pmf):
            assert abs(est.value - exact[level]) <= 4 * max(est.stderr, 1e-12)

    def test_pgf_and_workload_targets(self):
        cfg = config(z_grid=(0.5,), alpha_grid=(1.0,), replications=400_000)
        report = simulate.simulate(cfg)
        pg = report.pgf_values[0.5]
        exact_pgf = float(transient.pgf(1, 1, cfg.plan, cfg.law, 1.0)(0.5))
        assert abs(pg.value - exact_pgf) <= 4 * pg.stderr
        wl = report.workload_lst[1.0]
        exact_wl = float(
            np.real(transient.workload_lst(1, 1, cfg.plan, cfg.law, 1.0, 1.0))
        )
        assert abs(wl.value - exact_wl) <= 4 * wl.stderr

    def test_time_grid_against_uniformization(self):
        cfg = config(times=(0.5, 2.0), replications=400_000)
        report = simulate.simulate(cfg)
        for t in cfg.times:
            ref = simulate.ctmc_at_time(1, 1, cfg.plan, cfg.law, t).sum(axis=1)
            for level, est in enumerate(report.time_pmf[t]):
                assert abs(est.value - ref[level]) <= 4 * max(est.stderr, 1e-12)

    def test_level_stderr_is_binomial(self):
        # level estimates are hit frequencies: stderr = sqrt(p (1 - p) / N)
        cfg = config(k=2, m=3, plan=kernels.Constant(0.8, 3), times=(1.5,),
                     tail_points=((3, 0.4),), replications=20_000)
        report = simulate.simulate(cfg)
        ests = report.kill_pmf + report.time_pmf[1.5] + [report.waiting_tail[(3, 0.4)]]
        for est in ests:
            p = est.value
            assert est.stderr == pytest.approx(math.sqrt(p * (1 - p) / 20_000), rel=1e-9)

    def test_probabilities_in_unit_interval(self):
        report = simulate.simulate(config(replications=50_000))
        for est in report.kill_pmf:
            assert 0.0 <= est.value <= 1.0

    def test_tail_points(self):
        cfg = config(
            k=0,
            m=2,
            plan=kernels.Constant(1.0, 2),
            law=service.Pareto(1.5, 1.0),
            gamma=None,
            tail_points=((2, 2.0),),
            replications=200_000,
        )
        report = simulate.simulate(cfg)
        est = report.waiting_tail[(2, 2.0)]
        assert 0.0 < est.value < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(replications=0)
        with pytest.raises(ValueError):
            config(k=-1)
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                config(gamma=gamma)
        for t in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                config(times=(1.0, t))
        # k = m = 1: customers j = 1 and 2 exist
        for point in ((0, 0.5), (3, 0.5), (-1, 0.5), (1, -0.1)):
            with pytest.raises(ValueError):
                config(tail_points=(point,))
        for alpha in (float("nan"), float("inf"), -50.0):
            with pytest.raises(ValueError):
                config(alpha_grid=(0.5, alpha))
        for z in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                config(z_grid=(0.5, z))
        with pytest.raises(ValueError):
            config(seed=-1)
        # pgf and workload estimates are taken at the deadline
        for grids in ({"z_grid": (0.5,)}, {"alpha_grid": (0.5,)}):
            with pytest.raises(ValueError):
                config(gamma=None, **grids)
        config(gamma=None, times=(0.0,), tail_points=((1, 0.0), (2, 1.0)))
        config(z_grid=(-2.0, 0.0, 3.0), alpha_grid=(0.0, 2.5), seed=0)

    @pytest.mark.parametrize("n_rep", [1, 2047, 2049, 5000])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    def test_replay_matches_column_loop(self, law, n_rep):
        cfg = config(k=3, m=5, plan=kernels.Proportional(0.4, 5), law=law)
        got = replay(cfg, simulate._chunk_rng(11, 0), n_rep)
        want = reference_replay(cfg, simulate._chunk_rng(11, 0), n_rep)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    def test_draws_are_the_exponential_calls(self, law):
        # _stream scales standard exponentials itself and draws in slices;
        # the numbers must be those of rng.exponential and of the whole-array
        # service calls, kill times included, and the stream must end there
        cfg = config(k=2, m=6, plan=kernels.Proportional(0.4, 6), law=law, gamma=0.7)
        rng, ref = simulate._chunk_rng(3, 1), simulate._chunk_rng(3, 1)
        n_rep = 3000  # two slices, the second partial
        items = list(simulate._stream(cfg, rng, n_rep))
        blocks = -(-n_rep // simulate._BLOCK)
        assert len(items) == 2 * blocks + 1
        assert all(len(x) == simulate._BLOCK for x in items[: blocks - 1])
        want = ref.exponential(1.0 / cfg.plan.lams[1:][::-1], size=(n_rep, 6))
        assert np.array_equal(np.concatenate(items[:blocks]), want)
        want = reference_sample(law, ref, (n_rep, 8))
        assert np.array_equal(np.concatenate(items[blocks:-1]), want)
        assert np.array_equal(items[-1], ref.exponential(1 / 0.7, n_rep))
        assert np.array_equal(rng.exponential(1 / 0.7, 3000), ref.exponential(1 / 0.7, 3000))

    @pytest.mark.parametrize("k,m", [(0, 4), (4, 0), (0, 0)])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    def test_replay_edges(self, law, k, m):
        cfg = config(k=k, m=m, plan=kernels.Constant(0.9, m), law=law)
        got = replay(cfg, simulate._chunk_rng(5, 0), 2049)
        want = reference_replay(cfg, simulate._chunk_rng(5, 0), 2049)
        for a, b in zip(got, want):
            assert a.shape == (2049, k + m)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k,m", [(0, 0), (2, 0), (0, 3), (1, 1), (3, 10)])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    def test_blocks_match_whole_chunk_reference(self, law, k, m, monkeypatch):
        # 5000-row chunks, not a multiple of the blocks, so every chunk ends
        # in a partial block and the last chunk is partial too
        assert 5000 % simulate._BLOCK
        monkeypatch.setattr(simulate, "_CHUNK", 5000)
        cfg = config(
            k=k, m=m, plan=kernels.Proportional(0.6, m), law=law, gamma=0.9,
            times=(0.0, 0.5, 3.0), z_grid=(0.3, 0.9), alpha_grid=(0.0, 0.5, 2.0),
            tail_points=tuple((j, 0.4 * j) for j in range(1, k + m + 1)),
            replications=12_345, seed=9,
        )
        got = simulate.simulate(cfg)
        want = reference_simulate(cfg, 5000)
        assert got.kill_pmf == want.kill_pmf
        assert got.time_pmf == want.time_pmf
        assert got.waiting_tail == want.waiting_tail
        for key in ("pgf_values", "workload_lst"):
            for x, y in zip(getattr(got, key).values(), getattr(want, key).values()):
                assert x.value == pytest.approx(y.value, rel=1e-14, abs=0.0)
                assert x.stderr == pytest.approx(y.stderr, rel=1e-9, abs=1e-15)
        assert len(got.waiting_means) == k + m
        for x, y in zip(got.waiting_means, want.waiting_means):
            assert x.value == pytest.approx(y.value, rel=1e-12, abs=1e-12)

    def test_fixed_seed_report_is_pinned(self):
        # Every estimate of this fixed-seed run, as the draws, the replay and
        # the tallies make it, bit for bit: a change of layout or of the
        # order of the sums must not move a single value.
        cfg = config(
            k=2, m=5, plan=kernels.Proportional(0.6, 5), law=service.Deterministic(0.8),
            gamma=0.9, times=(3.0,), alpha_grid=(0.5,), tail_points=((4, 0.4),),
            replications=5000, seed=9,
        )
        report = simulate.simulate(cfg)
        assert [e.value for e in report.waiting_means] == [
            0.0, 0.8000000000000002, 1.2702428633399951, 1.665359198204354,
            1.9269454696293193, 1.959888721762906, 1.4616482944886164,
        ]
        assert report.workload_lst[0.5].value == 0.3781095294355395
        assert report.waiting_tail[4, 0.4].value == 0.9748
        assert [e.value for e in report.time_pmf[3.0]] == [
            0.0032, 0.0274, 0.1496, 0.4166, 0.4032, 0.0, 0.0, 0.0
        ]
        assert [e.value for e in report.kill_pmf] == [
            0.0084, 0.029, 0.306, 0.3236, 0.227, 0.0914, 0.0142, 0.0004
        ]

    def test_deterministic_initial_waits_exact(self):
        # initial customer j waits exactly (j - 1) 0.8 in every replication
        law = service.Deterministic(0.8)
        cfg = config(k=6, m=12, plan=kernels.Constant(0.9, 12), law=law,
                     replications=200_000, seed=4)
        report = simulate.simulate(cfg)
        for j, est in enumerate(report.waiting_means[:6], start=1):
            assert est.value == pytest.approx((j - 1) * 0.8, abs=1e-13)

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    def test_peak_memory_is_one_chunk_of_draws(self, law):
        # rng.choice's own uniform and index arrays set HyperExponential's floor.
        cfg = config(
            k=6, m=28, plan=kernels.Constant(0.9, 28), law=law, replications=200_000
        )
        draw_bytes = 200_000 * (2 * 28 + 6) * 8
        tracemalloc.start()
        try:
            simulate.simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1.6 if isinstance(law, service.HyperExponential) else 1.15
        assert peak <= bound * draw_bytes

    def test_draw_error_is_raised_and_ends_the_producer(self, monkeypatch):
        fill, calls = service._fill, []

        def failing_fill(law, rng, out):
            calls.append(len(out))
            if len(calls) == 2:
                raise RuntimeError("draw failed")
            fill(law, rng, out)

        monkeypatch.setattr(service, "_fill", failing_fill)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            simulate.simulate(config(k=2, m=5, plan=kernels.Constant(0.9, 5), replications=10**4))
        assert threading.active_count() == before
        assert len(calls) == 2

    def test_draw_base_exception_reaches_the_caller(self, monkeypatch):
        # a producer that caught only Exception would leave simulate waiting
        # on its queue forever, so simulate runs in a thread joined with a
        # timeout
        class Interrupted(BaseException):
            pass

        def failing_fill(law, rng, out):
            raise Interrupted("draw interrupted")

        monkeypatch.setattr(service, "_fill", failing_fill)
        before, raised = threading.active_count(), []

        def call():
            try:
                simulate.simulate(config(k=2, m=5, plan=kernels.Constant(0.9, 5),
                                         replications=10**4))
            except Interrupted as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "simulate hung on a BaseException from a draw"
        assert [str(exc) for exc in raised] == ["draw interrupted"]
        assert threading.active_count() == before

    def test_replay_error_stops_the_producer(self, monkeypatch):
        # 20 slices of services, each drawn 50 ms late: a producer that
        # runs on after the replay fails would make all 20
        fill, calls = service._fill, []

        def slow_fill(law, rng, out):
            calls.append(len(out))
            if len(calls) > 1:
                time.sleep(0.05)
            fill(law, rng, out)

        def failing_fifo(k, arrivals, services):
            raise RuntimeError("replay failed")

        monkeypatch.setattr(service, "_fill", slow_fill)
        monkeypatch.setattr(simulate, "_fifo", failing_fifo)
        cfg = config(k=2, m=5, plan=kernels.Constant(0.9, 5), replications=20 * simulate._BLOCK)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="replay failed"):
            simulate.simulate(cfg)
        assert threading.active_count() == before
        assert len(calls) < 5

    def test_reports_alike_under_contention(self):
        # Six simulations at once, twelve threads on however few cores,
        # switching every microsecond: a slice handed over twice, out of
        # order or before it is drawn would move an estimate.
        cfg = config(
            k=2, m=5, plan=kernels.Proportional(0.6, 5), law=service.Erlang(2, 2.0),
            times=(1.0,), alpha_grid=(0.5,), replications=3 * simulate._BLOCK + 7,
        )
        want = simulate.simulate(cfg)
        got = []
        workers = [
            threading.Thread(target=lambda: got.append(simulate.simulate(cfg)))
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == [want] * 6


class TestArrivalProcess:
    def test_counts_match_mixture(self):
        # arrivals in [0, t] with 3 outstanding vs h_{3i}(t), which is
        # u[3, 3 - i] for Deterministic(t) service with no deadline
        plan = kernels.Proportional(0.7, 3)
        rng = np.random.default_rng(5)
        reps, t = 1_000_000, 1.1
        rates = plan.lams[1:]
        gaps = rng.exponential(1.0 / rates[::-1], size=(reps, 3))
        counts = (np.cumsum(gaps, axis=1) <= t).sum(axis=1)
        row = kernels.build_tables(plan, service.Deterministic(t), 0.0).u[3]
        for i in range(4):
            h = row[3 - i]
            freq = (counts == i).astype(float)
            se = freq.std(ddof=1) / math.sqrt(reps)
            assert abs(freq.mean() - h) <= 4 * se


class TestCtmcOracles:
    def test_resolvent_single_customer(self):
        dist = simulate.ctmc_resolvent(
            1, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0
        )
        assert dist.sum(axis=1) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_resolvent_empty(self):
        dist = simulate.ctmc_resolvent(
            0, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0
        )
        assert dist[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_resolvent_one_arrival(self):
        dist = simulate.ctmc_resolvent(
            0, 1, kernels.Constant(1.0, 1), service.Exponential(1.0), 1.0
        )
        assert dist.sum(axis=1) == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_resolvent_is_distribution(self):
        dist = simulate.ctmc_resolvent(
            2, 3, kernels.Proportional(0.8, 3), service.Exponential(1.3), 0.7
        )
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist >= -1e-15)

    def test_at_time_zero(self):
        dist = simulate.ctmc_at_time(
            2, 1, kernels.Constant(1.0, 1), service.Exponential(1.0), 0.0
        )
        assert dist[2, 1] == pytest.approx(1.0)

    def test_at_time_pure_death(self):
        dist = simulate.ctmc_at_time(
            1, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0
        )
        assert dist.sum(axis=1) == pytest.approx(
            [1.0 - math.exp(-1.0), math.exp(-1.0)], abs=1e-12
        )

    def test_at_time_rows_sum_to_one(self):
        for t in (0.3, 2.0, 300.0):
            dist = simulate.ctmc_at_time(
                1, 2, kernels.Constant(1.0, 2), service.Exponential(1.0), t
            )
            assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_requires_phase_type_service(self):
        plan = kernels.Constant(1.0, 1)
        dist = simulate.ctmc_resolvent(1, 1, plan, service.Erlang(2, 2.0), 1.0)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        for law in (service.Deterministic(1.0), service.Pareto(1.5, 1.0)):
            with pytest.raises(UnsupportedTransform):
                simulate.ctmc_resolvent(1, 1, plan, law, 1.0)
            with pytest.raises(UnsupportedTransform):
                simulate.ctmc_at_time(1, 1, plan, law, 1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_bad_input_rejected(self, value):
        plan, law = kernels.Constant(1.0, 2), service.Exponential(1.0)
        with pytest.raises(ValueError):
            simulate.ctmc_resolvent(1, 2, plan, law, value)
        if value != 0.0:
            with pytest.raises(ValueError):
                simulate.ctmc_at_time(1, 2, plan, law, value)

    @pytest.mark.parametrize("law", PHASE_TYPE_LAWS, ids=PHASE_TYPE_IDS)
    def test_phase_type_oracles_match_dense_chain(self, law):
        for k, m in [(0, 0), (1, 0), (0, 1), (2, 3), (0, 6), (4, 2), (3, 9)]:
            plan = kernels.Proportional(0.6, m)
            Q, _, _ = dense_chain(k, m, plan, law)
            assert np.max(np.abs(Q.sum(axis=1))) < 1e-14
            for gamma in (0.3, 1.0, 2.7):
                got = simulate.ctmc_resolvent(k, m, plan, law, gamma)
                assert np.max(np.abs(got - dense_resolvent(k, m, plan, law, gamma))) <= 1e-14
                assert got.sum() == pytest.approx(1.0, abs=1e-13)
                assert got.min() >= -1e-15
            for t in (0.5, 4.0, 12.0, 40.0):
                got = simulate.ctmc_at_time(k, m, plan, law, t)
                assert np.max(np.abs(got - dense_at_time(k, m, plan, law, t))) <= 1e-13
                assert got.sum() == pytest.approx(1.0, abs=1e-13)
                assert got.min() >= -1e-15

    @pytest.mark.parametrize("law", PHASE_TYPE_LAWS[1:], ids=PHASE_TYPE_IDS[1:])
    def test_phase_type_resolvent_matches_pmf_at_large_pool(self, law):
        plan = kernels.Constant(0.9, 80)
        marginal = simulate.ctmc_resolvent(20, 80, plan, law, 0.7).sum(axis=1)
        exact = transient.pmf(20, 80, plan, law, 0.7)
        assert np.max(np.abs(marginal - exact)) <= 1e-12

    def test_simulator_vs_resolvent(self):
        cfg = config(k=2, m=2, plan=kernels.Constant(0.9, 2), replications=1_000_000)
        report = simulate.simulate(cfg)
        marginal = simulate.ctmc_resolvent(2, 2, cfg.plan, cfg.law, 1.0).sum(axis=1)
        for level, est in enumerate(report.kill_pmf):
            assert abs(est.value - marginal[level]) <= 4 * max(est.stderr, 1e-12)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize(
        "make_plan",
        [
            lambda m: kernels.Constant(0.9, m),
            lambda m: kernels.Proportional(0.15, m),
            lambda m: kernels.General(tuple(0.2 + 0.37 * (i * 7 % 5) for i in range(m))),
        ],
        ids=["constant", "proportional", "general"],
    )
    def test_resolvent_matches_dense_solve(self, make_plan, gamma):
        law = service.Exponential(1.3)
        for k, m in [(0, 0), (1, 0), (0, 1), (2, 3), (0, 12), (9, 4), (6, 28)]:
            plan = make_plan(m)
            got = simulate.ctmc_resolvent(k, m, plan, law, gamma)
            want = dense_resolvent(k, m, plan, law, gamma)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize(
        "plan", [kernels.Constant(0.9, 200), kernels.Proportional(0.01, 200)],
        ids=["constant", "proportional"],
    )
    def test_resolvent_large_pool(self, plan):
        # 221 x 201 = 44 421 states, too many for a dense solve
        law = service.Exponential(1.1)
        dist = simulate.ctmc_resolvent(20, 200, plan, law, 0.3)
        exact = transient.pgf(20, 200, plan, law, 0.3).coeffs
        assert np.max(np.abs(dist.sum(axis=1) - exact)) <= 1e-12
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
