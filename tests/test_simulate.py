import math

import numpy as np
import pytest

from poolqueue import kernels, service, simulate, transient
from poolqueue.errors import UnsupportedOracle


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
        assert a.to_dict() == b.to_dict()

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


class TestArrivalProcess:
    def test_counts_match_mixture(self):
        # arrivals in [0, t] with 3 outstanding vs h_{3i}(t), which is u_{3i}
        # for Deterministic(t) service with no deadline
        plan = kernels.Proportional(0.7, 3)
        rng = np.random.default_rng(5)
        reps, t = 1_000_000, 1.1
        rates = kernels.plan_rates(plan)
        gaps = rng.exponential(1.0 / rates[::-1], size=(reps, 3))
        counts = (np.cumsum(gaps, axis=1) <= t).sum(axis=1)
        row = kernels.build_tables(plan, service.Deterministic(t), 0.0).u[3]
        for i in range(4):
            h = row[i]
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

    def test_generator_rows_sum_to_zero(self):
        Q, size = simulate._generator(
            2, 3, kernels.Proportional(0.8, 3), service.Exponential(1.3)
        )
        assert np.max(np.abs(Q.sum(axis=1))) < 1e-14

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

    def test_requires_exponential_service(self):
        with pytest.raises(UnsupportedOracle):
            simulate.ctmc_resolvent(
                1, 1, kernels.Constant(1.0, 1), service.Erlang(2, 2.0), 1.0
            )
        with pytest.raises(UnsupportedOracle):
            simulate.ctmc_at_time(
                1, 1, kernels.Constant(1.0, 1), service.Deterministic(1.0), 1.0
            )

    def test_simulator_vs_resolvent(self):
        cfg = config(k=2, m=2, plan=kernels.Constant(0.9, 2), replications=1_000_000)
        report = simulate.simulate(cfg)
        marginal = simulate.ctmc_resolvent(2, 2, cfg.plan, cfg.law, 1.0).sum(axis=1)
        for level, est in enumerate(report.kill_pmf):
            assert abs(est.value - marginal[level]) <= 4 * max(est.stderr, 1e-12)
