import concurrent.futures
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from poolqueue import inversion, kernels, service, simulate, transient
from poolqueue.errors import ConvergenceWarning, DomainError, UnsupportedTransform

import euler


def euler_pmf(k, m, plan, law, t):
    """P(Z(t) = l) by Euler inversion of the deadline PMF, as it comes out
    of invert: the inversion route on its own, whatever route pmf_at_time
    takes for the law."""
    return euler.invert(lambda gamma: transient.pmf(k, m, plan, law, gamma), t)


def both_contours(t):
    """The nodes of both Euler contours at t, in the order invert calls
    fhat at them."""
    return np.concatenate(
        [euler._euler_nodes(t, count)[0] for count in (euler.ANSWER_NODES, euler.CHECK_NODES)]
    )


# deadline-expectation transforms f^(gamma) = gamma * L f(gamma) with known
# originals; the inverter divides by gamma internally
KNOWN_PAIRS = [
    (lambda g: g / (g + 1.0), lambda t: math.exp(-t)),
    (lambda g: g / (g + 2.0), lambda t: math.exp(-2.0 * t)),
    (lambda g: g / (g + 0.5), lambda t: math.exp(-0.5 * t)),
    (lambda g: 1.0 / (g + 1.0), lambda t: 1.0 - math.exp(-t)),
    (lambda g: g / (g + 1.0) ** 2, lambda t: t * math.exp(-t)),
    (lambda g: g / (g + 2.0) ** 2, lambda t: t * math.exp(-2.0 * t)),
    (lambda g: 1.0 / g, lambda t: t),
    (lambda g: 1.0 / g**2, lambda t: t**2 / 2.0),
    (lambda g: g / (g**2 + 1.0), lambda t: math.sin(t)),
    (lambda g: g**2 / (g**2 + 1.0), lambda t: math.cos(t)),
]


class TestInvert:
    def test_exponential_decay(self):
        got = euler.invert(lambda g: g / (g + 1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_constant_function(self):
        for t in (0.3, 1.0, 7.0):
            assert euler.invert(lambda g: 1.0, t) == pytest.approx(1.0, abs=1e-10)

    def test_single_customer_emptying(self):
        # mu_{10}(0; gamma) = mu/(mu+gamma) inverts to P(Z(t)=0) = 1 - e^{-mu t}
        got = euler.invert(lambda g: 1.0 / (1.0 + g), 1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)

    @pytest.mark.parametrize("pair", KNOWN_PAIRS, ids=range(len(KNOWN_PAIRS)))
    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_round_trips(self, pair, t):
        fhat, original = pair
        got = euler.invert(fhat, t)
        assert got == pytest.approx(original(t), abs=1e-8)

    @pytest.mark.parametrize("pair", KNOWN_PAIRS, ids=range(len(KNOWN_PAIRS)))
    def test_methods_agree(self, pair):
        # the answer and the check contour each recover the closed form alone
        fhat, original = pair
        for t in (0.5, 2.0):
            for nodes in (euler.ANSWER_NODES, euler.CHECK_NODES):
                s, weights = euler._euler_nodes(t, nodes)
                assert len(s) == nodes + 1
                got = np.real(fhat(s) / s @ weights)
                assert got == pytest.approx(original(t), abs=1e-8)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_answer_is_the_answer_contour(self, t):
        # the check contour only warns: the value is the ANSWER_NODES sum
        fhat = KNOWN_PAIRS[4][0]
        s, weights = euler._euler_nodes(t, euler.ANSWER_NODES)
        values = np.array([fhat(g) for g in s])
        assert euler.invert(fhat, t) == np.real(values / s @ weights)

    def test_cross_check_warns_on_rough_original(self):
        # a unit step at t = 1 defeats both node counts right at the jump
        with pytest.warns(ConvergenceWarning, match="euler-32 and euler-40"):
            euler.invert(lambda g: np.exp(-g), 1.0)

    @pytest.mark.parametrize("t", [2.0, 4.0])
    def test_cross_check_warns_on_nan(self, t):
        # a NaN at one node of either contour is a disagreement, also when
        # it lies on the check contour and the answer stays finite
        nodes = both_contours(t)
        for bad in (0, len(nodes) - 1):

            def fhat(g):
                return np.nan if g == nodes[bad] else g / (g + 1.0)

            with pytest.warns(ConvergenceWarning, match="nan"):
                got = euler.invert(fhat, t)
            assert np.isnan(got) == (bad == 0)

    def test_vector_transform(self):
        pairs = KNOWN_PAIRS[:6]
        got = euler.invert(lambda g: np.array([f(g) for f, _ in pairs]), 1.3)
        assert got.shape == (len(pairs),)
        for value, (fhat, original) in zip(got, pairs):
            assert value == pytest.approx(euler.invert(fhat, 1.3), abs=1e-10)
            assert value == pytest.approx(original(1.3), abs=1e-8)

    def test_requires_positive_time(self):
        for t in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                euler.invert(lambda g: 1.0, t)
        plan, law = kernels.Constant(1.0, 3), service.Erlang(2, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            with pytest.raises(DomainError):
                inversion.pmf_at_time(1, 3, plan, law, float("inf"))

    def test_fhat_called_once_with_every_node(self):
        calls = []

        def fhat(g):
            calls.append(g)
            return g / (g + 1.0)

        got = euler.invert(fhat, 1.0)
        nodes = both_contours(1.0)
        assert len(set(nodes.tolist())) == 74  # distinct: each is called exactly once
        assert all(np.ndim(g) == 0 for g in calls)
        assert np.array_equal(calls, nodes)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_pmf_at_time_builds_tables_once(self, monkeypatch):
        calls = {"build_tables": 0, "sweep": 0}
        for owner, name in ((kernels, "build_tables"), (transient, "sweep")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        plan = kernels.Constant(0.9, 4)
        euler_pmf(2, 4, plan, service.Erlang(2, 2.0), 1.5)
        assert calls == {"build_tables": 74, "sweep": 74}  # one per node
        euler_pmf(2, 4, plan, service.Deterministic(0.8), 0.5)
        assert calls == {"build_tables": 148, "sweep": 148}
        # pmf_at_time never inverts
        inversion.pmf_at_time(2, 4, plan, service.Deterministic(0.8), 0.5)
        inversion.pmf_at_time(2, 4, plan, service.Erlang(2, 2.0), 1.5)
        assert calls == {"build_tables": 148, "sweep": 148}

    def test_config_validation(self):
        # the tolerance is the one setting: method and node counts are fixed
        assert [f.name for f in dataclasses.fields(inversion.InversionConfig)] == [
            "cross_tolerance"
        ]
        assert inversion.InversionConfig().cross_tolerance == 1e-6
        with pytest.raises(TypeError):
            inversion.InversionConfig(method="euler")
        with pytest.raises(TypeError):
            inversion.InversionConfig(nodes=32)


class TestPmfAtTime:
    def test_time_zero_analytic(self):
        got = inversion.pmf_at_time(
            2, 1, kernels.Constant(1.0, 1), service.Exponential(1.0), 0.0
        )
        assert np.allclose(got, [0, 0, 1, 0])

    @pytest.mark.parametrize(
        "law",
        [service.Exponential(1.3), service.Erlang(2, 2.0), service.Erlang(4, 4.0),
         service.HyperExponential((0.4, 0.6), (1.0, 3.0)), service.Deterministic(0.8)],
    )
    def test_time_zero_is_the_start(self, law):
        # t = 0 takes each law's own route: the record's first row, or the
        # reflection pass with no grid point, both all on k
        for k, m in [(0, 0), (3, 0), (0, 5), (2, 7)]:
            for plan in (kernels.Constant(0.9, m), kernels.Proportional(0.4, m)):
                got = inversion.pmf_at_time(k, m, plan, law, 0.0)
                assert np.array_equal(got, np.eye(k + m + 1)[k])
                for alpha in (0.0, 0.5, 3.0):
                    value = inversion.workload_lst_at_time(k, m, plan, law, alpha, 0.0)
                    assert type(value) is float
                    want = service.lst(law, alpha) ** k
                    assert value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_time_zero_pareto_raises(self):
        plan, law = kernels.Constant(0.7, 3), service.Pareto(1.5, 1.0)
        with pytest.raises(UnsupportedTransform):
            inversion.pmf_at_time(1, 3, plan, law, 0.0)
        with pytest.raises(UnsupportedTransform):
            inversion.pgf_at_time(1, 3, plan, law, 0.5, 0.0)

    def test_single_customer_closed_form(self):
        got = inversion.pmf_at_time(
            1, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0
        )
        assert got[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
        assert got[1] == pytest.approx(math.exp(-1.0), abs=1e-8)

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 4.0])
    def test_matches_uniformization(self, t):
        plan = kernels.Constant(1.0, 1)
        law = service.Exponential(1.0)
        got = euler_pmf(1, 1, plan, law, t)
        ref = simulate.ctmc_at_time(1, 1, plan, law, t).sum(axis=1)
        assert np.max(np.abs(got - ref)) < 1e-6

    def test_long_run_emptying(self):
        got = inversion.pmf_at_time(
            2, 1, kernels.Constant(1.0, 1), service.Exponential(1.0), 50.0
        )
        assert got[0] > 1.0 - 1e-6

    def test_entries_near_unit_interval(self):
        got = inversion.pmf_at_time(
            2, 2, kernels.Proportional(0.8, 2), service.Erlang(2, 2.0), 0.7
        )
        assert np.all(got >= -1e-6)
        assert np.all(got <= 1 + 1e-6)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_erlang_service_supported(self):
        got = inversion.pmf_at_time(
            1, 1, kernels.Constant(1.0, 1), service.Erlang(2, 2.0), 1.3
        )
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(got >= -1e-8)

    def test_deterministic_service_flags_rough_original(self):
        # a deterministic departure epoch makes P(Z(t)=l) jump in t, which
        # the cross-check at a second node count reports rather than hiding
        with pytest.warns(ConvergenceWarning):
            euler_pmf(1, 1, kernels.Constant(1.0, 1), service.Deterministic(0.8), 1.3)


class TestCrossCheckRegressions:
    """The check is Euler at a second node count: it stays quiet where the
    answer is right and warns where it is not.  Every case calls the
    inversion directly, since pmf_at_time never inverts."""

    def test_large_pool_late_time_is_quiet_and_right(self):
        plan, law = kernels.Constant(0.95, 40), service.Exponential(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = euler_pmf(5, 40, plan, law, 40.0)
        ref = simulate.ctmc_at_time(5, 40, plan, law, 40.0).sum(axis=1)
        assert np.max(np.abs(got - ref)) < 1e-9

    def test_late_probe_is_quiet(self):
        # Euler-32 is off by 1.6e-11 against simulate.ctmc_at_time
        plan, law = kernels.Constant(0.85, 20), service.Erlang(2, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = euler_pmf(2, 20, plan, law, 20.0)
        ref = simulate.ctmc_at_time(2, 20, plan, law, 20.0).sum(axis=1)
        assert np.max(np.abs(got - ref)) < 1e-9

    def test_hyperexponential_proportional_is_quiet_and_right(self):
        # Euler-32 is off by 4.4e-12 against simulate.ctmc_at_time
        plan = kernels.Proportional(0.05, 25)
        law = service.HyperExponential((0.4, 0.6), (1.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = euler_pmf(3, 25, plan, law, 12.0)
        ref = simulate.ctmc_at_time(3, 25, plan, law, 12.0).sum(axis=1)
        assert np.max(np.abs(got - ref)) < 1e-9

    def test_deterministic_quiet_before_first_departure(self):
        plan, law = kernels.Constant(1.25, 10), service.Deterministic(0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            euler_pmf(1, 10, plan, law, 0.5)
        with pytest.warns(ConvergenceWarning, match="euler-32 and euler-40"):
            euler_pmf(1, 10, plan, law, 2.0)

    def test_large_pool_very_late_time_warns(self):
        # Euler-32 is off by 6.9e-6 here against simulate.ctmc_at_time and
        # the gap to Euler-40 is 7.2e-6
        plan, law = kernels.Constant(0.95, 60), service.Exponential(1.0)
        with pytest.warns(ConvergenceWarning, match="euler-32 and euler-40"):
            got = euler_pmf(5, 60, plan, law, 120.0)
        ref = simulate.ctmc_at_time(5, 60, plan, law, 120.0).sum(axis=1)
        assert np.max(np.abs(got - ref)) > 1e-6

    @pytest.mark.parametrize("t", [60.0, 120.0])
    def test_large_pool_erlang_late_time_warns(self, t):
        # Euler-32 is off by 1.4e-6 at t = 60 and 3.6e-4 at t = 120
        plan, law = kernels.Constant(0.95, 60), service.Erlang(4, 4.0)
        with pytest.warns(ConvergenceWarning, match="euler-32 and euler-40"):
            got = euler_pmf(5, 60, plan, law, t)
        ref = simulate.ctmc_at_time(5, 60, plan, law, t).sum(axis=1)
        assert np.max(np.abs(got - ref)) > 1e-6


class TestScalarWrappers:
    @pytest.mark.parametrize(
        "law", [service.Deterministic(0.8), service.Exponential(1.0)], ids=["det", "exp"]
    )
    def test_workload_lst_at_complex_typed_real_alpha(self, law):
        # An alpha of complex type on the real axis is its real part: the
        # same float, with no ComplexWarning and no TypeError
        plan = kernels.Constant(1.0, 3)
        want = inversion.workload_lst_at_time(2, 3, plan, law, 2.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inversion.workload_lst_at_time(2, 3, plan, law, 2 + 0j, 1.0)
        assert type(got) is float and got == want

    def test_pgf_at_time_zero(self):
        got = inversion.pgf_at_time(
            2, 1, kernels.Constant(1.0, 1), service.Exponential(1.0), 0.6, 0.0
        )
        assert got == pytest.approx(0.36)

    def test_pgf_matches_pmf(self):
        plan = kernels.Constant(1.0, 1)
        law = service.Exponential(1.0)
        z, t = 0.7, 0.9
        probs = inversion.pmf_at_time(1, 1, plan, law, t)
        direct = inversion.pgf_at_time(1, 1, plan, law, z, t)
        assert direct == pytest.approx(float(probs @ z ** np.arange(3)), abs=1e-8)
        # The PGF is the polynomial of the PMF that pmf_at_time returns, whose
        # mass is 1.
        assert inversion.pgf_at_time(1, 1, plan, law, 1.0, t) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("z", [0.5 + 0.2j, -0.3 + 0.8j, 1j])
    def test_pgf_at_complex_z_matches_uniformization(self, z):
        plan, law = kernels.Constant(1.0, 3), service.Exponential(1.0)
        got = inversion.pgf_at_time(1, 3, plan, law, z, 1.0)
        probs = simulate.ctmc_at_time(1, 3, plan, law, 1.0).sum(axis=1)
        assert abs(got - probs @ z ** np.arange(len(probs))) < 1e-8
        assert inversion.pgf_at_time(1, 3, plan, law, z, 0.0) == z

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_workload_rejects_complex_alpha(self, t):
        plan, law = kernels.Constant(1.0, 3), service.Exponential(1.0)
        with pytest.raises(DomainError):
            inversion.workload_lst_at_time(1, 3, plan, law, 0.5 + 0.2j, t)

    def test_workload_at_time_zero(self):
        law = service.Erlang(2, 2.0)
        got = inversion.workload_lst_at_time(
            2, 1, kernels.Constant(1.0, 1), law, 1.5, 0.0
        )
        assert got == pytest.approx(service.lst(law, 1.5) ** 2, abs=1e-12)

    def test_workload_monte_carlo(self):
        # E[e^{-alpha W(t)}] vs direct simulation at a fixed time
        plan = kernels.Constant(1.0, 1)
        law = service.Exponential(1.0)
        alpha, t = 0.8, 0.7
        got = inversion.workload_lst_at_time(1, 1, plan, law, alpha, t)

        rng = np.random.default_rng(3)
        reps = 400_000
        b = rng.exponential(1.0, size=(reps, 2))
        arrival = rng.exponential(1.0, size=reps)
        # one initial customer plus one arrival; the server is
        # work-conserving, so remaining work is total arrived work minus
        # elapsed busy time (clamped once everything is finished)
        done = np.minimum(b[:, 0], t) + np.clip(
            t - np.maximum(arrival, b[:, 0]), 0.0, None
        ) * (arrival <= t)
        w = b[:, 0] + np.where(arrival <= t, b[:, 1], 0.0) - done
        vals = np.exp(-alpha * np.maximum(w, 0.0))
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - got) <= 4 * se


PHASE_TYPE = [
    service.Exponential(1.0),
    service.Erlang(2, 2.0),
    service.HyperExponential((0.4, 0.6), (1.0, 3.0)),
]
PHASE_TYPE_IDS = ["exp", "erlang2", "hyperexp"]


RECORD_LAWS = PHASE_TYPE + [service.Erlang(4, 4.0)]
RECORD_LAW_IDS = PHASE_TYPE_IDS + ["erlang4"]
RECORD_TIMES = (0.5, 2.0, 12.0, 120.0, 1e6)


def full_state_pmf(k, m, plan, law, t):
    return inversion._uniformized(k, m, plan, law, t).sum(axis=(1, 2))


def full_state_workload_lst(k, m, plan, law, alpha, t):
    """workload_lst_at_time's readout, from the full-state array."""
    start, sub, _ = service.phase_type(law)
    residual = np.linalg.solve(alpha * np.eye(len(start)) - sub, -sub.sum(axis=1))
    levels = inversion._uniformized(k, m, plan, law, t).sum(axis=1)
    queued = service.lst(law, alpha) ** np.arange(k + m)
    return float(levels[0].sum() + queued @ (levels[1:] @ residual))


class TestUniformizedRoute:
    """Phase-type time-domain answers come from the uniformized chain."""

    def test_never_inverts_phase_type(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inverted a phase-type law")

        monkeypatch.setattr(transient, "pmf", refuse)
        monkeypatch.setattr(transient, "workload_lst", refuse)
        plan = kernels.Proportional(0.7, 4)
        for law in PHASE_TYPE:
            probs = inversion.pmf_at_time(2, 4, plan, law, 1.5)
            assert probs.sum() == pytest.approx(1.0, abs=1e-14)
            assert inversion.pgf_at_time(2, 4, plan, law, 0.5, 1.5) == pytest.approx(
                probs @ 0.5 ** np.arange(7), abs=1e-15
            )
            assert 0 < inversion.workload_lst_at_time(2, 4, plan, law, 0.7, 1.5) < 1

    @pytest.mark.parametrize(
        "k, m, plan, law, t",
        [
            # Euler-32 is off by 3.6e-4 here and warns
            (5, 60, kernels.Constant(0.95, 60), service.Erlang(4, 4.0), 120.0),
            (3, 25, kernels.Proportional(0.05, 25), PHASE_TYPE[2], 12.0),
        ],
        ids=["erlang4-m60-t120", "hyperexp-prop-m25-t12"],
    )
    def test_matches_monte_carlo(self, k, m, plan, law, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            probs = inversion.pmf_at_time(k, m, plan, law, t)
        cfg = simulate.SimConfig(
            k=k, m=m, plan=plan, law=law, times=(t,), replications=200_000, seed=17
        )
        estimates = simulate.simulate(cfg).time_pmf[t]
        n = cfg.replications
        for p, est in zip(probs, estimates):
            # the standard error under the exact p: a level too rare to be
            # hit then scores its own shortfall instead of dividing by zero
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(est.value - p) <= 4 * se + 1e-15

    @pytest.mark.parametrize("law", PHASE_TYPE, ids=PHASE_TYPE_IDS)
    @pytest.mark.parametrize("alpha", [0.7, 3.0])
    @pytest.mark.parametrize("t", [1.0, 4.0, 12.0])
    def test_workload_matches_euler(self, law, alpha, t):
        plan = kernels.Constant(0.85, 20)
        got = inversion.workload_lst_at_time(2, 20, plan, law, alpha, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            ref = euler.invert(
                lambda g: transient.workload_lst(2, 20, plan, law, g, alpha), t
            )
        assert abs(got - ref) <= 1e-9

    def test_workload_at_zero_alpha_is_mass(self):
        plan, law = kernels.Constant(0.85, 20), PHASE_TYPE[2]
        got = inversion.workload_lst_at_time(2, 20, plan, law, 0.0, 4.0)
        assert got == pytest.approx(1.0, abs=1e-14)
        empty = inversion.workload_lst_at_time(0, 0, kernels.Constant(1.0, 0), law, 0.7, 4.0)
        assert empty == 1.0

    @pytest.mark.parametrize("t", [60.0, 120.0])
    def test_large_pool_mass_and_sign(self, t):
        plan, law = kernels.Constant(0.95, 60), service.Erlang(4, 4.0)
        probs = inversion.pmf_at_time(5, 60, plan, law, t)
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)
        assert probs.min() >= 0.0

    def test_very_late_time_is_an_empty_queue(self):
        # the stationarity stop: without it the series has 3e12 terms
        plan, law = kernels.Constant(0.85, 20), service.Erlang(2, 2.0)
        began = time.perf_counter()
        probs = inversion.pmf_at_time(2, 20, plan, law, 1e12)
        assert time.perf_counter() - began < 1.0
        assert np.max(np.abs(probs - np.eye(23)[0])) <= 1e-15

    def test_stop_waits_for_customers_yet_to_arrive(self):
        # an arrival rate of 1e-25 leaves the served pool idle at (0, 1),
        # not absorbed at (0, 0): the idle rows count as mass off (0, 0)
        plan = kernels.General((1e-25,))
        dist = simulate.ctmc_at_time(1, 1, plan, service.Exponential(1.0), 100.0)
        assert dist[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert dist[0, 0] < 1e-20

    @pytest.mark.parametrize("law", RECORD_LAWS, ids=RECORD_LAW_IDS)
    @pytest.mark.parametrize("kind", ["const", "prop", "general"])
    @pytest.mark.parametrize("k, m", [(2, 12), (0, 8), (3, 0)], ids=["k2-m12", "k0", "m0"])
    def test_record_matches_full_state_in_any_order(self, law, kind, k, m):
        # t = 120 and 1e6 fall past the stationarity stop
        plan = {
            "const": kernels.Constant(0.85, m),
            "prop": kernels.Proportional(0.15, m),
            "general": kernels.General(tuple(0.3 + 0.2 * i for i in range(m))),
        }[kind]

        def answers(times):
            return {
                t: (
                    inversion.pmf_at_time(k, m, plan, law, t),
                    inversion.workload_lst_at_time(k, m, plan, law, 0.7, t),
                )
                for t in times
            }

        inversion._record.cache_clear()
        ascending = answers(RECORD_TIMES)
        inversion._record.cache_clear()
        descending = answers(RECORD_TIMES[::-1])
        for t in RECORD_TIMES:
            inversion._record.cache_clear()
            alone = answers((t,))[t]
            for got in (ascending[t], descending[t]):
                assert np.array_equal(got[0], alone[0]) and got[1] == alone[1]
            probs, lst = alone
            assert np.max(np.abs(probs - full_state_pmf(k, m, plan, law, t))) <= 1e-14
            assert abs(lst - full_state_workload_lst(k, m, plan, law, 0.7, t)) <= 1e-14
        assert inversion._record(k, m, plan, law).stop is not None

    @pytest.fixture
    def steps(self, monkeypatch):
        steps = []

        def counted(*args, _step=inversion._step):
            steps.append(None)
            return _step(*args)

        monkeypatch.setattr(inversion, "_step", counted)
        return steps

    def test_a_model_costs_one_pass(self, steps):
        plan, law = kernels.Constant(0.85, 20), service.Erlang(2, 2.0)
        grid = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
        inversion._record.cache_clear()
        for t in grid:
            inversion.pmf_at_time(2, 20, plan, law, t)
        record = inversion._record(2, 20, plan, law)
        y = record.q * grid[-1]
        assert record.stop is None
        assert len(steps) == record.size - 1 == math.ceil(y + 9.0 * math.sqrt(y) + 10.0) - 1
        steps.clear()
        for t in grid:
            inversion.pmf_at_time(2, 20, plan, law, t)
            inversion.workload_lst_at_time(2, 20, plan, law, 0.7, t)
        assert not steps

    def test_threads_share_one_record(self):
        plan, law = kernels.Constant(0.85, 20), service.Erlang(2, 2.0)
        times = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0] * 4
        inversion._record.cache_clear()
        serial = {t: inversion.pmf_at_time(2, 20, plan, law, t) for t in times}
        inversion._record.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                got = list(
                    pool.map(lambda t: inversion.pmf_at_time(2, 20, plan, law, t), times, timeout=60)
                )
        finally:
            sys.setswitchinterval(interval)
        for t, probs in zip(times, got):
            assert np.array_equal(probs, serial[t])
        y = inversion._record(2, 20, plan, law).q * 12.0
        assert inversion._record(2, 20, plan, law).size == math.ceil(y + 9.0 * math.sqrt(y) + 10.0)

    def test_stop_bounds_the_record(self):
        plan, law = kernels.Constant(0.85, 20), service.Erlang(2, 2.0)
        inversion._record.cache_clear()
        for t in (1e4, 1e12):  # series of 30 030 and about 2.85e12 terms
            inversion.pmf_at_time(2, 20, plan, law, t)
            record = inversion._record(2, 20, plan, law)
            assert record.stop is not None
            assert record.size == record.stop + 1 == len(record._rows) <= 300

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_cap_bounds_the_record_memory(self):
        # a pool that never drains never stops: without the cap the record
        # took 204 035 rows and 193 MB at t = 1e5.  The peak is the fresh
        # interpreter's VmHWM: its ru_maxrss would keep the forking
        # process's peak.
        code = (
            "from poolqueue import inversion, kernels, service\n"
            "plan, law = kernels.General((1e-25,) * 20), service.Erlang(2, 2.0)\n"
            "probs = inversion.pmf_at_time(2, 20, plan, law, 1e5)\n"
            "record = inversion._record(2, 20, plan, law)\n"
            "assert record.stop is None and record.size == record.cap\n"
            "assert abs(probs[0] - 1.0) <= 1e-12\n"
            "status = open('/proc/self/status').read().split()\n"
            "print(status[status.index('VmHWM:') + 1])\n"
        )
        source = os.path.dirname(os.path.dirname(inversion.__file__))
        path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) <= 100 * 1024  # in kB

    def test_answers_past_the_cap_are_the_full_state_pass(self, monkeypatch):
        # a cap of 50 rows: t = 0.5 reads 23 rows, t = 4 and 12 need 52 and
        # 97, and the chain stops only after 264
        plan, law = kernels.Constant(0.85, 20), service.Erlang(2, 2.0)
        monkeypatch.setattr(inversion, "RECORD_BYTES", 50 * 23 * 2 * 8)
        inversion._record.cache_clear()
        try:
            for t in (0.5, 4.0, 12.0, 0.5):
                probs = inversion.pmf_at_time(2, 20, plan, law, t)
                lst = inversion.workload_lst_at_time(2, 20, plan, law, 0.7, t)
                assert np.max(np.abs(probs - full_state_pmf(2, 20, plan, law, t))) <= 1e-14
                assert abs(lst - full_state_workload_lst(2, 20, plan, law, 0.7, t)) <= 1e-14
            record = inversion._record(2, 20, plan, law)
            assert record.size == record.cap == 50 and record.stop is None
        finally:
            inversion._record.cache_clear()

    @pytest.fixture
    def capped(self, monkeypatch):
        """A 50-row record cap on the Constant(0.85, 20), Erlang(2, 2) model:
        t = 0.5 reads 23 rows, t = 12 needs 97, and the chain stops at step
        264 of the 299 terms of t = 60."""
        monkeypatch.setattr(inversion, "RECORD_BYTES", 50 * 23 * 2 * 8)
        inversion._record.cache_clear()
        yield kernels.Constant(0.85, 20), service.Erlang(2, 2.0)
        inversion._record.cache_clear()

    @pytest.mark.parametrize("t", [12.0, 60.0])
    def test_a_past_cap_call_steps_only_past_the_cap(self, capped, steps, t):
        plan, law = capped
        inversion._uniformized(2, 20, plan, law, t)
        full = len(steps)  # terms - 1, or the stop if it comes first
        inversion.pmf_at_time(2, 20, plan, law, t)
        steps.clear()
        inversion.pmf_at_time(2, 20, plan, law, t)
        record = inversion._record(2, 20, plan, law)
        y = record.q * t
        terms = math.ceil(y + 9.0 * math.sqrt(y) + 10.0)
        assert len(steps) == full - (record.cap - 1) <= terms - record.cap
        if t == 12.0:
            assert len(steps) == terms - record.cap == 47

    def test_past_cap_calls_leave_the_record_as_it_was(self, capped):
        plan, law = capped
        inversion.pmf_at_time(2, 20, plan, law, 4.0)  # fills the 50 rows
        record = inversion._record(2, 20, plan, law)
        x, rows = record._x, record._rows
        frontier = x.copy()
        for t in (12.0, 60.0, 1e3, 12.0):
            inversion.pmf_at_time(2, 20, plan, law, t)
            inversion.workload_lst_at_time(2, 20, plan, law, 0.7, t)
            assert (record.size, record.stop) == (record.cap, None)
            assert record._x is x and record._rows is rows
            assert np.array_equal(x, frontier)

    def test_a_stop_in_the_streamed_tail_is_the_full_state_pass(self, capped, steps):
        plan, law = capped
        probs = inversion.pmf_at_time(2, 20, plan, law, 60.0)
        lst = inversion.workload_lst_at_time(2, 20, plan, law, 0.7, 60.0)
        assert np.max(np.abs(probs - full_state_pmf(2, 20, plan, law, 60.0))) <= 1e-14
        assert abs(lst - full_state_workload_lst(2, 20, plan, law, 0.7, 60.0)) <= 1e-14
        # the full-state pass steps to the stop: past the cap, short of the terms
        steps.clear()
        inversion._uniformized(2, 20, plan, law, 60.0)
        stop = len(steps)
        record = inversion._record(2, 20, plan, law)
        y = record.q * 60.0
        assert record.cap <= stop < math.ceil(y + 9.0 * math.sqrt(y) + 10.0) - 1
        assert record.stop is None

    def test_threads_mixing_stored_and_streamed_times_match_serial(self, capped):
        plan, law = capped
        times = [0.5, 12.0, 2.0, 60.0, 4.0, 1e3, 1.0, 30.0] * 4

        def answer(t):
            return (
                inversion.pmf_at_time(2, 20, plan, law, t),
                inversion.workload_lst_at_time(2, 20, plan, law, 0.7, t),
            )

        serial = {t: answer(t) for t in times}
        inversion._record.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                got = list(pool.map(answer, times, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for t, (probs, lst) in zip(times, got):
            assert np.array_equal(probs, serial[t][0]) and lst == serial[t][1]
        record = inversion._record(2, 20, plan, law)
        assert (record.size, record.stop) == (record.cap, None)

    @pytest.mark.parametrize("load", [0.7, 1.3])
    @pytest.mark.parametrize("mu", [0.8, 1.25])
    def test_time_grid_records_stay_under_the_cap(self, load, mu):
        # the benchmark's time grid and its two phase-type models, at the
        # ends of its load and service-rate ranges
        times = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
        inversion._record.cache_clear()
        for k, m, law in ((2, 20, service.Erlang(2, 2.0)), (3, 12, service.Exponential(mu))):
            plan = kernels.Constant(load / service.mean(law), m)
            for t in times:
                inversion.pmf_at_time(k, m, plan, law, t)
            record = inversion._record(k, m, plan, law)
            assert record.size <= 300 < record.cap

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_bad_time_rejected(self, t):
        plan = kernels.Constant(1.0, 3)
        for law in (service.Erlang(2, 2.0), service.Deterministic(0.8)):
            with pytest.raises(DomainError):
                inversion.pmf_at_time(1, 3, plan, law, t)
            with pytest.raises(DomainError):
                inversion.pgf_at_time(1, 3, plan, law, 0.5, t)
            with pytest.raises(DomainError):
                inversion.workload_lst_at_time(1, 3, plan, law, 0.5, t)
        with pytest.raises(DomainError):
            simulate.ctmc_at_time(1, 3, plan, service.Erlang(2, 2.0), t)

    def test_deterministic_route_inverts_nothing(self, monkeypatch):
        # Deterministic service: the PMF and the workload transform come from
        # the reflection map, with no inversion, table or sweep
        plan, law = kernels.Constant(1.25, 10), service.Deterministic(0.8)

        def refuse(*args, **kwargs):
            raise AssertionError("a Deterministic time-domain answer took the transform route")

        with monkeypatch.context() as patch:
            for owner, name in ((euler, "invert"), (kernels, "kernel_rows"), (transient, "sweep")):
                patch.setattr(owner, name, refuse)
            probs = inversion.pmf_at_time(1, 10, plan, law, 0.5)
            assert inversion.pgf_at_time(1, 10, plan, law, 0.5, 0.5) == pytest.approx(
                probs @ 0.5 ** np.arange(12), abs=1e-15
            )
            got = inversion.workload_lst_at_time(1, 10, plan, law, 0.7, 0.5)
        assert probs.sum() == pytest.approx(1.0, abs=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            ref = euler.invert(lambda g: transient.workload_lst(1, 10, plan, law, g, 0.7), 0.5)
        assert abs(got - ref) <= 1e-10

    @pytest.mark.parametrize("y", [0.0, 0.3, 5.7, 297.0, 5000.0, 123456.7])
    def test_poisson_weights(self, y):
        terms = math.ceil(y + 9.0 * math.sqrt(y) + 10.0)
        weights = list(itertools.islice(inversion._poisson_weights(y), terms))
        # each weight carries ~eps (y/512 + sqrt(y)) of relative rounding
        assert math.fsum(weights) == pytest.approx(1.0, abs=2e-16 * (y / 512 + math.sqrt(y) + 10))
        for j in range(min(terms, 60)):
            exact = math.exp(-y + j * math.log(y) - math.lgamma(j + 1.0)) if y else float(j == 0)
            assert weights[j] == pytest.approx(exact, rel=1e-12, abs=1e-300)
        if y > 100:
            mode = int(y)
            # e^{-y} y^mode / mode! by Stirling's series, with no term of size y
            log_mode = mode * math.log1p((y - mode) / mode) - (y - mode) - 0.5 * math.log(
                2 * math.pi * mode
            ) - 1.0 / (12 * mode) + 1.0 / (360 * mode**3)
            assert weights[mode] == pytest.approx(math.exp(log_mode), rel=1e-13)


REFLECTION_CASES = [
    (1, 10, kernels.Constant(1.25, 10), service.Deterministic(0.8)),
    (0, 8, kernels.Constant(1.0, 8), service.Deterministic(1.0)),
    (3, 12, kernels.Proportional(0.3, 12), service.Deterministic(1.3)),
    (2, 0, kernels.Constant(1.0, 0), service.Deterministic(0.8)),
]
REFLECTION_IDS = ["k1-const", "k0-const", "k3-prop", "no-pool"]


def workload_monte_carlo(k, m, plan, d, reps, seed):
    """A function of (alpha, t) giving E[e^{-alpha W(t)}] and its standard
    error from reps replications of the arrival times.  W(t) = (D - t)^+,
    D the departure time of the last customer to arrive by t, or k d when
    none has: under FIFO, the i-th arrival leaves at max(D_{i-1}, T_i) + d."""
    rng = np.random.default_rng(seed)
    rates = np.asarray(plan.rates)[::-1]  # the i-th arrival comes at rate lambda_{m-i+1}
    arrivals = np.cumsum(rng.exponential(1.0, (reps, m)) / rates, axis=1)

    def estimate(alpha, t):
        departure = np.full(reps, k * d)
        for column in arrivals.T:
            departure = np.where(column <= t, np.maximum(departure, column) + d, departure)
        values = np.exp(-alpha * np.maximum(departure - t, 0.0))
        return values.mean(), values.std(ddof=1) / math.sqrt(reps)

    return estimate


def stepped_reflection(k, m, plan, d, t, shifts):
    """_reflected as a plain masked pass: scipy's exponentials of the death
    generator for the first, grid and last steps, every grid point stepped,
    and the drain stop.  The reference the cached chain, its series and the
    jump are tested against."""
    steps, rest = inversion._grid(t, d)
    shifts = np.asarray(shifts, dtype=float)
    if shifts[0] >= d - rest:
        steps, rest = steps + 1, rest - d
    count = len(shifts)
    firsts = rest + shifts if steps else np.full(count, t)
    lams = plan.lams
    death = np.diag(lams[1:], -1) - np.diag(lams)
    taus = np.concatenate((firsts, [d], d - shifts))
    exps = np.array([scipy.linalg.expm(death * tau) for tau in taus])
    first, step, last = exps[:count], exps[count], exps[count + 1 :]
    arrived = m - np.arange(m + 1)
    top = min(m, steps - k)
    below = min(0, top)
    deltas = np.arange(max(top, 1) + 1)[:, None]
    copies = np.concatenate(([below + k + m + 1], deltas[1:, 0] <= top))
    x = np.repeat(first[:, None, m], len(deltas), axis=1)
    for j in range(steps):
        if x[:, :, 1:].sum(axis=(0, 2)) @ copies < 1e-18:
            x *= arrived >= deltas
            break
        x *= arrived >= deltas - (steps - 1 - j)
        x = x @ (step if j < steps - 1 else last)
    size = k + m + 1
    held = np.cumsum(x[:, 0, ::-1], axis=1)[:, np.minimum(np.arange(size + below), m)]
    levels = arrived - deltas[1 : top + 1]
    kept = levels >= 0
    levels = np.concatenate((np.arange(-below, size), levels[kept]))
    bins = levels + size * np.arange(count)[:, None]
    masses = np.concatenate((held, x[:, 1 : top + 1][:, kept]), axis=1)
    return np.bincount(bins.ravel(), masses.ravel(), count * size).reshape(count, size)


def piece_shifts(t, d):
    """Shifts xi on either side of the break d - (t mod d), as _reflected
    takes them: a side per call."""
    rest = t - d * math.floor(t / d)
    pieces = [(0.0, 0.2 * (d - rest), 0.9 * (d - rest))]
    if rest > 0:
        pieces.append((d - rest, 0.5 * (d + d - rest), d - 0.01 * rest))
    return pieces


LST_CASES = [
    (1, 10, kernels.Constant(1.25, 10), 0.8),
    (2, 10, kernels.Proportional(0.3, 10), 0.8),
    (0, 8, kernels.Constant(1.0, 8), 1.0),
]
LST_IDS = ["k1-const", "k2-prop", "k0-const"]


class TestReflectionRoute:
    """Deterministic time-domain PMFs come from the reflection map."""

    @pytest.mark.parametrize("k, m, plan, law", REFLECTION_CASES, ids=REFLECTION_IDS)
    def test_laplace_transform_is_the_deadline_pmf(self, k, m, plan, law):
        # gamma * int e^{-gamma t} P(Z(t) = l) dt = P(Z(T) = l) at T ~ Exp(gamma),
        # by 24-point Gauss-Legendre between the jumps at multiples of d; past
        # t = 30 the queue is empty but for e^{-30}
        gamma, d = 1.0, law.value
        nodes, weights = np.polynomial.legendre.leggauss(24)
        pieces = math.ceil(30.0 / d)
        got = math.exp(-gamma * pieces * d) * np.eye(k + m + 1)[0]
        for j in range(pieces):
            for node, weight in zip(nodes, weights):
                t = (j + 0.5 + 0.5 * node) * d
                probs = inversion.pmf_at_time(k, m, plan, law, t)
                got += 0.5 * d * weight * gamma * math.exp(-gamma * t) * probs
        want = transient.pmf(k, m, plan, law, gamma)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize(
        "k, plan",
        [(1, kernels.Constant(1.25, 10)), (2, kernels.Proportional(0.3, 10))],
        ids=["k1-const", "k2-prop"],
    )
    def test_matches_monte_carlo(self, k, plan):
        # Euler scored |z| of 23-442 on such runs
        law, times = service.Deterministic(0.8), (0.5, 2.0, 8.0, 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            probs = {t: inversion.pmf_at_time(k, 10, plan, law, t) for t in times}
        cfg = simulate.SimConfig(
            k=k, m=10, plan=plan, law=law, times=times, replications=400_000, seed=17
        )
        report = simulate.simulate(cfg)
        for t in times:
            for p, est in zip(probs[t], report.time_pmf[t]):
                se = math.sqrt(p * (1.0 - p) / cfg.replications)
                assert abs(est.value - p) <= 4 * se + 1e-15

    def test_matches_euler_before_first_departure(self):
        # before t = d the law is smooth in t and Euler's check is quiet
        plan, law = kernels.Constant(1.25, 10), service.Deterministic(0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            ref = euler_pmf(1, 10, plan, law, 0.5)
        got = inversion.pmf_at_time(1, 10, plan, law, 0.5)
        assert np.max(np.abs(got - ref)) <= 1e-6

    @pytest.mark.parametrize(
        "k, m, plan",
        [(1, 10, kernels.Constant(1.25, 10)), (0, 8, kernels.Constant(1.0, 8))],
        ids=["k1", "k0"],
    )
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_grid_point_counts_its_departure(self, k, m, plan, j):
        # a departure at t counts at t, as the simulator counts it; at
        # d = 0.7 the quotient (3 * d) / d rounds below 3
        d = 0.7
        assert math.floor(3 * d / d) == 2
        law = service.Deterministic(d)
        at = inversion.pmf_at_time(k, m, plan, law, j * d)
        after = inversion.pmf_at_time(k, m, plan, law, j * d + 1e-9)
        assert np.max(np.abs(at - after)) <= 1e-8
        if k:
            # the initial customer's departures make the law jump at j d
            before = inversion.pmf_at_time(k, m, plan, law, j * d - 1e-9)
            assert np.max(np.abs(at - before)) > 1e-3

    @pytest.mark.parametrize("k", [0, 2])
    def test_before_first_departure_is_the_arrival_count(self, k):
        # nobody can leave before d: Z(t) = k + A(t), A(t) ~ Poisson(lam t)
        # stopped at m
        lam, m, t = 1.25, 10, 0.5
        got = inversion.pmf_at_time(k, m, kernels.Constant(lam, m), service.Deterministic(0.8), t)
        arrivals = [math.exp(-lam * t) * (lam * t) ** a / math.factorial(a) for a in range(m)]
        want = np.r_[np.zeros(k), arrivals, 1.0 - math.fsum(arrivals)]
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_no_pool_is_a_clock(self, k):
        # with m = 0 the k initial customers leave at d, 2d, ..., kd
        d = 0.7
        law, plan = service.Deterministic(d), kernels.Constant(1.0, 0)
        for t in (0.3, d, 1.5, 2 * d, 3 * d, 3 * d + 0.1, 10.0):
            left = k - sum(j * d <= t for j in range(1, k + 1))
            got = inversion.pmf_at_time(k, 0, plan, law, t)
            assert np.array_equal(got, np.eye(k + 1)[left])

    def test_very_late_time_is_an_empty_queue(self):
        # the stationarity stop: without it the pass takes 1.25e6 steps; the
        # ~50 it takes each round every entry, five ulps of one here
        plan, law = kernels.Constant(1.25, 10), service.Deterministic(0.8)
        began = time.perf_counter()
        probs = inversion.pmf_at_time(1, 10, plan, law, 1e6)
        assert time.perf_counter() - began < 1.0
        assert np.max(np.abs(probs - np.eye(12)[0])) <= 2e-15

    @pytest.mark.parametrize(
        "law", [service.Exponential(1.0), service.Deterministic(0.8)], ids=["exp", "det"]
    )
    def test_largest_times_do_not_overflow(self, law):
        # q t overflows at 1e308, and so does t / d at d < 1
        plan = kernels.Constant(1.0, 1)
        for t in (1e300, 1e308):
            assert np.max(np.abs(inversion.pmf_at_time(1, 1, plan, law, t) - [1, 0, 0])) <= 1e-15
        if isinstance(law, service.Deterministic):
            probs = inversion.pmf_at_time(1, 1, plan, service.Deterministic(0.25), 1e308)
            assert np.max(np.abs(probs - [1, 0, 0])) <= 1e-15

    @pytest.mark.parametrize("k, m, plan, law", REFLECTION_CASES, ids=REFLECTION_IDS)
    def test_mass_and_sign(self, k, m, plan, law):
        d = law.value
        for t in (0.3, d, 2.5 * d, 7 * d, 20.0, 60.0):
            probs = inversion.pmf_at_time(k, m, plan, law, t)
            assert abs(probs.sum() - 1.0) <= 1e-14
            assert probs.min() >= 0.0

    @pytest.mark.parametrize("k, m, plan, d", LST_CASES, ids=LST_IDS)
    def test_workload_matches_monte_carlo(self, k, m, plan, d):
        # at t < d, at grid points and far past d; Euler scored z = 28 at
        # (2, 10) Proportional(0.3), t = 8, alpha = 3
        estimate = workload_monte_carlo(k, m, plan, d, 400_000, 23)
        law = service.Deterministic(d)
        for t in (0.5, 2 * d, 3.3, 10 * d):
            for alpha in (0.7, 3.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = inversion.workload_lst_at_time(k, m, plan, law, alpha, t)
                mean, se = estimate(alpha, t)
                assert abs(mean - got) <= 4 * se

    @pytest.mark.parametrize("k, m, plan, law", REFLECTION_CASES, ids=REFLECTION_IDS)
    def test_workload_matches_euler_before_first_departure(self, k, m, plan, law):
        # before t = d the law is smooth in t and Euler's check is quiet
        for t in (0.3, 0.5):
            for alpha in (0.7, 3.0):
                got = inversion.workload_lst_at_time(k, m, plan, law, alpha, t)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", ConvergenceWarning)
                    ref = euler.invert(
                        lambda g: transient.workload_lst(k, m, plan, law, g, alpha), t
                    )
                assert abs(got - ref) <= 1e-10

    @pytest.mark.parametrize("k, m, plan, law", REFLECTION_CASES, ids=REFLECTION_IDS)
    def test_workload_node_count_has_converged(self, k, m, plan, law, monkeypatch):
        d = law.value
        points = [(t, alpha) for t in (0.5, 2 * d, 3.3, 20.0) for alpha in (0.7, 3.0, 1e3, 1e5)]
        got = [inversion.workload_lst_at_time(k, m, plan, law, a, t) for t, a in points]
        monkeypatch.setattr(inversion, "LST_NODES", 32)
        for (t, alpha), value in zip(points, got):
            assert abs(inversion.workload_lst_at_time(k, m, plan, law, alpha, t) - value) <= 1e-13

    @pytest.mark.parametrize("k, m, plan, law", REFLECTION_CASES, ids=REFLECTION_IDS)
    def test_workload_at_extreme_alphas(self, k, m, plan, law):
        # alpha = 0 is the mass; a large alpha sees only W(t) = 0, whose
        # probability is P(Z(t) = 0), up to the density of W(t) at 0+ / alpha
        for t in (0.5, law.value, 3.3, 20.0):
            assert inversion.workload_lst_at_time(k, m, plan, law, 0.0, t) == 1.0
            got = inversion.workload_lst_at_time(k, m, plan, law, 1e5, t)
            assert math.isfinite(got)
            assert abs(got - inversion.pmf_at_time(k, m, plan, law, t)[0]) <= 1e-4

    @pytest.mark.parametrize("k, m, plan, law", REFLECTION_CASES, ids=REFLECTION_IDS)
    def test_workload_very_late_is_an_empty_queue(self, k, m, plan, law):
        for t in (1e6, 1e308):
            began = time.perf_counter()
            got = inversion.workload_lst_at_time(k, m, plan, law, 0.7, t)
            assert time.perf_counter() - began < 1.0
            assert abs(got - 1.0) <= 1e-14

    def test_zero_shift_is_the_pmf_pass(self):
        # the pass at xi = 0 is P(Z(t) <= j); with the shifted passes on
        # either side of the break, F(j d + xi) is nondecreasing in j d + xi
        k, m, plan, law = REFLECTION_CASES[2]
        d = law.value
        for t in (0.5, d, 3.3, 20.0):
            probs = inversion.pmf_at_time(k, m, plan, law, t)
            rest = t - d * math.floor(t / d)
            cdf = inversion._reflected(k, m, plan, d, t, (0.0,))
            assert np.array_equal(np.diff(cdf[0], prepend=0.0), probs)
            pieces = [(0.0, 0.2 * (d - rest))] + [(d - rest, 0.5 * (d + d - rest))] * (rest > 0)
            for shifts in pieces:
                shifted = inversion._reflected(k, m, plan, d, t, shifts)
                grid = d * np.arange(k + m + 1)
                x = np.r_[grid, np.add.outer(shifts, grid).ravel()]
                values = np.r_[cdf[0], shifted.ravel()][np.argsort(x)]
                assert np.all(np.diff(values) >= -1e-15)
                assert np.all(shifted[:, -1] >= 1.0 - 1e-15)

    @pytest.mark.parametrize("k, m, plan, law", REFLECTION_CASES, ids=REFLECTION_IDS)
    def test_matches_the_stepped_pass(self, k, m, plan, law):
        # the cached chain, the jump and the rescaled rows change only rounding
        d = law.value
        for t in (0.3, d, 2.5 * d, 3.3, 7 * d, 20.0):
            for shifts in [(0.0,)] + piece_shifts(t, d):
                got = inversion._reflected(k, m, plan, d, t, shifts)
                want = stepped_reflection(k, m, plan, d, t, shifts)
                assert np.max(np.abs(got - want)) <= 1e-14

    def test_one_death_chain_per_plan_and_d(self, monkeypatch):
        calls = []

        def counted(self, x, w, _series=kernels._DeathChain.series):
            if np.array_equal(x, np.eye(len(self.lams))):
                calls.append(None)
            return _series(self, x, w)

        monkeypatch.setattr(kernels._DeathChain, "series", counted)
        plan, law = kernels.Constant(1.1, 10), service.Deterministic(0.8)
        times = (0.5, 1.0, 2.0, 4.0, 8.0, 12.0)
        kernels._death_chain.cache_clear()
        first = [inversion.pmf_at_time(1, 10, plan, law, t) for t in times]
        assert len(calls) == 1
        calls.clear()
        for t, probs in zip(times, first):
            assert np.array_equal(inversion.pmf_at_time(1, 10, plan, law, t), probs)
        assert not calls
        chain = kernels._death_chain(plan, 0.8)
        for array in (chain.lams, chain.log_factorials, chain.step, chain.orbit):
            with pytest.raises(ValueError):
                array[0] = 0.5
        assert np.max(np.abs(chain.step.sum(axis=1) - 1.0)) <= 4.5e-16  # two ulps

    def test_an_empty_pool_stays_empty_exactly(self):
        # n = 0 absorbs: row 0 of the cached e^{L d} is e_0, where the
        # Poisson weights sum to 1 only up to rounding
        plan, d = kernels.Constant(1.1, 10), 0.8
        assert np.array_equal(kernels._death_chain(plan, d).step[0], np.eye(11)[0])

    def test_never_draining_pool_jumps_its_grid_steps(self):
        # rates 1e-25 keep the drain stop from firing; stepping every grid
        # point took 3.4 s at t = 1e5 and left 1.1e-11 of P(Z(t) = 0) out
        plan, law = kernels.General((1e-25,) * 20), service.Deterministic(1.0)
        for t in (1e4, 1e5, 1e308):
            began = time.perf_counter()
            probs = inversion.pmf_at_time(2, 20, plan, law, t)
            assert time.perf_counter() - began < 0.1
            assert abs(probs[0] - 1.0) <= 1e-14
        began = time.perf_counter()
        got = inversion.workload_lst_at_time(2, 20, plan, law, 0.7, 1e4)
        assert time.perf_counter() - began < 1.0
        assert abs(got - 1.0) <= 1e-14

    def test_passes_leak_no_mass(self):
        # e^{L d} with unit row sums and the pass divided once by row 0's
        # mass: the stepped pass lost 1.4e-15 at t = 100 and 1.8e-14 at (5, 200)
        k, m, plan, law = REFLECTION_CASES[2]
        for t in (20.0, 40.0, 100.0):
            for shifts in piece_shifts(t, law.value):
                cdf = inversion._reflected(k, m, plan, law.value, t, shifts)
                assert np.all(cdf[:, -1] >= 1.0 - 1e-15)
        plan, law = kernels.Constant(1.1875, 200), service.Deterministic(0.8)
        for t in (120.0, 1000.0):
            assert abs(inversion.pmf_at_time(5, 200, plan, law, t).sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("lam", [1.15, 1.17, 1.2, 1.25])
    @pytest.mark.parametrize("d", [0.79, 0.81])
    def test_pass_holds_its_mass_at_every_rate(self, lam, d):
        # Renormalizing the jump's law vector alone let the masked steps
        # after it drift: 11 of these 16 sums were off by up to 1.0e-14
        plan, law = kernels.Constant(lam, 200), service.Deterministic(d)
        for t in (57.3, 120.0):
            assert abs(inversion.pmf_at_time(5, 200, plan, law, t).sum() - 1.0) <= 1e-15
