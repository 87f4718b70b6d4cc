import dataclasses
import math
import warnings

import numpy as np
import pytest

from poolqueue import inversion, kernels, service, simulate, transient
from poolqueue.errors import ConvergenceWarning, DomainError

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
        got = inversion.invert(lambda g: g / (g + 1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_constant_function(self):
        for t in (0.3, 1.0, 7.0):
            assert inversion.invert(lambda g: 1.0, t) == pytest.approx(1.0, abs=1e-10)

    def test_single_customer_emptying(self):
        # mu_{10}(0; gamma) = mu/(mu+gamma) inverts to P(Z(t)=0) = 1 - e^{-mu t}
        got = inversion.invert(lambda g: 1.0 / (1.0 + g), 1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)

    @pytest.mark.parametrize("pair", KNOWN_PAIRS, ids=range(len(KNOWN_PAIRS)))
    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_round_trips(self, pair, t):
        fhat, original = pair
        got = inversion.invert(fhat, t)
        assert got == pytest.approx(original(t), abs=1e-8)

    @pytest.mark.parametrize("pair", KNOWN_PAIRS, ids=range(len(KNOWN_PAIRS)))
    def test_methods_agree(self, pair):
        # the answer and the check contour each recover the closed form alone
        fhat, original = pair
        for t in (0.5, 2.0):
            for nodes in (inversion.ANSWER_NODES, inversion.CHECK_NODES):
                s, weights = inversion._euler_nodes(t, nodes)
                assert len(s) == nodes + 1
                got = np.real(fhat(s) / s @ weights)
                assert got == pytest.approx(original(t), abs=1e-8)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_answer_is_the_answer_contour(self, t):
        # the check contour only warns: the value is the ANSWER_NODES sum
        fhat = KNOWN_PAIRS[4][0]
        s, weights = inversion._euler_nodes(t, inversion.ANSWER_NODES)
        assert inversion.invert(fhat, t) == np.real(fhat(s) / s @ weights)

    def test_cross_check_warns_on_rough_original(self):
        # a unit step at t = 1 defeats both node counts right at the jump
        with pytest.warns(ConvergenceWarning, match="euler-32 and euler-40"):
            inversion.invert(lambda g: np.exp(-g), 1.0)

    @pytest.mark.parametrize("t", [2.0, 4.0])
    def test_cross_check_warns_on_nan(self, t):
        # a NaN at one node of either contour is a disagreement, also when
        # it lies on the check contour and the answer stays finite
        count = inversion.ANSWER_NODES + inversion.CHECK_NODES + 2
        for bad in (0, count - 1):

            def fhat(g):
                values = g / (g + 1.0)
                values[bad] = np.nan
                return values

            with pytest.warns(ConvergenceWarning, match="nan"):
                got = inversion.invert(fhat, t)
            assert np.isnan(got) == (bad == 0)

    def test_vector_transform(self):
        pairs = KNOWN_PAIRS[:6]
        got = inversion.invert(lambda g: np.array([f(g) for f, _ in pairs]), 1.3)
        assert got.shape == (len(pairs),)
        for value, (fhat, original) in zip(got, pairs):
            assert value == pytest.approx(inversion.invert(fhat, 1.3), abs=1e-10)
            assert value == pytest.approx(original(1.3), abs=1e-8)

    def test_requires_positive_time(self):
        for t in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                inversion.invert(lambda g: 1.0, t)
        plan, law = kernels.Constant(1.0, 3), service.Erlang(2, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            with pytest.raises(DomainError):
                inversion.pmf_at_time(1, 3, plan, law, float("inf"))

    def test_fhat_called_once_with_every_node(self):
        shapes = []

        def fhat(g):
            shapes.append(np.shape(g))
            return g / (g + 1.0)

        got = inversion.invert(fhat, 1.0)
        assert shapes == [(74,)]
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_pmf_at_time_builds_tables_once(self, monkeypatch):
        calls = {"build_tables": 0, "sweep": 0}
        for owner, name in ((kernels, "build_tables"), (transient, "sweep")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        inversion.pmf_at_time(
            2, 4, kernels.Constant(0.9, 4), service.Erlang(2, 2.0), 1.5
        )
        assert calls == {"build_tables": 1, "sweep": 1}

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
        got = inversion.pmf_at_time(1, 1, plan, law, t)
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
            inversion.pmf_at_time(
                1, 1, kernels.Constant(1.0, 1), service.Deterministic(0.8), 1.3
            )


class TestCrossCheckRegressions:
    """The check is Euler at a second node count: it stays quiet where the
    answer is right and warns where it is not."""

    def test_large_pool_late_time_is_quiet_and_right(self):
        plan, law = kernels.Constant(0.95, 40), service.Exponential(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = inversion.pmf_at_time(5, 40, plan, law, 40.0)
        ref = simulate.ctmc_at_time(5, 40, plan, law, 40.0).sum(axis=1)
        assert np.max(np.abs(got - ref)) < 1e-9

    def test_late_probe_is_quiet(self):
        # Euler-32 is off by 1.6e-11 against simulate.ctmc_at_time
        plan, law = kernels.Constant(0.85, 20), service.Erlang(2, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = inversion.pmf_at_time(2, 20, plan, law, 20.0)
        ref = simulate.ctmc_at_time(2, 20, plan, law, 20.0).sum(axis=1)
        assert np.max(np.abs(got - ref)) < 1e-9

    def test_hyperexponential_proportional_is_quiet_and_right(self):
        # Euler-32 is off by 4.4e-12 against simulate.ctmc_at_time
        plan = kernels.Proportional(0.05, 25)
        law = service.HyperExponential((0.4, 0.6), (1.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            got = inversion.pmf_at_time(3, 25, plan, law, 12.0)
        ref = simulate.ctmc_at_time(3, 25, plan, law, 12.0).sum(axis=1)
        assert np.max(np.abs(got - ref)) < 1e-9

    def test_deterministic_quiet_before_first_departure(self):
        plan, law = kernels.Constant(1.25, 10), service.Deterministic(0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            inversion.pmf_at_time(1, 10, plan, law, 0.5)
        with pytest.warns(ConvergenceWarning, match="euler-32 and euler-40"):
            inversion.pmf_at_time(1, 10, plan, law, 2.0)

    def test_large_pool_very_late_time_warns(self):
        # Euler-32 is off by 6.9e-6 here against simulate.ctmc_at_time and
        # the gap to Euler-40 is 7.2e-6
        plan, law = kernels.Constant(0.95, 60), service.Exponential(1.0)
        with pytest.warns(ConvergenceWarning, match="euler-32 and euler-40"):
            got = inversion.pmf_at_time(5, 60, plan, law, 120.0)
        ref = simulate.ctmc_at_time(5, 60, plan, law, 120.0).sum(axis=1)
        assert np.max(np.abs(got - ref)) > 1e-6

    @pytest.mark.parametrize("t", [60.0, 120.0])
    def test_large_pool_erlang_late_time_warns(self, t):
        # Euler-32 is off by 1.4e-6 at t = 60 and 3.6e-4 at t = 120
        plan, law = kernels.Constant(0.95, 60), service.Erlang(4, 4.0)
        with pytest.warns(ConvergenceWarning, match="euler-32 and euler-40"):
            got = inversion.pmf_at_time(5, 60, plan, law, t)
        ref = simulate.ctmc_at_time(5, 60, plan, law, t).sum(axis=1)
        assert np.max(np.abs(got - ref)) > 1e-6


class TestScalarWrappers:
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
        # The PGF is the renormalized PMF's polynomial, so its mass is 1.
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
