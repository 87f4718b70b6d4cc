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
        fhat, _ = pair
        for t in (0.5, 2.0):
            euler = inversion.invert(fhat, t, inversion.InversionConfig(method="euler", cross_check=False))
            talbot = inversion.invert(fhat, t, inversion.InversionConfig(method="talbot", cross_check=False))
            assert abs(euler - talbot) < 1e-6

    def test_cross_check_warns_on_rough_original(self):
        # a unit step at t = 1 defeats both schemes right at the jump
        with pytest.warns(ConvergenceWarning):
            inversion.invert(lambda g: np.exp(-g), 1.0)

    @pytest.mark.parametrize("t", [2.0, 4.0])
    def test_cross_check_warns_on_nan(self, t):
        # Talbot overflows to NaN on this Deterministic transform.
        plan, law = kernels.Constant(1.25, 10), service.Deterministic(0.8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.warns(ConvergenceWarning, match="nan"):
                inversion.pgf_at_time(1, 10, plan, law, 0.5, t)

    def test_vector_transform(self):
        pairs = KNOWN_PAIRS[:6]
        got = inversion.invert(lambda g: np.array([f(g) for f, _ in pairs]), 1.3)
        assert got.shape == (len(pairs),)
        for value, (fhat, original) in zip(got, pairs):
            assert value == pytest.approx(inversion.invert(fhat, 1.3), abs=1e-10)
            assert value == pytest.approx(original(1.3), abs=1e-8)

    def test_requires_positive_time(self):
        with pytest.raises(DomainError):
            inversion.invert(lambda g: 1.0, 0.0)

    @pytest.mark.parametrize("cross_check", [True, False])
    def test_fhat_called_once_with_every_node(self, cross_check):
        shapes = []

        def fhat(g):
            shapes.append(np.shape(g))
            return g / (g + 1.0)

        config = inversion.InversionConfig(cross_check=cross_check)
        got = inversion.invert(fhat, 1.0, config)
        assert shapes == [(65,) if cross_check else (33,)]
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
        with pytest.raises(ValueError):
            inversion.InversionConfig(method="bogus")
        with pytest.raises(ValueError):
            inversion.InversionConfig(nodes=7)


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
        # the euler/talbot cross-check reports rather than hiding
        with pytest.warns(ConvergenceWarning):
            inversion.pmf_at_time(
                1, 1, kernels.Constant(1.0, 1), service.Deterministic(0.8), 1.3
            )


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
