import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolqueue import service
from poolqueue.errors import DomainError, UnsupportedTransform

ALL_TRANSFORM_LAWS = [
    service.Exponential(1.0),
    service.Exponential(2.5),
    service.Erlang(2, 2.0),
    service.Erlang(4, 1.3),
    service.HyperExponential((0.4, 0.6), (1.0, 3.0)),
    service.Deterministic(0.8),
]

ALL_LAWS = ALL_TRANSFORM_LAWS + [service.Pareto(1.5, 1.0)]


class TestLst:
    def test_exponential_half(self):
        assert service.lst(service.Exponential(1.0), 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    def test_at_zero_is_one(self, law):
        assert service.lst(law, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_erlang_quarter(self):
        assert service.lst(service.Erlang(2, 2.0), 2.0) == pytest.approx(0.25)

    def test_pareto_rejected(self):
        with pytest.raises(UnsupportedTransform):
            service.lst(service.Pareto(1.5, 1.0), 1.0)

    def test_negative_real_argument_rejected(self):
        with pytest.raises(DomainError):
            service.lst(service.Exponential(1.0), -0.5)

    def test_complex_off_axis_allowed(self):
        value = service.lst(service.Exponential(1.0), -0.5 + 2.0j)
        assert value == pytest.approx(1.0 / (0.5 + 2.0j))


class TestPhaseType:
    @pytest.mark.parametrize(
        "law", [l for l in ALL_TRANSFORM_LAWS if not isinstance(l, service.Deterministic)]
    )
    def test_reproduces_lst_and_mean(self, law):
        start, sub = service.phase_type(law)
        exit_rates = -sub.sum(axis=1)
        eye = np.eye(len(start))
        for s in (0.0, 0.3, 2.0, 0.5 + 1.5j, -0.4 + 2.0j):
            got = start @ np.linalg.solve(s * eye - sub, exit_rates)
            assert got == pytest.approx(service.lst(law, s), abs=1e-14)
        mean = start @ np.linalg.solve(-sub, np.ones(len(start)))
        assert mean == pytest.approx(service.mean(law), rel=1e-14)

    @pytest.mark.parametrize("law", [service.Deterministic(0.8), service.Pareto(1.5, 1.0)])
    def test_non_phase_type_rejected(self, law):
        with pytest.raises(UnsupportedTransform):
            service.phase_type(law)


class TestLstDerivative:
    def test_exponential_first(self):
        got = service.lst_derivative(service.Exponential(1.0), 1, 1.0)
        assert got == pytest.approx(-0.25)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    def test_zeroth_is_lst(self, law):
        assert service.lst_derivative(law, 0, 0.7) == pytest.approx(
            service.lst(law, 0.7), abs=1e-14
        )

    def test_deterministic_second(self):
        got = service.lst_derivative(service.Deterministic(1.0), 2, 1.0)
        assert got == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_finite_difference(self, law, order):
        # step sizes chosen per order to balance truncation and roundoff
        h = {1: 1e-5, 2: 1e-3, 3: 1e-2}[order]
        s = 0.9
        vals = [service.lst(law, s + d * h) for d in range(-2, 3)]
        if order == 1:
            fd = (vals[3] - vals[1]) / (2 * h)
        elif order == 2:
            fd = (vals[3] - 2 * vals[2] + vals[1]) / h**2
        else:
            fd = (vals[4] - 2 * vals[3] + 2 * vals[1] - vals[0]) / (2 * h**3)
        assert service.lst_derivative(law, order, s) == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    @pytest.mark.parametrize("order", [0, 1, 5, 40, 250])
    def test_scaled_form_consistent(self, law, order):
        s = 1.1
        scaled = service.lst_derivative_scaled(law, order, s)
        if order <= 40:
            plain = service.lst_derivative(law, order, s)
            assert scaled == pytest.approx(plain / math.factorial(order), rel=1e-12)
        else:
            assert np.isfinite(scaled)


class TestSurvivalTransform:
    def test_exponential(self):
        got = service.survival_transform_derivative(service.Exponential(1.0), 0, 1.0)
        assert got == pytest.approx(0.5)

    def test_deterministic(self):
        got = service.survival_transform_derivative(service.Deterministic(1.0), 0, 1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0))

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    def test_small_s_limit_is_mean(self, law):
        got = service.survival_transform_derivative(law, 0, 1e-8)
        assert got == pytest.approx(service.mean(law), rel=1e-6)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    def test_sigma_beta_identity(self, law):
        # s * sigma(s) + beta(s) = 1
        rng = np.random.default_rng(7)
        for s in rng.uniform(1e-3, 10.0, size=20):
            sigma = service.survival_transform_derivative(law, 0, s)
            assert s * sigma + service.lst(law, s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    @pytest.mark.parametrize("order", [0, 1, 3, 40, 250])
    def test_scaled_form_consistent(self, law, order):
        s = 0.8
        scaled = service.survival_transform_derivative_scaled(law, order, s)
        if order <= 40:
            plain = service.survival_transform_derivative(law, order, s)
            assert scaled == pytest.approx(plain / math.factorial(order), rel=1e-10)
        else:
            assert np.isfinite(scaled)


class TestCompleteMonotonicity:
    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    def test_beta_in_unit_interval_and_decreasing(self, law):
        grid = np.linspace(0.05, 8.0, 30)
        vals = [service.lst(law, s) for s in grid]
        assert all(0 < v < 1 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    @pytest.mark.parametrize("order", range(7))
    def test_alternating_derivative_signs(self, law, order):
        for s in (0.2, 1.0, 4.0):
            val = service.lst_derivative(law, order, s)
            assert (-1) ** order * val > 0


class TestKilledSurvival:
    def test_at_t_zero_is_lst(self):
        got = service.killed_survival(service.Exponential(1.0), 1.0, 0.0)
        assert got == pytest.approx(0.5)

    def test_at_alpha_zero_is_tail(self):
        got = service.killed_survival(service.Exponential(1.0), 0.0, 1.0)
        assert got == pytest.approx(math.exp(-1.0))

    def test_deterministic_past_value(self):
        assert service.killed_survival(service.Deterministic(2.0), 1.0, 3.0) == 0.0

    @pytest.mark.parametrize(
        "law", [l for l in ALL_TRANSFORM_LAWS if not isinstance(l, service.Deterministic)]
    )
    def test_alpha_zero_matches_tail_continuous(self, law):
        for t in (0.0, 0.3, 1.7, 5.0):
            assert service.killed_survival(law, 0.0, t) == pytest.approx(
                service.tail(law, t), abs=1e-12
            )

    @pytest.mark.parametrize(
        "law", [l for l in ALL_TRANSFORM_LAWS if not isinstance(l, service.Deterministic)]
    )
    def test_terms_reproduce_function(self, law):
        terms = service.killed_survival_terms(law, 0.7)
        for t in (0.0, 0.4, 1.3, 3.0):
            direct = service.killed_survival(law, 0.7, t)
            series = sum(c * t**p * np.exp(-r * t) for c, p, r in terms)
            assert series == pytest.approx(direct, abs=1e-13)

    def test_deterministic_has_no_terms(self):
        with pytest.raises(UnsupportedTransform):
            service.killed_survival_terms(service.Deterministic(1.0), 0.5)


class TestTailAndMean:
    def test_pareto_tail(self):
        assert service.tail(service.Pareto(1.5, 1.0), 4.0) == pytest.approx(0.125)

    def test_erlang_mean(self):
        assert service.mean(service.Erlang(2, 2.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_tail_at_zero(self, law):
        assert service.tail(law, 0.0) == pytest.approx(1.0)


class TestSampling:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_monte_carlo_mean(self, law):
        rng = np.random.default_rng(321)
        draws = service.sample(law, rng, size=1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - service.mean(law)) <= 4 * max(se, 1e-12)

    def test_sampling_reproducible(self):
        a = service.sample(service.Erlang(3, 2.0), np.random.default_rng(5), size=10)
        b = service.sample(service.Erlang(3, 2.0), np.random.default_rng(5), size=10)
        assert np.array_equal(a, b)


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            service.HyperExponential((0.5, 0.6), (1.0, 2.0))

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: service.Exponential(0.0),
            lambda: service.Erlang(0, 1.0),
            lambda: service.Deterministic(-1.0),
            lambda: service.Pareto(1.0, 1.0),
            lambda: service.Pareto(1.5, 0.0),
        ],
    )
    def test_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            bad()


@settings(max_examples=50, deadline=None)
@given(
    s=st.floats(min_value=0.01, max_value=20.0),
    rate=st.floats(min_value=0.05, max_value=10.0),
)
def test_exponential_lst_bounds(s, rate):
    value = service.lst(service.Exponential(rate), s)
    assert 0.0 < value < 1.0
    assert value == pytest.approx(rate / (rate + s))
