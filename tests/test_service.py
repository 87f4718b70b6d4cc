import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from poolqueue import kernels, service
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


def reference_sample(law, rng, size):
    """Each law's draws as numpy's own whole-array calls make them: the
    stream that the samplers and every fixed-seed simulation keep."""
    if isinstance(law, service.Exponential):
        return rng.exponential(1.0 / law.rate, size=size)
    if isinstance(law, service.Erlang):
        return rng.gamma(law.shape, 1.0 / law.rate, size=size)
    if isinstance(law, service.HyperExponential):
        idx = rng.choice(len(law.rates), size=size, p=law.weights)
        return (1.0 / np.asarray(law.rates))[idx] * rng.standard_exponential(size)
    if isinstance(law, service.Deterministic):
        return np.full(size, law.value)
    return law.scale * (1.0 - rng.random(size)) ** (-1.0 / law.index)


def lst_derivative_scaled(law, order, s):
    """beta^(order)(s) / order!, read from the kernel tables.

    With gamma = 0 and Constant(s) arrivals, entry [n, n - k] (k < n) of u is
    E[e^{-sB} (sB)^k / k!] = (-s)^k beta^(k)(s) / k!.
    """
    tables = kernels.build_tables(kernels.Constant(s, order + 1), law, 0.0)
    return tables.u[order + 1, 1] / (-s) ** order


def lst_derivative(law, order, s):
    return math.factorial(order) * lst_derivative_scaled(law, order, s)


def survival_transform_derivative_scaled(law, order, s):
    """sigma^(order)(s) / order!, sigma(s) = int_0^inf e^{-st} P(B > t) dt,
    read from the kernel tables.

    With gamma = lam = s / 2, entry [n, n - k] (k < n) of v is
    gamma int_0^inf e^{-st} (lam t)^k / k! P(B > t) dt
    = gamma (-lam)^k sigma^(k)(s) / k!.
    """
    half = s / 2
    tables = kernels.build_tables(kernels.Constant(half, order + 1), law, half)
    return tables.v[order + 1, 1] / (half * (-half) ** order)


def survival_transform_derivative(law, order, s):
    return math.factorial(order) * survival_transform_derivative_scaled(law, order, s)


def closed_lst_derivative_scaled(law, order, s):
    k = order
    if isinstance(law, service.Exponential):
        return (-1) ** k * law.rate / (law.rate + s) ** (k + 1)
    if isinstance(law, service.Erlang):
        c, r = law.shape, law.rate
        return (-1) ** k * math.comb(c + k - 1, k) * r**c / (r + s) ** (c + k)
    if isinstance(law, service.HyperExponential):
        return sum(
            (-1) ** k * q * r / (r + s) ** (k + 1) for q, r in zip(law.weights, law.rates)
        )
    d = law.value
    return (-1) ** k * math.exp(k * math.log(d) - s * d - math.lgamma(k + 1))


def poisson_tail(k, x):
    """P(Poisson(x) > k) = 1 - e^{-x} sum_{i<=k} x^i / i!, the regularized
    lower incomplete gamma function at order k + 1, summed from i = k + 1
    upward so that no cancellation occurs."""
    term = math.exp((k + 1) * math.log(x) - x - math.lgamma(k + 2))
    total, i = 0.0, k + 1
    while term > 1e-17 * total or i <= x:
        total += term
        i += 1
        term *= x / i
    return total


def closed_survival_transform_derivative_scaled(law, order, s):
    # (-1)^k int_0^inf t^k / k! e^{-st} P(B > t) dt
    k = order
    if isinstance(law, service.Deterministic):
        return (-1) ** k * poisson_tail(k, s * law.value) / s ** (k + 1)
    start, sub, _ = service.phase_type(law)
    resolvent = s * np.eye(len(start)) - sub
    x = np.ones(len(start))
    for _ in range(k + 1):
        x = np.linalg.solve(resolvent, x)
    return (-1) ** k * start @ x


def closed_form_tolerance(law):
    # The Deterministic tables are Poisson series truncated where the tail
    # falls below 1e-17, so entries far below that are accurate in absolute
    # rather than relative terms; the phase-type recursion multiplies
    # nonnegative factors and keeps relative accuracy at every order.
    if isinstance(law, service.Deterministic):
        return {"rel": 1e-12, "abs": 1e-16}
    return {"rel": 1e-12}


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
        start, sub, exit_ = service.phase_type(law)
        exit_rates = -sub.sum(axis=1)
        assert np.array_equal(exit_, exit_rates)
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
        got = lst_derivative(service.Exponential(1.0), 1, 1.0)
        assert got == pytest.approx(-0.25)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    def test_zeroth_is_lst(self, law):
        assert lst_derivative(law, 0, 0.7) == pytest.approx(service.lst(law, 0.7), abs=1e-14)

    def test_deterministic_second(self):
        got = lst_derivative(service.Deterministic(1.0), 2, 1.0)
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
        assert lst_derivative(law, order, s) == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    @pytest.mark.parametrize("order", [0, 1, 5, 40, 250])
    def test_scaled_form_consistent(self, law, order):
        s = 1.1
        got = lst_derivative_scaled(law, order, s)
        expected = closed_lst_derivative_scaled(law, order, s)
        assert np.isfinite(got)
        assert got == pytest.approx(expected, **closed_form_tolerance(law))


class TestSurvivalTransform:
    def test_exponential(self):
        got = survival_transform_derivative(service.Exponential(1.0), 0, 1.0)
        assert got == pytest.approx(0.5)

    def test_deterministic(self):
        got = survival_transform_derivative(service.Deterministic(1.0), 0, 1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0))

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    def test_small_s_limit_is_mean(self, law):
        got = survival_transform_derivative(law, 0, 1e-8)
        assert got == pytest.approx(service.mean(law), rel=1e-6)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    def test_sigma_beta_identity(self, law):
        # s * sigma(s) + beta(s) = 1
        rng = np.random.default_rng(7)
        for s in rng.uniform(1e-3, 10.0, size=20):
            sigma = survival_transform_derivative(law, 0, s)
            assert s * sigma + service.lst(law, s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("law", ALL_TRANSFORM_LAWS)
    @pytest.mark.parametrize("order", [0, 1, 3, 40, 250])
    def test_scaled_form_consistent(self, law, order):
        s = 0.8
        got = survival_transform_derivative_scaled(law, order, s)
        expected = closed_survival_transform_derivative_scaled(law, order, s)
        assert np.isfinite(got)
        assert got == pytest.approx(expected, **closed_form_tolerance(law))


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
            val = lst_derivative(law, order, s)
            assert (-1) ** order * val > 0


class TestTailAndMean:
    def test_pareto_tail(self):
        assert service.tail(service.Pareto(1.5, 1.0), 4.0) == pytest.approx(0.125)

    def test_erlang_mean(self):
        assert service.mean(service.Erlang(2, 2.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_tail_at_zero(self, law):
        assert service.tail(law, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "law", [l for l in ALL_TRANSFORM_LAWS if not isinstance(l, service.Deterministic)]
    )
    def test_tail_matches_phase_type_survival(self, law):
        # P(B > t) = alpha e^{S t} 1 for the phase-type representation.
        start, sub, _ = service.phase_type(law)
        for t in (0.0, 0.3, 1.7, 5.0):
            survival = start @ scipy.linalg.expm(sub * t) @ np.ones(len(start))
            assert service.tail(law, t) == pytest.approx(survival, abs=1e-13)


class TestSampling:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_monte_carlo_mean(self, law):
        rng = np.random.default_rng(321)
        draws = service.sample(law, rng, size=1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - service.mean(law)) <= 4 * max(se, 1e-12)

    @pytest.mark.parametrize("law", ALL_LAWS)
    @pytest.mark.parametrize("rows", [1, 7, 300, 1000])
    def test_sample_and_rows_are_numpys_whole_array_calls(self, law, rows):
        # 1000 rows in slices of 7 ends mid-slice; the stream must then
        # carry on where the whole-array call leaves it
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        want = reference_sample(law, ref, (1000, 5))
        assert np.array_equal(service.sample(law, rng, (1000, 5)), want)
        slices = service.sample_rows(law, rng, (1000, 5), rows)
        want = reference_sample(law, ref, (1000, 5))
        got = [next(slices)]
        assert np.array_equal(got[0], want[:rows])
        got += list(slices)
        assert [len(x) for x in got] == [min(rows, 1000 - lo) for lo in range(0, 1000, rows)]
        assert got[0].base is not None and all(x.base is got[0].base for x in got)
        assert np.array_equal(np.concatenate(got), want)
        assert service.sample(law, rng) == reference_sample(law, ref, 1)[0]
        assert rng.random() == ref.random()

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
            lambda: service.Exponential(float("nan")),
            lambda: service.Exponential(float("inf")),
            lambda: service.Erlang(2, float("nan")),
            lambda: service.Erlang(2, float("inf")),
            lambda: service.Erlang(float("nan"), 1.0),
            lambda: service.Erlang(float("inf"), 1.0),
            lambda: service.HyperExponential((float("nan"), 1.0), (1.0, 2.0)),
            lambda: service.HyperExponential((0.5, 0.5), (1.0, float("nan"))),
            lambda: service.HyperExponential((0.5, 0.5), (float("inf"), 2.0)),
            lambda: service.Deterministic(float("nan")),
            lambda: service.Deterministic(float("inf")),
            lambda: service.Pareto(float("nan"), 1.0),
            lambda: service.Pareto(float("inf"), 1.0),
            lambda: service.Pareto(1.5, float("nan")),
            lambda: service.Pareto(1.5, float("inf")),
        ],
    )
    def test_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_float_erlang_shape_is_stored_as_an_int(self):
        # a float shape passed the check, then failed in numpy wherever used
        law, twin = service.Erlang(2.0, 1.5), service.Erlang(2, 1.5)
        assert type(law.shape) is int and law == twin and hash(law) == hash(twin)
        assert repr(law) == repr(twin)
        for got, want in zip(service.phase_type(law), service.phase_type(twin)):
            assert np.array_equal(got, want)
        assert service.tail(law, 1.0) == service.tail(twin, 1.0)
        assert np.array_equal(service.sample(law, np.random.default_rng(3), 5),
                              service.sample(twin, np.random.default_rng(3), 5))


@settings(max_examples=50, deadline=None)
@given(
    s=st.floats(min_value=0.01, max_value=20.0),
    rate=st.floats(min_value=0.05, max_value=10.0),
)
def test_exponential_lst_bounds(s, rate):
    value = service.lst(service.Exponential(rate), s)
    assert 0.0 < value < 1.0
    assert value == pytest.approx(rate / (rate + s))
