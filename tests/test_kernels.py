import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from poolqueue import inversion, kernels, service
from poolqueue.errors import DomainError, UnsupportedTransform

import euler
from test_waiting import PHASE_LAWS

LAWS = [
    service.Exponential(1.3),
    service.Erlang(2, 2.0),
    service.HyperExponential((0.4, 0.6), (1.0, 3.0)),
    service.Deterministic(0.8),
]


def plans(m):
    return [
        kernels.Constant(0.7, m),
        kernels.Proportional(0.5, m),
        kernels.General(tuple(0.5 + 0.6 * j for j in range(m))),
    ]


class TestRatePlans:
    def test_rates_vector(self):
        assert np.allclose(kernels.Constant(2.0, 3).lams, [0, 2, 2, 2])
        assert np.allclose(kernels.Proportional(0.5, 3).lams, [0, 0.5, 1, 1.5])
        assert np.allclose(kernels.General((1.0, 2.0)).lams, [0, 1, 2])

    @pytest.mark.parametrize(
        "plan",
        [kernels.Constant(1.3, 4), kernels.Constant(1.3, 0), kernels.Proportional(0.7, 5),
         kernels.Proportional(0.7, 0), kernels.General((2.0, 0.5, 1.0)), kernels.General(())],
    )
    def test_lams_is_the_read_only_death_chain_rates(self, plan):
        assert plan.lams.dtype == np.float64
        assert tuple(plan.lams.tolist()) == (0.0,) + plan.rates
        with pytest.raises(ValueError):
            plan.lams[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.lams = np.zeros(plan.m + 1)
        # derived from rates: no part of the plan's equality, hash or repr
        assert plan == kernels.General(plan.rates) and "lams" not in repr(plan)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: kernels.Constant(0.0, 3),
            lambda: kernels.Constant(-1.0, 0),
            lambda: kernels.Constant(1.0, -1),
            lambda: kernels.Proportional(0.0, 3),
            lambda: kernels.Proportional(-0.5, 0),
            lambda: kernels.Proportional(0.5, -2),
            lambda: kernels.General((1.0, 0.0)),
            lambda: kernels.General((-2.0,)),
            lambda: kernels.Constant(float("nan"), 3),
            lambda: kernels.Constant(float("inf"), 3),
            lambda: kernels.Proportional(float("nan"), 2),
            lambda: kernels.Proportional(float("inf"), 2),
            lambda: kernels.General((1.0, float("nan"))),
            lambda: kernels.General((float("inf"),)),
        ],
    )
    def test_constructors_reject_bad_input(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_one_plan_type(self):
        assert kernels.Constant(0.7, 3) == kernels.General((0.7,) * 3)
        assert kernels.Constant(0.7, 0) == kernels.Proportional(0.3, 0)
        assert kernels.Proportional(0.5, 4).m == 4

    def test_equal_plans_share_a_hash_and_a_cache_entry(self):
        lam, m = 0.85, 6
        built, general = kernels.Constant(lam, m), kernels.General((lam,) * m)
        assert built == general and hash(built) == hash(general)
        assert repr(built) == f"RatePlan(rates={(lam,) * m!r})"
        assert str(hash(built)) not in repr(built)
        inversion._record.cache_clear()
        law = service.Erlang(2, 2.0)
        inversion.pmf_at_time(2, m, built, law, 1.0)
        inversion.pmf_at_time(2, m, general, law, 1.0)
        info = inversion._record.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_proportional_rates_exact(self):
        for lam, m in ((0.5, 4), (0.37, 60), (1.3, 250)):
            got = kernels.Proportional(lam, m).lams[1:]
            assert np.array_equal(got, lam * np.arange(1, m + 1))


def arrival_probs(plan, t):
    """h[n, n - i] = P(i arrivals in [0, t] | n outstanding), t > 0.

    Deterministic(t) service with no deadline turns u into exactly these.
    """
    return kernels.build_tables(plan, service.Deterministic(t), 0.0).u


class TestArrivalCountMixture:
    @pytest.mark.parametrize("plan", plans(3))
    def test_no_remaining_customers(self, plan):
        assert arrival_probs(plan, 7.3)[0, 0] == pytest.approx(1.0)

    def test_constant_poisson_term(self):
        # exactly one of two arrivals by t: t e^{-t} for lam = 1
        for t in (0.5, 2.0):
            h = arrival_probs(kernels.Constant(1.0, 2), t)[2, 1]
            assert h == pytest.approx(t * math.exp(-t), abs=1e-14)

    def test_proportional_single_cdf(self):
        for t in (0.5, 2.0):
            h = arrival_probs(kernels.Proportional(1.0, 1), t)[1, 0]
            assert h == pytest.approx(1.0 - math.exp(-t), abs=1e-14)

    @pytest.mark.parametrize("plan", plans(5))
    def test_value_at_zero(self, plan):
        # Deterministic needs t > 0; at t = 1e-12 every h_{ni} is within
        # lambda_max * t of its t = 0 value (no arrivals yet).
        rows = arrival_probs(plan, 1e-12)
        for n in range(6):
            for i in range(n + 1):
                assert rows[n, n - i] == pytest.approx(1.0 if i == 0 else 0.0, abs=1e-11)

    @pytest.mark.parametrize("plan", plans(5))
    def test_rows_form_distribution(self, plan):
        for t in (0.1, 0.9, 3.0):
            rows = arrival_probs(plan, t)
            for n in range(6):
                assert np.all((rows[n] >= -1e-10) & (rows[n] <= 1 + 1e-10))
                assert rows[n].sum() == pytest.approx(1.0, abs=1e-10)

    def test_index_bounds(self):
        # Dense [n, n'] over n, n' = 0..m; no row can end with n' > n.
        rows = arrival_probs(kernels.Constant(1.0, 2), 1.0)
        assert rows.shape == (3, 3)
        assert np.array_equal(rows[np.triu_indices(3, 1)], np.zeros(3))
        with pytest.raises(IndexError):
            rows[3, 0]

    @pytest.mark.parametrize("t", [0.4, 2.5])
    def test_closed_forms_at_large_pool(self, t):
        # Poisson(lam t) truncated at n for Constant; Binomial(n, 1 - e^{-lam t})
        # for Proportional.  m = 60 is far past where alternating sums fail.
        # The matrix exponential is accurate to rounding in absolute terms;
        # entries far below 1e-16 may lose their relative digits.
        lam, m = 0.9, 60
        const = arrival_probs(kernels.Constant(lam, m), t)
        prop = arrival_probs(kernels.Proportional(lam, m), t)
        x, p = lam * t, 1.0 - math.exp(-lam * t)
        for n in (1, 30, 60):
            poisson = [math.exp(-x) * x**i / math.factorial(i) for i in range(n)]
            assert np.allclose(const[n, n:0:-1], poisson, rtol=1e-12, atol=1e-16)
            assert const[n, 0] == pytest.approx(1.0 - sum(poisson), rel=1e-12, abs=1e-15)
            binomial = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
            assert np.allclose(prop[n, n::-1], binomial, rtol=1e-12, atol=1e-16)


class TestKernelTables:
    def test_remark_one_values(self):
        # lam = gamma = mu = 1, proportional plan: hand-computed entries
        tables = kernels.build_tables(
            kernels.Proportional(1.0, 1), service.Exponential(1.0), 1.0
        )
        assert tables.u[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert tables.v[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert tables.u[1, 0] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert tables.v[1, 0] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert tables.u[1].sum() == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("law", LAWS)
    def test_empty_pool_entries(self, law):
        tables = kernels.build_tables(kernels.Constant(1.0, 0), law, 0.9)
        beta = service.lst(law, 0.9)
        assert tables.u[0, 0] == pytest.approx(beta, abs=1e-14)
        assert tables.v[0, 0] == pytest.approx(1.0 - beta, abs=1e-14)

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
    def test_row_sum_identities(self, law, gamma):
        for plan in plans(8):
            tables = kernels.build_tables(plan, law, gamma)
            w = kernels.build_tables(plan, law, 0.0).u
            beta = service.lst(law, gamma)
            for n in range(9):
                assert abs(tables.u[n].sum() - beta) < 1e-10
                assert abs(tables.v[n].sum() - (1.0 - beta)) < 1e-10
                assert abs(w[n].sum() - 1.0) < 1e-10
                assert np.all(tables.u[n] >= -1e-12)
                assert np.all(tables.v[n] >= -1e-12)
                assert np.all(w[n] <= 1 + 1e-12)

    @pytest.mark.parametrize("plan", plans(5))
    @pytest.mark.parametrize("gamma", [0.4, 2.0])
    def test_exponential_proportionality(self, plan, gamma):
        # gamma * u = mu * v entrywise under exponential service
        mu = 1.7
        tables = kernels.build_tables(plan, service.Exponential(mu), gamma)
        for n in range(6):
            assert np.allclose(gamma * tables.u[n], mu * tables.v[n], atol=1e-12)

    def test_remark_one_product_formula(self):
        # u_{ni} = mu * (1/(lam_{n-i}+xi')) * prod_{j>n-i} lam_j/(lam_j+xi')
        # with xi' = gamma + mu, from the min(B, T) ~ Exp(gamma + mu) race
        mu, gamma = 1.3, 0.6
        plan = kernels.General((0.8, 1.5, 2.4))
        lams = plan.lams[1:]
        tables = kernels.build_tables(plan, service.Exponential(mu), gamma)
        gm = gamma + mu
        for n in range(1, 4):
            for i in range(n):
                expected = mu / (lams[n - i - 1] + gm)
                for j in range(n - i, n):
                    expected *= lams[j] / (lams[j] + gm)
                assert tables.u[n, n - i] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("law", LAWS)
    def test_w_is_small_gamma_limit(self, law):
        plan = kernels.Proportional(0.8, 4)
        small = kernels.build_tables(plan, law, 1e-8)
        w = kernels.build_tables(plan, law, 0.0).u
        for n in range(5):
            assert np.allclose(small.u[n], w[n], atol=1e-6)

    def test_gamma_zero_convention(self):
        tables = kernels.build_tables(
            kernels.Constant(1.0, 3), service.Exponential(1.0), 0.0
        )
        for n in range(4):
            assert np.allclose(tables.v[n], 0.0)

    def test_constant_general_continuity(self):
        lam = 1.0
        delta = 1e-4 * lam
        base = kernels.build_tables(
            kernels.Constant(lam, 4), service.Erlang(2, 2.0), 1.0
        )
        close = kernels.build_tables(
            kernels.General(tuple(lam + j * delta for j in range(4))),
            service.Erlang(2, 2.0),
            1.0,
        )
        for n in range(5):
            assert np.allclose(base.u[n], close.u[n], atol=1e-3)
            assert np.allclose(base.v[n], close.v[n], atol=1e-3)

    def test_complex_gamma_supported(self):
        gamma = 1.0 + 2.0j
        tables = kernels.build_tables(
            kernels.Constant(1.0, 3), service.Erlang(2, 2.0), gamma
        )
        beta = service.lst(service.Erlang(2, 2.0), gamma)
        for n in range(4):
            assert abs(tables.u[n].sum() - beta) < 1e-10

    def test_pareto_rejected(self):
        with pytest.raises(UnsupportedTransform):
            kernels.build_tables(
                kernels.Constant(1.0, 2), service.Pareto(1.5, 1.0), 1.0
            )

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("gamma", [0.0, 0.9, 1.2 - 0.7j])
    def test_repeated_general_rates_match_constant(self, law, gamma):
        same = kernels.build_tables(kernels.General((0.7,) * 12), law, gamma)
        ref = kernels.build_tables(kernels.Constant(0.7, 12), law, gamma)
        for n in range(13):
            assert np.allclose(same.u[n], ref.u[n], rtol=1e-13, atol=1e-15)
            assert np.allclose(same.v[n], ref.v[n], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, 0.9, 1.2 - 0.7j])
    def test_equal_hyperexp_rates_match_exponential(self, gamma):
        plan = kernels.Proportional(0.8, 10)
        hyper = kernels.build_tables(
            plan, service.HyperExponential((0.3, 0.7), (2.0, 2.0)), gamma
        )
        ref = kernels.build_tables(plan, service.Exponential(2.0), gamma)
        for n in range(11):
            assert np.allclose(hyper.u[n], ref.u[n], rtol=1e-13, atol=1e-15)
            assert np.allclose(hyper.v[n], ref.v[n], rtol=1e-13, atol=1e-15)

    def test_large_pool_stays_finite(self):
        tables = kernels.build_tables(
            kernels.Constant(1.0, 250), service.Exponential(1.0), 1.0
        )
        beta = service.lst(service.Exponential(1.0), 1.0)
        assert np.isfinite(tables.u[250]).all()
        assert abs(tables.u[250].sum() - beta) < 1e-10


def per_entry_tables(plan, start, sub, gamma, cols):
    """The reference kernels._phase_tables must reproduce: the recursion
    x_i = x_{i-1} @ lambda_{n-i+1} R_{n-i}, one `@` operator per entry."""
    lams = plan.lams
    size = len(lams)
    inverses = np.linalg.inv((lams + gamma)[:, None, None] * np.eye(len(start)) - sub)
    heads = start @ inverses
    steps = [None] + [lam * inverse for lam, inverse in zip(lams[1:], inverses)]
    tables = np.zeros((cols.shape[-1], size, size), dtype=np.result_type(inverses, cols))
    for n in range(size):
        xs = [heads[n]]
        for i in range(1, n + 1):
            xs.append(xs[-1] @ steps[n - i + 1])
        tables[:, n, : n + 1] = (np.array(xs) @ cols)[::-1].T
    return tables


class TestPhaseRecursion:
    @pytest.mark.parametrize("law", PHASE_LAWS)
    def test_matches_the_per_entry_reference(self, law):
        # both column sets: kernel_rows' [s0 | residual] at each alpha and
        # the waiting record's [s0 | I]
        start, sub, _ = service.phase_type(law)
        exit_rates = -sub.sum(axis=1)
        col_sets = [np.column_stack((exit_rates, np.eye(len(start))))] + [
            np.column_stack((exit_rates, np.linalg.solve(alpha * np.eye(len(start)) - sub, exit_rates)))
            for alpha in (0.0, 0.9 + 0.3j)
        ]
        for plan in plans(40):
            for gamma in (0.0, 0.7, 2.5, 1.1 + 0.7j):
                for cols in col_sets:
                    got = kernels._phase_tables(plan, start, sub, gamma, cols)
                    want = per_entry_tables(plan, start, sub, gamma, cols)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def block_exponential(plan, d, gamma, alpha):
    """u and r(alpha) from scipy's exponential of the block
    [[(L - gamma I) d, d I], [0, -alpha d I]], L being the death generator:
    an independent reference for the Deterministic power series."""
    lams = plan.lams
    size = len(lams)
    death = np.diag(lams[1:], -1) - np.diag(lams)
    block = np.zeros((2 * size, 2 * size), dtype=complex)
    block[:size, :size] = (death - gamma * np.eye(size)) * d
    block[:size, size:] = d * np.eye(size)
    block[size:, size:] = -alpha * d * np.eye(size)
    e = scipy.linalg.expm(block)
    return e[:size, :size], e[:size, size:]


class TestDeterministicSeries:
    """The Poisson power series against the block exponential it replaces."""

    @pytest.mark.parametrize(
        "plan",
        [
            kernels.Constant(1.25, 10),
            kernels.Proportional(0.3, 40),
            kernels.General(tuple(0.5 + 0.6 * j for j in range(12))),
            kernels.Constant(1.0, 0),
        ],
    )
    def test_matches_block_exponential(self, plan):
        law = service.Deterministic(0.8)
        lam = plan.rates[0] if plan.m else 1.0
        gammas = np.concatenate(
            [[0.0, 0.3, 1.0, 5.0]] + [euler._euler_nodes(t, 32)[0] for t in (0.5, 2.0, 12.0)]
        )
        for alpha in (0.0, 0.6, lam, 2.0 + 1.0j, 8.0):
            for gamma in gammas:
                u, r = kernels.kernel_rows(plan, law, gamma, alpha)
                ref_u, ref_r = block_exponential(plan, 0.8, gamma, alpha)
                assert np.max(np.abs(u - ref_u)) <= 1e-13
                assert np.max(np.abs(r - ref_r)) <= 1e-13

    def test_matches_block_exponential_at_900_expected_arrivals(self):
        # lambda_max d = 900: about 1200 terms, in blocks of stacked powers.
        plan, law = kernels.Proportional(1.0, 300), service.Deterministic(3.0)
        for gamma, alpha in ((0.0, 0.0), (0.7, 2.0 + 1.0j)):
            u, r = kernels.kernel_rows(plan, law, gamma, alpha)
            ref_u, ref_r = block_exponential(plan, 3.0, gamma, alpha)
            assert np.max(np.abs(u - ref_u)) <= 1e-13
            assert np.max(np.abs(r - ref_r)) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 2.0 + 1.0j])
    def test_first_call_walks_the_powers_once(self, alpha, monkeypatch):
        # a fresh chain sums e^{L d} and r(alpha) from one walk of the powers
        # of P; once e^{L d} is cached a call walks them for r(alpha) alone
        walks = []

        def counted(self, cols, _powers=kernels._DeathChain._powers):
            walks.append(None)
            return _powers(self, cols)

        monkeypatch.setattr(kernels._DeathChain, "_powers", counted)
        plan, law = kernels.Proportional(1.0, 30), service.Deterministic(3.0)
        kernels._death_chain.cache_clear()
        u, r = kernels.kernel_rows(plan, law, 0.7, alpha)
        assert len(walks) == 1
        again_u, again_r = kernels.kernel_rows(plan, law, 0.7, alpha)
        assert len(walks) == 2
        kernels._death_chain.cache_clear()
        alone = kernels._death_chain(plan, 3.0).step
        assert len(walks) == 3
        # sharing the walk changes no bit of either table
        assert np.array_equal(r, again_r) and np.array_equal(u, again_u)
        assert np.array_equal(u, np.exp(-0.7 * 3.0) * alone)

    def test_overflowing_expected_arrivals_rejected(self):
        # lambda_max d = 1e400 is not a float: no term count exists.
        plan, law = kernels.Constant(1e200, 2), service.Deterministic(1e200)
        with pytest.raises(DomainError, match="lambda_max"):
            kernels.build_tables(plan, law, 1.0)
        with pytest.raises(DomainError, match="lambda_max"):
            inversion.pmf_at_time(1, 2, plan, law, 1.0)

    @pytest.mark.parametrize(
        "plan",
        [
            kernels.Constant(0.9, 200),
            kernels.Proportional(0.05, 200),
            kernels.General(tuple(0.3 + 0.01 * j for j in range(200))),
        ],
    )
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_large_pool_probabilities(self, plan, gamma):
        tables = kernels.build_tables(plan, service.Deterministic(0.8), gamma)
        assert tables.u.shape == tables.v.shape == (201, 201)
        assert tables.u.min() >= -1e-15 and tables.v.min() >= -1e-15
        assert np.max(np.abs(tables.u.sum(-1) + tables.v.sum(-1) - 1.0)) <= 1e-12
        assert np.max(np.abs(tables.u.sum(-1) - math.exp(-0.8 * gamma))) <= 1e-12


class TestWorkloadKernel:
    def test_alpha_zero_reduces_to_v(self):
        tables = kernels.build_tables(
            kernels.Proportional(0.9, 3), service.Erlang(2, 2.0), 1.1
        )
        assert np.allclose(tables.v_alpha(0.0), tables.v, rtol=0.0, atol=1e-12)

    def test_exponential_memoryless_factorization(self):
        # v00(alpha) = (gamma/(gamma+mu)) * (mu/(mu+alpha)): the residual of
        # B past T is again Exp(mu)
        mu, gamma, alpha = 1.4, 0.8, 1.9
        tables = kernels.build_tables(
            kernels.Constant(1.0, 0), service.Exponential(mu), gamma
        )
        expected = gamma / (gamma + mu) * mu / (mu + alpha)
        assert tables.v_alpha(alpha)[0, 0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("alpha", [-0.5, math.nan, math.inf, -0.5 + 1j])
    def test_alpha_outside_domain_refused(self, law, alpha):
        # kernel_rows checks every deadline alpha, so an alpha whose real
        # part is negative, infinite or NaN builds no table
        plan = kernels.Constant(1.0, 3)
        tables = kernels.build_tables(plan, law, 1.0)
        for call in (
            lambda: kernels.kernel_rows(plan, law, 1.0, alpha),
            lambda: tables.v_alpha(alpha),
        ):
            with pytest.raises(DomainError, match="alpha must have finite nonnegative real part"):
                call()

    @pytest.mark.parametrize("law", LAWS)
    def test_monte_carlo_check(self, law):
        # E[e^{-alpha(B-T)}; i arrivals by T, T <= B] estimated directly
        rng = np.random.default_rng(99)
        gamma, alpha, lam, n = 1.0, 0.7, 0.9, 2
        reps = 400_000
        plan = kernels.Constant(lam, n)
        tables = kernels.build_tables(plan, law, gamma)
        b = service.sample(law, rng, size=reps)
        t = rng.exponential(1.0 / gamma, size=reps)
        counts = rng.poisson(lam * t)
        inside = t <= b
        rows = tables.v_alpha(alpha)
        for i in range(n):
            hit = inside & (counts == i)
            vals = np.where(hit, np.exp(-alpha * np.maximum(b - t, 0.0)), 0.0)
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - rows[n, n - i]) <= 4 * se


class TestMonteCarloKernels:
    @pytest.mark.parametrize(
        "plan",
        [
            kernels.Constant(0.8, 3),
            kernels.Proportional(0.6, 3),
            kernels.General((0.5, 1.1, 1.9)),
        ],
    )
    def test_u_frequencies(self, plan):
        # i arrivals during B jointly with T > B, starting from n = 3
        rng = np.random.default_rng(2024)
        gamma, n, reps = 0.9, 3, 1_000_000
        law = service.Erlang(2, 2.0)
        tables = kernels.build_tables(plan, law, gamma)
        b = service.sample(law, rng, size=reps)
        t = rng.exponential(1.0 / gamma, size=reps)
        rates = plan.lams[1:]
        gaps = rng.exponential(1.0 / rates[::-1][: n], size=(reps, n))
        arrivals = np.cumsum(gaps, axis=1)
        counts = (arrivals <= b[:, None]).sum(axis=1)
        survive = t > b
        for i in range(n + 1):
            freq = (survive & (counts == i)).astype(float)
            se = freq.std(ddof=1) / math.sqrt(reps)
            assert abs(freq.mean() - tables.u[n, n - i]) <= 4 * max(se, 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=20.0, exclude_min=True),
    n=st.integers(min_value=0, max_value=6),
    lam=st.floats(min_value=0.1, max_value=4.0),
)
def test_mixture_probability_bounds(t, n, lam):
    row = arrival_probs(kernels.Proportional(lam, 6), t)[n]
    assert np.all((row >= -1e-10) & (row <= 1 + 1e-10))
