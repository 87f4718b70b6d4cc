import numpy as np
import pytest

from poolqueue import kernels, service, simulate, transient

LAWS = [
    service.Exponential(1.3),
    service.Erlang(2, 2.0),
    service.HyperExponential((0.4, 0.6), (1.0, 3.0)),
    service.Deterministic(0.8),
]

EXP_TRIPLES = [(1.0, 1.0, 1.0), (0.6, 1.4, 0.3), (2.2, 0.9, 2.5)]


def exponential_tables(plan, mu, gamma):
    """Kernel tables for Exp(mu) service from the race against min(B, T).

    Products of race probabilities, exact at any pool size: an independent
    reference for the built tables and a way to test the sweep on its own.
    """
    lams = kernels.plan_rates(plan)
    gm = gamma + mu
    u = []
    for n in range(plan.m + 1):
        row = np.empty(n + 1)
        for i in range(n + 1):
            # i arrivals beat the service and the deadline, then the
            # service ends before the next arrival (if any) and the deadline.
            arrived = lams[n - i : n]
            nxt = lams[n - i - 1] if i < n else 0.0
            row[i] = np.prod(arrived / (arrived + gm)) * mu / (nxt + gm)
        u.append(row)
    v = [gamma / mu * row for row in u]
    return kernels.KernelTables(
        plan=plan, law=service.Exponential(mu), gamma=gamma, u=u, v=v
    )


def plans(m, lam=0.8):
    made = [kernels.Constant(lam, m), kernels.Proportional(lam, m)]
    if m:
        made.append(kernels.General(tuple(lam * (1 + 0.37 * j) for j in range(m))))
    return made


class TestPgf:
    def test_empty_system(self):
        poly = transient.pgf(0, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0)
        assert np.allclose(poly.coeffs, [1.0])

    def test_single_initial_customer(self):
        poly = transient.pgf(1, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0)
        assert np.allclose(poly.coeffs, [0.5, 0.5], atol=1e-14)

    def test_single_arriving_customer(self):
        poly = transient.pgf(0, 1, kernels.Constant(1.0, 1), service.Exponential(1.0), 1.0)
        assert np.allclose(poly.coeffs, [0.75, 0.25], atol=1e-14)

    def test_initial_customers_closed_form(self):
        # with no arrivals the recursion telescopes:
        # mu_{k0}(z) = u00^k + v00 * sum_{j=1..k} u00^{k-j} z^j
        law = service.Erlang(2, 2.0)
        gamma = 0.9
        u00 = service.lst(law, gamma)
        v00 = 1.0 - u00
        for k in range(1, 6):
            poly = transient.pgf(k, 0, kernels.Constant(1.0, 0), law, gamma)
            expected = np.zeros(k + 1)
            expected[0] = u00**k
            for j in range(1, k + 1):
                expected[j] = v00 * u00 ** (k - j)
            assert np.allclose(poly.coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("law", LAWS)
    def test_normalization(self, law):
        for k, m in [(0, 0), (1, 3), (4, 2), (6, 6), (0, 8), (12, 0)]:
            for plan in plans(m):
                poly = transient.pgf(k, m, plan, law, 1.1)
                assert abs(poly.coeffs.sum() - 1.0) < 1e-10
                assert np.all(poly.coeffs >= -1e-10)
                assert poly.degree <= k + m

    @pytest.mark.parametrize("triple", EXP_TRIPLES)
    def test_matches_ctmc_resolvent(self, triple):
        lam, mu, gamma = triple
        law = service.Exponential(mu)
        for k in (0, 1, 3, 6):
            for m in (0, 1, 4, 6):
                for plan in [kernels.Constant(lam, m), kernels.Proportional(lam, m)]:
                    poly = transient.pgf(k, m, plan, law, gamma)
                    marginal = simulate.ctmc_resolvent(k, m, plan, law, gamma).sum(axis=1)
                    assert np.max(np.abs(poly.coeffs - marginal)) < 1e-10

    @pytest.mark.parametrize("triple", EXP_TRIPLES)
    def test_matches_ctmc_resolvent_at_larger_pools(self, triple):
        # The Proportional case runs on exact race tables, so what is checked
        # there is the diagonal sweep alone; the next test uses built tables.
        lam, mu, gamma = triple
        law = service.Exponential(mu)
        prop = kernels.Proportional(lam, 25)
        for k, m, plan, tables in [
            (10, 40, kernels.Constant(lam, 40), None),
            (5, 25, prop, exponential_tables(prop, mu, gamma)),
        ]:
            poly = transient.pgf(k, m, plan, law, gamma, tables=tables)
            marginal = simulate.ctmc_resolvent(k, m, plan, law, gamma).sum(axis=1)
            assert np.max(np.abs(poly.coeffs - marginal)) < 1e-10

    @pytest.mark.parametrize("triple", EXP_TRIPLES)
    def test_built_tables_match_ctmc_resolvent(self, triple):
        lam, mu, gamma = triple
        law = service.Exponential(mu)
        plan = kernels.Proportional(lam, 25)
        poly = transient.pgf(5, 25, plan, law, gamma)
        marginal = simulate.ctmc_resolvent(5, 25, plan, law, gamma).sum(axis=1)
        assert np.max(np.abs(poly.coeffs - marginal)) < 1e-12

    @pytest.mark.parametrize(
        "plan",
        [
            kernels.Proportional(0.8, 60),
            kernels.General(tuple(0.8 * (1 + 0.37 * j) for j in range(40))),
        ],
    )
    def test_built_tables_match_race_tables_at_large_pools(self, plan):
        exact = exponential_tables(plan, 1.3, 0.7)
        built = kernels.build_tables(plan, service.Exponential(1.3), 0.7)
        for n in range(plan.m + 1):
            assert np.allclose(built.u[n], exact.u[n], rtol=1e-12, atol=0.0)
            assert np.allclose(built.v[n], exact.v[n], rtol=1e-12, atol=0.0)

    def test_exponential_tables_match_built_tables(self):
        for plan in plans(6):
            exact = exponential_tables(plan, 1.3, 0.7)
            built = kernels.build_tables(plan, service.Exponential(1.3), 0.7)
            for n in range(7):
                assert np.max(np.abs(exact.u[n] - built.u[n])) < 1e-14
                assert np.max(np.abs(exact.v[n] - built.v[n])) < 1e-14

    def test_large_pool_normalization(self):
        plan = kernels.Constant(1.0, 400)
        poly = transient.pgf(20, 400, plan, service.Exponential(1.0), 1.0)
        assert np.all(poly.coeffs >= 0.0)
        assert abs(poly.coeffs.sum() - 1.0) < 1e-10


class TestJointTransform:
    @pytest.mark.parametrize("law", LAWS)
    def test_alpha_zero_reduces_to_pgf(self, law):
        for k, m, plan in [
            (2, 3, kernels.Proportional(0.9, 3)),
            (10, 40, kernels.Constant(0.9, 40)),
        ]:
            joint = transient.joint_transform(k, m, plan, law, 1.1, 0.0)
            poly = transient.pgf(k, m, plan, law, 1.1)
            assert np.max(np.abs(joint.coeffs - poly.coeffs)) < 1e-12

    def test_empty_system_is_one(self):
        joint = transient.joint_transform(
            0, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0, 2.7
        )
        assert joint(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_customer_hand_value(self):
        # E[z^{Z(T)} e^{-W(T)}] at z=1: u00 + v00(alpha) = 1/2 + 1/4
        joint = transient.joint_transform(
            1, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0, 1.0
        )
        assert joint(1.0) == pytest.approx(0.75, abs=1e-12)

    def test_value_at_one_alpha_zero_is_one(self):
        law = service.Erlang(3, 2.5)
        joint = transient.joint_transform(
            3, 2, kernels.Proportional(0.7, 2), law, 0.8, 0.0
        )
        assert abs(joint(1.0) - 1.0) < 1e-10


class TestWorkloadLst:
    def test_alpha_zero(self):
        got = transient.workload_lst(
            2, 2, kernels.Constant(1.0, 2), service.Exponential(1.0), 1.0, 0.0
        )
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_empty_system(self):
        got = transient.workload_lst(
            0, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0, 3.3
        )
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        got = transient.workload_lst(
            1, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0, 1.0
        )
        assert got == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("law", LAWS)
    def test_decreasing_in_alpha(self, law):
        plan = kernels.Constant(0.8, 2)
        vals = [
            float(np.real(transient.workload_lst(1, 2, plan, law, 1.0, a)))
            for a in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPmfAndMoments:
    def test_pmf_example(self):
        got = transient.pmf(0, 1, kernels.Constant(1.0, 1), service.Exponential(1.0), 1.0)
        assert np.allclose(got, [0.75, 0.25], atol=1e-14)

    def test_first_factorial_moment(self):
        got = transient.factorial_moments(
            1, 0, kernels.Constant(1.0, 0), service.Exponential(1.0), 1.0, 1
        )
        assert got[1] == pytest.approx(0.5, abs=1e-12)

    def test_zeroth_convention(self):
        got = transient.factorial_moments(
            2, 1, kernels.Constant(1.0, 1), service.Exponential(1.0), 1.0, 0
        )
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    def test_moments_match_pmf(self):
        law = service.Erlang(2, 2.0)
        plan = kernels.Proportional(0.6, 3)
        probs = transient.pmf(2, 3, plan, law, 0.9)
        moments = transient.factorial_moments(2, 3, plan, law, 0.9, 3)
        levels = np.arange(len(probs))
        for order, got in enumerate(moments[1:], start=1):
            falling = np.ones_like(levels, dtype=float)
            for step in range(order):
                falling *= np.maximum(levels - step, 0)
            assert got == pytest.approx(float(falling @ probs), abs=1e-12)


class TestComplexGamma:
    def test_pipeline_accepts_complex_killing_rate(self):
        gamma = 0.9 + 1.7j
        poly = transient.pgf(
            2, 2, kernels.Constant(1.0, 2), service.Erlang(2, 2.0), gamma
        )
        # normalization survives analytic continuation in gamma
        assert np.iscomplexobj(poly.coeffs)
        assert abs(poly(1.0) - 1.0) < 1e-10
