import numpy as np
import pytest

from poolqueue import inversion, kernels, service, simulate, transient, waiting
from poolqueue.errors import DomainError, UnsupportedTransform

import euler
from test_waiting import CHAIN_SHAPES, PHASE_LAWS

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
    lams = plan.lams[1:]
    gm = gamma + mu
    u = np.zeros((plan.m + 1, plan.m + 1))
    for n in range(plan.m + 1):
        for i in range(n + 1):
            # i arrivals beat the service and the deadline, then the
            # service ends before the next arrival (if any) and the deadline.
            arrived = lams[n - i : n]
            nxt = lams[n - i - 1] if i < n else 0.0
            u[n, n - i] = np.prod(arrived / (arrived + gm)) * mu / (nxt + gm)
    v = gamma / mu * u
    return kernels.KernelTables(
        plan=plan, law=service.Exponential(mu), gamma=gamma, u=u, v=v
    )


def plans(m, lam=0.8):
    made = [kernels.Constant(lam, m), kernels.Proportional(lam, m)]
    if m:
        made.append(kernels.General(tuple(lam * (1 + 0.37 * j) for j in range(m))))
    return made


def uniformized_resolvent(k, m, plan, law, gamma):
    """P(Z(T) = l) at an Exp(gamma) deadline as the resolvent of the chain
    by uniformization (Grassmann, 1977): sum_j (gamma / (q + gamma))
    (q / (q + gamma))^j sum_{n, phi} x_j[l, n, phi], with x_j the iterates
    of inversion._step.  The sum stops once the weight left is below
    1e-18, or once the chain has absorbed at (0, 0), where that weight then
    goes.  No kernel table and no diagonal sweep takes part."""
    q, start, ops = inversion._chain(plan, law)
    x = inversion._initial(k, m, plan, start)
    ratio = q / (q + gamma)
    out = np.zeros(k + m + 1)
    j = 0
    while True:
        out += (1.0 - ratio) * ratio**j * x.sum(axis=(1, 2))
        left = ratio ** (j + 1)
        if left < 1e-18:
            return out
        if x[1:].sum() + x[0, 1:].sum() < 1e-18:
            out[0] += left
            return out
        x, j = inversion._step(x, *ops), j + 1


class TestPgf:
    @pytest.mark.parametrize("law", PHASE_LAWS)
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
    def test_pmf_is_the_uniformized_resolvent(self, law, gamma):
        for k, m, plan in CHAIN_SHAPES:
            got = transient.pmf(k, m, plan, law, gamma)
            want = uniformized_resolvent(k, m, plan, law, gamma)
            assert np.max(np.abs(got - want)) <= 1e-14

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
        const = kernels.Constant(lam, 40)
        for k, m, plan, tables in [
            (10, 40, const, kernels.build_tables(const, law, gamma)),
            (5, 25, prop, exponential_tables(prop, mu, gamma)),
        ]:
            joint, _ = transient.sweep(k, m, plan, gamma, tables.u, tables.v)
            marginal = simulate.ctmc_resolvent(k, m, plan, law, gamma).sum(axis=1)
            assert np.max(np.abs(joint.sum(axis=1) - marginal)) < 1e-10

    @pytest.mark.parametrize("triple", EXP_TRIPLES)
    def test_built_tables_match_ctmc_resolvent(self, triple):
        lam, mu, gamma = triple
        law = service.Exponential(mu)
        plan = kernels.Proportional(lam, 25)
        poly = transient.pgf(5, 25, plan, law, gamma)
        marginal = simulate.ctmc_resolvent(5, 25, plan, law, gamma).sum(axis=1)
        assert np.max(np.abs(poly.coeffs - marginal)) < 1e-12

    @pytest.mark.parametrize("triple", EXP_TRIPLES)
    def test_sweep_outstanding_matches_ctmc_resolvent(self, triple):
        # The killed mass by count present and count still to arrive is the
        # law of (Z(T), N(T)) at the deadline: the whole resolvent.
        lam, mu, gamma = triple
        law = service.Exponential(mu)
        k, m = 5, 25
        for plan in plans(m, lam):
            tables = kernels.build_tables(plan, law, gamma)
            joint, _ = transient.sweep(k, m, plan, gamma, tables.u, tables.v)
            resolvent = simulate.ctmc_resolvent(k, m, plan, law, gamma)
            assert joint.shape == resolvent.shape == (k + m + 1, m + 1)
            assert np.max(np.abs(joint - resolvent)) < 1e-12

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

    @pytest.mark.parametrize("alpha", [-0.5, float("nan"), float("inf")])
    def test_bad_alpha_rejected(self, alpha):
        plan, law = kernels.Constant(1.0, 2), service.Exponential(1.0)
        with pytest.raises(DomainError):
            transient.joint_transform(1, 2, plan, law, 1.0, alpha)
        with pytest.raises(DomainError):
            transient.workload_lst(1, 2, plan, law, 1.0, alpha)

    @pytest.mark.parametrize(
        "gamma", [-1.0, float("nan"), float("inf"), np.array([0.5, -1.0])]
    )
    def test_bad_real_gamma_rejected(self, gamma):
        plan, law = kernels.Constant(1.0, 3), service.Erlang(2, 2.0)
        with pytest.raises(DomainError):
            transient.pmf(1, 3, plan, law, gamma)
        with pytest.raises(DomainError):
            transient.joint_transform(1, 3, plan, law, gamma, 0.5)

    def test_value_at_one_alpha_zero_is_one(self):
        law = service.Erlang(3, 2.5)
        joint = transient.joint_transform(
            3, 2, kernels.Proportional(0.7, 2), law, 0.8, 0.0
        )
        assert abs(joint(1.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("law", LAWS)
    def test_one_kernel_build(self, law, monkeypatch):
        calls = []
        original = kernels.kernel_rows

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "kernel_rows", counted)
        plan = kernels.Constant(0.9, 5)
        joint = transient.joint_transform(2, 5, plan, law, 0.7, 0.6)
        assert len(calls) == 1
        # Real at real gamma and alpha.
        total = transient.workload_lst(2, 5, plan, law, 0.7, 0.6)
        assert joint.coeffs.dtype == total.dtype == np.float64
        assert abs(joint.coeffs.sum() - total) < 1e-15


class TestPhaseAxis:
    """A deposit with a trailing phase axis, in the same pass as the plain one."""

    @pytest.mark.parametrize("law", LAWS[:3] + [service.Erlang(4, 4.0)])
    @pytest.mark.parametrize("gamma", [0.7, 1.0 + 2.0j], ids=["0.7", "gamma1"])
    def test_projects_to_the_plain_sweep(self, law, gamma):
        start, sub, _ = service.phase_type(law)
        p = len(start)
        for k, m, plan in [(2, 5, kernels.Proportional(0.9, 5)), (0, 3, kernels.Constant(1.1, 3)),
                           (3, 0, kernels.Constant(1.0, 0))]:
            u, r = kernels.kernel_rows(plan, law, gamma, 0.0)
            phases = kernels._phase_tables(plan, start, sub, gamma)
            joint, empty = transient.sweep(k, m, plan, gamma, u, gamma * r)
            resolved, resolved_empty = transient.sweep(k, m, plan, gamma, u, phases)
            assert resolved.shape == (k + m + 1, m + 1, p)
            assert np.array_equal(resolved_empty, empty)
            assert not np.any(resolved[0])
            killed = gamma * resolved[1:].sum(-1)
            assert np.max(np.abs(killed - joint[1:])) <= 1e-15


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


    @pytest.mark.parametrize("max_order", [-1, -3])
    def test_negative_order_refused(self, max_order):
        # -1 returned [] and -3 failed inside numpy
        with pytest.raises(DomainError, match="max_order must be nonnegative"):
            transient.factorial_moments(
                2, 3, kernels.Constant(1.0, 3), service.Exponential(1.0), 1.0, max_order
            )


class TestComplexGamma:
    def test_pipeline_accepts_complex_killing_rate(self):
        gamma = 0.9 + 1.7j
        poly = transient.pgf(
            2, 2, kernels.Constant(1.0, 2), service.Erlang(2, 2.0), gamma
        )
        # normalization survives analytic continuation in gamma
        assert np.iscomplexobj(poly.coeffs)
        assert abs(poly(1.0) - 1.0) < 1e-10


def far_left_nodes(r):
    """Nodes r theta (cot theta + i) for theta = pi j / 32, 0 < j < 32: a
    contour that bends far into the left half-plane as theta nears pi."""
    theta = np.pi * np.arange(1, 32) / 32
    return r * theta * (1.0 / np.tan(theta) + 1j)


def contour_nodes():
    """Euler nodes at t = 1, a real node and complex nodes on a contour
    through it, and the six most far-left nodes at r = 128, where
    Deterministic tables overflow."""
    nodes, _ = euler._euler_nodes(1.0, 32)
    return np.concatenate(
        (nodes, [25.6], far_left_nodes(25.6), far_left_nodes(128.0)[-6:])
    )


class TestNodeAxis:
    """gamma at the nodes of inversion contours, one killing rate per call:
    an array of them is rejected, not broadcast."""

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("plan_index", range(3))
    def test_only_deterministic_tables_overflow_far_left(self, law, plan_index):
        # e^{-gamma d} overflows at the three nodes with Re(gamma) d < -709.
        m = 6
        plan, nodes = plans(m)[plan_index], contour_nodes()
        overflowed = []
        with np.errstate(all="ignore"):
            for j, gamma in enumerate(nodes):
                u, _ = kernels.kernel_rows(plan, law, gamma, 0.6)
                if not np.isfinite(u[m]).all():
                    overflowed.append(j)
        far = [len(nodes) - 3, len(nodes) - 2, len(nodes) - 1]
        assert overflowed == (far if isinstance(law, service.Deterministic) else [])

    @pytest.mark.parametrize("law", [service.Erlang(2, 2.0), service.Deterministic(0.8)])
    @pytest.mark.parametrize(
        "gamma",
        [np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5]), np.array([[0.5]]),
         euler._euler_nodes(1.0, 32)[0]],
        ids=["m-plus-one", "one", "2-d", "euler"],
    )
    def test_node_array_rejected(self, law, gamma):
        # with m + 1 = 4 rates, lambda + gamma would broadcast entry by entry
        k, m = 1, 3
        plan = kernels.Constant(1.0, m)
        calls = [
            lambda: kernels.kernel_rows(plan, law, gamma, 0.0),
            lambda: kernels.build_tables(plan, law, gamma),
            lambda: transient.pgf(k, m, plan, law, gamma),
            lambda: transient.pmf(k, m, plan, law, gamma),
            lambda: transient.joint_transform(k, m, plan, law, gamma, 0.5),
            lambda: transient.workload_lst(k, m, plan, law, gamma, 0.5),
            lambda: transient.factorial_moments(k, m, plan, law, gamma, 2),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="one killing rate"):
                call()
        # one complex node still passes: the Euler oracle evaluates there
        probs = transient.pmf(k, m, plan, law, 1.0 + 2.0j)
        assert probs.shape == (k + m + 1,) and np.iscomplexobj(probs)
        assert abs(probs.sum() - 1.0) <= 1e-13

    def test_non_phase_type_law_raises(self):
        plan, law = kernels.Constant(0.7, 3), service.Pareto(1.5, 1.0)
        gamma = contour_nodes()[0]
        with pytest.raises(UnsupportedTransform):
            kernels.kernel_rows(plan, law, gamma, 0.0)
        with pytest.raises(UnsupportedTransform):
            transient.pmf(1, 3, plan, law, gamma)
        with pytest.raises(UnsupportedTransform):
            inversion.pmf_at_time(1, 3, plan, law, 1.0)


class TestNegativeCounts:
    """A negative k is refused, not answered, by the engine behind every
    answer: the sweep, the uniformized chain, the reflection pass and the
    CTMC resolvent."""

    @pytest.mark.parametrize("law", [service.Erlang(2, 2.0), service.Deterministic(0.8)])
    def test_every_entry_refuses_a_negative_k(self, law):
        k, m, plan = -1, 2, kernels.Constant(1.0, 2)
        calls = [
            lambda: transient.pgf(k, m, plan, law, 0.7),
            lambda: transient.pmf(k, m, plan, law, 0.7),
            lambda: transient.factorial_moments(k, m, plan, law, 0.7, 2),
            lambda: transient.joint_transform(k, m, plan, law, 0.7, 0.5),
            lambda: transient.workload_lst(k, m, plan, law, 0.7, 0.5),
            lambda: inversion.pmf_at_time(k, m, plan, law, 1.0),
            lambda: inversion.pgf_at_time(k, m, plan, law, 0.5, 1.0),
            lambda: inversion.workload_lst_at_time(k, m, plan, law, 0.5, 1.0),
            lambda: waiting.emptiness_probs(k, m, plan, law),
            lambda: waiting.waiting_mean(1, k, m, plan, law),
            lambda: waiting.waiting_lst(1, 0.5, k, m, plan, law),
        ]
        if not isinstance(law, service.Deterministic):
            calls += [
                lambda: simulate.ctmc_resolvent(k, m, plan, law, 0.7),
                lambda: simulate.ctmc_at_time(k, m, plan, law, 1.0),
            ]
        for call in calls:
            with pytest.raises(DomainError, match="k and m must be nonnegative"):
                call()


class TestPlanLength:
    """A rate plan is exactly lambda_1..lambda_m: a plan one rate longer or
    one rate shorter than m is refused by every entry, not answered from
    its first m rates nor failed inside numpy."""

    @pytest.mark.parametrize("law", [service.Erlang(2, 2.0), service.Deterministic(0.8)])
    @pytest.mark.parametrize("rates", [4, 2], ids=["longer", "shorter"])
    def test_every_entry_refuses_a_plan_not_m_rates_long(self, law, rates):
        k, m, plan = 2, 3, kernels.Constant(0.9, rates)
        calls = [
            lambda: transient.pgf(k, m, plan, law, 0.7),
            lambda: transient.pmf(k, m, plan, law, 0.7),
            lambda: transient.factorial_moments(k, m, plan, law, 0.7, 2),
            lambda: transient.joint_transform(k, m, plan, law, 0.7, 0.5),
            lambda: transient.workload_lst(k, m, plan, law, 0.7, 0.5),
            lambda: waiting.emptiness_probs(k, m, plan, law),
            lambda: waiting.waiting_mean(k + m, k, m, plan, law),
            lambda: waiting.waiting_lst(k + m, 0.5, k, m, plan, law),
            lambda: inversion.pmf_at_time(k, m, plan, law, 1.0),
            lambda: inversion.pgf_at_time(k, m, plan, law, 0.5, 1.0),
            lambda: inversion.workload_lst_at_time(k, m, plan, law, 0.5, 1.0),
            lambda: simulate.SimConfig(k, m, plan, law, gamma=0.7),
        ]
        if not isinstance(law, service.Deterministic):
            calls += [
                lambda: simulate.ctmc_resolvent(k, m, plan, law, 0.7),
                lambda: simulate.ctmc_at_time(k, m, plan, law, 1.0),
            ]
        for call in calls:
            with pytest.raises(DomainError, match=f"the plan has {rates} rates for a pool of m = 3"):
                call()
