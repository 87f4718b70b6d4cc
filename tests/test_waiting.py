import math
from fractions import Fraction

import numpy as np
import pytest

from poolqueue import inversion, kernels, service, simulate, transient, waiting
from poolqueue.errors import DomainError
from test_simulate import replay

LAWS = [
    service.Exponential(1.3),
    service.Erlang(2, 2.0),
    service.HyperExponential((0.4, 0.6), (1.0, 3.0)),
    service.Deterministic(0.8),
]


def plans(m, lam=0.8):
    made = [kernels.Constant(lam, m), kernels.Proportional(lam, m)]
    if m:
        made.append(kernels.General(tuple(lam * (1 + 0.41 * j) for j in range(m))))
    return made


class TestEmptinessProbs:
    def test_first_arrival_into_empty_system(self):
        rhos = waiting.emptiness_probs(0, 2, kernels.Constant(1.0, 2), service.Exponential(1.0))
        assert rhos[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        rhos = waiting.emptiness_probs(1, 1, kernels.Constant(1.0, 1), service.Exponential(1.0))
        assert rhos[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_arrivals(self):
        rhos = waiting.emptiness_probs(2, 0, kernels.Constant(1.0, 0), service.Exponential(1.0))
        assert rhos.size == 0

    @pytest.mark.parametrize("law", LAWS)
    def test_within_unit_interval(self, law):
        for plan in plans(4):
            rhos = waiting.emptiness_probs(2, 4, plan, law)
            assert np.all(rhos >= 0.0) and np.all(rhos <= 1.0)

    def test_monte_carlo_large_pool(self):
        # An arriving customer finds the system empty exactly when it does
        # not wait, so rho_h = 1 - P(W_h > 0) for h = k+1..k+m.
        k, m = 3, 40
        plan = kernels.Constant(0.9, m)
        law = service.Erlang(2, 2.0)
        rhos = waiting.emptiness_probs(k, m, plan, law)
        js = range(k + 1, k + m + 1)
        config = simulate.SimConfig(
            k=k, m=m, plan=plan, law=law,
            tail_points=tuple((j, 0.0) for j in js),
            replications=200_000, seed=23,
        )
        report = simulate.simulate(config)
        for j, rho in zip(js, rhos):
            est = report.waiting_tail[(j, 0.0)]
            assert abs(1.0 - est.value - rho) <= 4 * max(est.stderr, 1e-12)


class TestWaitingLst:
    def test_first_customer_never_waits(self):
        got = waiting.waiting_lst(1, 3.7, 0, 2, kernels.Constant(1.0, 2), service.Exponential(1.0))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_pole_safe_hand_value(self):
        # alpha collides with the arrival rate; removable singularity
        got = waiting.waiting_lst(2, 1.0, 1, 1, kernels.Constant(1.0, 1), service.Exponential(1.0))
        assert got == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("law", LAWS)
    def test_at_alpha_zero(self, law):
        for plan in plans(3):
            for j in range(1, 6):
                got = waiting.waiting_lst(j, 0.0, 2, 3, plan, law)
                assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("law", LAWS)
    def test_slope_matches_mean(self, law):
        plan = kernels.Proportional(0.7, 3)
        h = 1e-4
        for j in range(1, 6):
            # one-sided second-order difference; the LST domain is Re >= 0
            f1 = waiting.waiting_lst(j, h, 2, 3, plan, law)
            f2 = waiting.waiting_lst(j, 2 * h, 2, 3, plan, law)
            slope = (4.0 * f1 - f2 - 3.0) / (2 * h)
            mean = waiting.waiting_mean(j, 2, 3, plan, law)
            assert -slope == pytest.approx(mean, abs=1e-6)

    def test_pole_removability(self):
        plan = kernels.General((0.9, 1.7, 2.6))
        for law in LAWS:
            for lam in plan.lams[1:]:
                lo = waiting.waiting_lst(5, lam * (1 - 1e-7), 2, 3, plan, law)
                hi = waiting.waiting_lst(5, lam * (1 + 1e-7), 2, 3, plan, law)
                assert abs(hi - lo) < 1e-4 * abs(lo)
                for j in range(1, 6):
                    at = waiting.waiting_lst(j, float(lam), 2, 3, plan, law)
                    assert 0.0 <= at <= 1.0

    @pytest.mark.parametrize(
        "law, seed", [(service.Erlang(2, 2.0), 5), (service.Deterministic(0.8), 6)]
    )
    def test_monte_carlo_agreement(self, law, seed):
        # E[exp(-alpha (start - arrival))] over replayed FIFO paths, with
        # alpha equal to the arrival rate among the points.
        k, m, lam = 3, 25, 0.9
        plan = kernels.Constant(lam, m)
        alphas = (lam, 0.5, 2 * lam)
        config = simulate.SimConfig(k=k, m=m, plan=plan, law=law)
        sums = np.zeros((len(alphas), k + m))
        squares = np.zeros_like(sums)
        n_rep, chunks = 50_000, 4
        for chunk in range(chunks):
            arrivals, start, _ = replay(config, simulate._chunk_rng(seed, chunk), n_rep)
            start -= arrivals  # now the waiting times
            for row, alpha in enumerate(alphas):
                draws = np.exp(-alpha * start)
                sums[row] += draws.sum(axis=0)
                squares[row] += (draws**2).sum(axis=0)
        total = n_rep * chunks
        est = sums / total
        stderr = np.sqrt(np.maximum(squares / total - est**2, 0.0) / total)
        for row, alpha in enumerate(alphas):
            for j in range(1, k + m + 1):
                exact = waiting.waiting_lst(j, alpha, k, m, plan, law)
                err = est[row, j - 1] - exact
                assert abs(err) <= 4 * max(stderr[row, j - 1], 1e-12)

    def test_decreasing_in_alpha(self):
        plan = kernels.Proportional(0.7, 2)
        vals = [
            waiting.waiting_lst(3, a, 1, 2, plan, service.Erlang(2, 2.0))
            for a in (0.0, 0.3, 0.9, 2.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            waiting.waiting_lst(4, 1.0, 1, 2, kernels.Constant(1.0, 2), service.Exponential(1.0))

    def test_nan_alpha_rejected(self):
        for alpha in (float("nan"), float("inf"), -0.5):
            with pytest.raises(DomainError):
                waiting.waiting_lst(
                    2, alpha, 1, 2, kernels.Constant(1.0, 2), service.Exponential(1.0)
                )


class TestWaitingMean:
    def test_first_initial_customer(self):
        got = waiting.waiting_mean(1, 1, 2, kernels.Constant(1.0, 2), service.Exponential(1.0))
        assert got == 0.0

    def test_hand_value(self):
        got = waiting.waiting_mean(2, 1, 1, kernels.Constant(1.0, 1), service.Exponential(1.0))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_lone_arrival_waits_zero(self):
        got = waiting.waiting_mean(1, 0, 1, kernels.Constant(0.7, 1), service.Exponential(1.0))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_initial_customers_stack_up(self):
        law = service.Erlang(2, 2.0)
        for j in range(1, 4):
            got = waiting.waiting_mean(j, 3, 0, kernels.Constant(1.0, 0), law)
            assert got == pytest.approx((j - 1) * service.mean(law), abs=1e-12)

    @pytest.mark.parametrize("law", [service.Exponential(1.1), service.Erlang(2, 2.0)])
    def test_monte_carlo_agreement(self, law):
        plan = kernels.Proportional(0.8, 3)
        config = simulate.SimConfig(
            k=2, m=3, plan=plan, law=law, replications=300_000, seed=11
        )
        report = simulate.simulate(config)
        for j in range(1, 6):
            est = report.waiting_means[j - 1]
            exact = waiting.waiting_mean(j, 2, 3, plan, law)
            assert abs(est.value - exact) <= 4 * max(est.stderr, 1e-12)


PHASE_LAWS = [
    service.Exponential(1.3),
    service.Erlang(2, 2.0),
    service.Erlang(4, 4.0),
    service.HyperExponential((0.4, 0.6), (1.0, 3.0)),
]

SHAPES = [(3, 30), (0, 4), (5, 12), (2, 0), (0, 1)]

# (k, m, plan) for the identities against the uniformized chain: an empty
# pool, an empty start and a General plan among them
CHAIN_SHAPES = [
    (2, 5, kernels.Constant(0.8, 5)),
    (0, 6, kernels.Proportional(0.9, 6)),
    (3, 0, kernels.Constant(0.8, 0)),
    (1, 4, kernels.General((0.5, 1.1, 0.7, 1.6))),
    (4, 9, kernels.Proportional(0.3, 9)),
]


def shaped_plans():
    for k, m in SHAPES:
        for plan in plans(m, lam=0.9):
            yield k, m, plan


def per_alpha_lsts(alpha, k, m, plan, law):
    """E[e^{-alpha W_j}], j = 1..k+m, from a gamma = 0 sweep of the residual
    kernel r(alpha): one kernel build and one sweep per alpha."""
    u, residual = kernels.kernel_rows(plan, law, 0.0, alpha)
    joint, empty = transient.sweep(k, m, plan, 0.0, u, residual)
    powers = service.lst(law, alpha) ** np.arange(k + m)
    lams = plan.lams
    arriving = empty + lams * (powers @ joint[1:])
    return np.concatenate((powers[:k], arriving[m:0:-1]))


def loop_mean(j, k, m, plan, law):
    """E[W_j] by the closed form, one customer at a time."""
    mb = service.mean(law)
    if j <= k:
        return (j - 1) * mb
    rhos = waiting.emptiness_probs(k, m, plan, law)
    lams = plan.lams[1:]
    total = (j - 1) * mb
    for i in range(j - k):
        total -= 1.0 / lams[m - i - 1]
    for h in range(k + 1, j + 1):
        total += rhos[h - k - 1] / lams[m - h + k]
    return total


def occupation_measure(k, m, plan, law):
    """The expected time spent in each state x[ell, n, phi] of the chain
    before it absorbs at (0, 0): (1 / q) sum_j x_j over the iterates of
    inversion._step, summed until the mass off (0, 0) is below 1e-18.  No
    kernel table and no diagonal sweep takes part."""
    q, start, ops = inversion._chain(plan, law)
    x = inversion._initial(k, m, plan, start)
    total = np.zeros_like(x)
    while x[1:].sum() + x[0, 1:].sum() >= 1e-18:
        total += x
        x = inversion._step(x, *ops)
    return total / q


class TestRecord:
    """One alpha-free gamma = 0 sweep per model gives every waiting answer."""

    @pytest.mark.parametrize("law", PHASE_LAWS)
    def test_record_is_the_occupation_measure(self, law):
        # joint[c, n', phi] is the expected time in (c, n', phi), and the
        # empty state (0, n'), left at rate lambda_{n'}, is entered at most
        # once, so empty[n'] = lambda_{n'} times the expected time there.
        for k, m, plan in (shape for shape in CHAIN_SHAPES if shape[1]):
            record = waiting._record(k, m, plan, law)
            times = occupation_measure(k, m, plan, law)
            assert np.max(np.abs(record.joint[1:] - times[1:])) <= 1e-14
            visits = plan.lams[1:] * times[0, 1:].sum(axis=1)
            assert np.max(np.abs(record.empty[1:] - visits)) <= 1e-14

    def test_means_are_exact_sums_at_a_large_pool(self):
        # 60 terms (rho - 1) / lambda with 1 / lambda up to 50, against the
        # exact rational sums of the record's own float inputs
        k, m = 20, 60
        plan, law = kernels.Proportional(0.02, m), service.Erlang(2, 2.0)
        rhos = waiting.emptiness_probs(k, m, plan, law)
        gaps = Fraction(0)
        for i in range(m):
            gaps += (Fraction(rhos[i]) - 1) / Fraction(plan.rates[m - 1 - i])
            want = (k + i) * Fraction(service.mean(law)) + gaps
            got = waiting.waiting_mean(k + i + 1, k, m, plan, law)
            assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want)

    @pytest.mark.parametrize("law", PHASE_LAWS + [service.Deterministic(0.8)])
    def test_lsts_match_per_alpha_sweep(self, law):
        for k, m, plan in shaped_plans():
            rate = plan.rates[-1] if m else 0.9
            for alpha in (0.5, rate, 2.0, 7.0, 2.0 + 1.0j):
                want = per_alpha_lsts(alpha, k, m, plan, law)
                got = [waiting.waiting_lst(j, alpha, k, m, plan, law) for j in range(1, k + m + 1)]
                assert np.max(np.abs(np.array(got) - want), initial=0.0) <= 1e-14

    @pytest.mark.parametrize("law", LAWS)
    def test_emptiness_matches_plain_sweep(self, law):
        for k, m, plan in shaped_plans():
            tables = kernels.build_tables(plan, law, 0.0)
            _, empty = transient.sweep(k, m, plan, 0.0, tables.u, tables.v)
            assert np.array_equal(waiting.emptiness_probs(k, m, plan, law), empty[m:0:-1])

    @pytest.mark.parametrize("law", LAWS)
    def test_means_match_closed_form_loop(self, law):
        for k, m, plan in shaped_plans():
            for j in range(1, k + m + 1):
                want = loop_mean(j, k, m, plan, law)
                got = waiting.waiting_mean(j, k, m, plan, law)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("law", PHASE_LAWS)
    def test_means_from_phase_axis(self, law):
        # Customer j finds c present with the service in phase phi, then
        # waits the residual, (-S)^{-1} 1 from phi, and c - 1 full services.
        _, sub, _ = service.phase_type(law)
        residual_mean = np.linalg.solve(-sub, np.ones(len(sub)))
        for k, m, plan in shaped_plans():
            joint = waiting._record(k, m, plan, law).joint
            counts = np.arange(k + m + 1)[:, None, None]
            left = joint * ((counts - 1) * service.mean(law) + residual_mean)
            lams = plan.lams
            means = lams * left[1:].sum(axis=(0, 2))
            for j in range(k + 1, k + m + 1):
                got = waiting.waiting_mean(j, k, m, plan, law)
                assert means[k + m - j + 1] == pytest.approx(got, rel=1e-12, abs=1e-300)

    def test_record_is_read_only(self):
        plan, law = kernels.Constant(0.9, 6), service.Erlang(2, 2.0)
        record = waiting._record(2, 6, plan, law)
        for array in (record.empty, record.joint, record.means,
                      waiting.emptiness_probs(2, 6, plan, law)):
            assert not array.flags.writeable
        assert record.joint.shape == (9, 7, 2)

    @pytest.mark.parametrize("law", PHASE_LAWS)
    def test_one_kernel_build_per_model(self, law, monkeypatch):
        calls = []
        original = kernels._phase_tables

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "_phase_tables", counted)
        plan = kernels.Constant(0.9, 7)
        waiting._record.cache_clear()
        waiting._waiting_lsts.cache_clear()
        waiting.emptiness_probs(2, 7, plan, law)
        for j in range(1, 10):
            waiting.waiting_mean(j, 2, 7, plan, law)
            for alpha in (0.3, 0.9, 2.0 + 1.0j):
                waiting.waiting_lst(j, alpha, 2, 7, plan, law)
        assert len(calls) == 1


    def test_float_erlang_shape_first_in_a_cold_cache(self):
        # Erlang(2.0) == Erlang(2): the record built first answers both
        plan = kernels.Constant(0.9, 5)
        answers = []
        for shape in (2.0, 2):
            waiting._record.cache_clear()
            answers.append([waiting.waiting_mean(j, 1, 5, plan, service.Erlang(shape, 2.0))
                            for j in range(1, 7)])
            answers.append(inversion.pmf_at_time(1, 5, plan, service.Erlang(shape, 2.0), 1.5))
        assert answers[0] == answers[2]
        assert np.array_equal(answers[1], answers[3])


class TestTailAsymptote:
    def test_first_customer(self):
        assert waiting.tail_asymptote(1, 9.0, service.Pareto(1.5, 1.0)) == 0.0

    def test_arithmetic(self):
        got = waiting.tail_asymptote(3, 4.0, service.Pareto(1.5, 1.0))
        assert got == pytest.approx(0.25)

    def test_below_scale(self):
        got = waiting.tail_asymptote(2, 0.5, service.Pareto(1.5, 1.0))
        assert got == pytest.approx(1.0)

    def test_requires_heavy_tail(self):
        with pytest.raises(DomainError):
            waiting.tail_asymptote(2, 1.0, service.Exponential(1.0))
        with pytest.raises(DomainError):
            waiting.tail_asymptote(2, 1.0, service.Pareto(2.5, 1.0))
