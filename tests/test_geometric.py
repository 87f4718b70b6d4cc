import math

import numpy as np
import pytest

from poolqueue import geometric, kernels, service, transient
from poolqueue.errors import DomainError, SingularityGuard

RATE_TRIPLES = [(1.0, 1.0, 1.0), (0.7, 1.5, 0.4), (1.8, 0.9, 2.2)]


def mu_grid(params, z, levels=45):
    """mu_{ln}(z) for l, n < levels, by the scalar recursion.

    One kernel-table build serves every n (the Constant-plan row for n
    customers outstanding does not depend on the pool size).
    """
    law = service.Exponential(params.mu)
    gamma = params.gamma
    tables = kernels.build_tables(kernels.Constant(params.lam, levels), law, gamma)
    top = 2 * levels + 2
    mu = np.zeros((top + 1, levels))
    u00, v00 = tables.u[0, 0], tables.v[0, 0]
    mu[0, 0] = 1.0
    for ell in range(1, top + 1):
        mu[ell, 0] = u00 * mu[ell - 1, 0] + z**ell * v00
    for n in range(1, levels):
        lam_n = params.lam
        mu[0, n] = gamma / (gamma + lam_n) + lam_n / (gamma + lam_n) * mu[1, n - 1]
        for ell in range(1, top - n + 1):
            acc = 0.0
            for i in range(n + 1):
                acc += mu[ell + i - 1, n - i] * tables.u[n, n - i]
                acc += z ** (ell + i) * tables.v[n, n - i]
            mu[ell, n] = acc
    return mu[: levels, :]


def truncated_series(params, p, r, z, levels=45):
    """Direct double sum of p^l r^n mu_{ln}(z)."""
    grid = mu_grid(params, z, levels)
    pows_p = p ** np.arange(levels)
    pows_r = r ** np.arange(levels)
    return float(pows_p @ grid @ pows_r)


def series_m1(params, r, z, levels=45):
    """M1(r, z) = sum_n r^n mu_{1n}(z), the one-initial-customer slice."""
    grid = mu_grid(params, z, levels)
    return float(grid[1, :] @ r ** np.arange(levels))


class TestRoots:
    def test_limit_at_r_one(self):
        # mu p^2 - xi p + lam r at lam=mu=gamma=1, r -> 1: p^2 - 3p + 1
        params = geometric.GeometricPoolParams(1.0, 1.0, 1.0)
        pstar, _ = geometric.roots(params, 1.0 - 1e-12)
        assert pstar == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-9)

    def test_degenerate_at_r_zero(self):
        params = geometric.GeometricPoolParams(1.0, 1.0, 1.0)
        pstar, phat = geometric.roots(params, 0.0)
        assert pstar == 0.0
        assert phat == np.inf

    @pytest.mark.parametrize("triple", RATE_TRIPLES)
    @pytest.mark.parametrize("r", [0.05, 0.4, 0.9])
    def test_vieta_and_quadratic(self, triple, r):
        params = geometric.GeometricPoolParams(*triple)
        pstar, phat = geometric.roots(params, r)
        assert params.mu * pstar * phat == pytest.approx(params.lam * r, abs=1e-12)
        for root in (pstar, phat):
            residual = params.mu * root**2 - params.xi * root + params.lam * r
            assert abs(residual) < 1e-12 * max(1.0, params.mu * root**2)
        assert 0.0 < pstar < 1.0
        assert phat > 1.0

    def test_r_out_of_range(self):
        params = geometric.GeometricPoolParams(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            geometric.roots(params, 1.0)
        with pytest.raises(DomainError):
            geometric.roots(params, -0.1)


class TestHelpers:
    def test_f_at_r_zero(self):
        params = geometric.GeometricPoolParams(0.7, 1.5, 0.4)
        _, _, f, _ = geometric.helpers(params, 0.0, 0.6)
        assert f == pytest.approx(params.gamma / (params.mu + params.gamma), abs=1e-12)

    def test_h2_positive_below_pole(self):
        params = geometric.GeometricPoolParams(1.0, 1.0, 1.0)
        band = params.mu / (params.mu + params.gamma)
        for z in (0.1, 0.25, 0.45):
            assert z < band
            _, h2, _, _ = geometric.helpers(params, 0.3, z)
            assert h2 > 0

    def test_h1_vanishes_at_z_one(self):
        params = geometric.GeometricPoolParams(0.7, 1.5, 0.4)
        h1, _, _, _ = geometric.helpers(params, 0.3, 1.0)
        assert h1 == pytest.approx(0.0, abs=1e-14)


class TestClosedForm:
    @pytest.mark.parametrize("z", [0.15, 0.4, 0.85, 1.0])
    def test_m0_at_r_zero_is_one(self, z):
        params = geometric.GeometricPoolParams(0.7, 1.5, 0.4)
        assert geometric.m0(params, 0.0, z) == pytest.approx(1.0, abs=1e-10)

    def test_g_at_p_zero_is_m0(self):
        params = geometric.GeometricPoolParams(1.8, 0.9, 2.2)
        for r, z in [(0.2, 0.3), (0.5, 0.8), (0.0, 0.6)]:
            assert geometric.g(params, 0.0, r, z) == pytest.approx(
                geometric.m0(params, r, z), abs=1e-10
            )

    @pytest.mark.parametrize("triple", RATE_TRIPLES)
    def test_series_identity(self, triple):
        params = geometric.GeometricPoolParams(*triple)
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = float(rng.uniform(0.05, 0.45))
            r = float(rng.uniform(0.05, 0.45))
            z = float(rng.uniform(0.1, 0.95))
            series = truncated_series(params, p, r, z)
            assert geometric.g(params, p, r, z) == pytest.approx(series, abs=1e-8)

    def test_m0_matches_zero_level_slice(self):
        params = geometric.GeometricPoolParams(1.0, 1.0, 1.0)
        # z avoids the guard bands at 1/3 and 1/2 for these rates
        for r, z in [(0.3, 0.6), (0.45, 0.8)]:
            series = truncated_series(params, 0.0, r, z)
            assert geometric.m0(params, r, z) == pytest.approx(series, abs=1e-8)

    @pytest.mark.parametrize("triple", RATE_TRIPLES)
    def test_m1_consistency_relation(self, triple):
        # M0 = 1 + (gamma/(lam+gamma)) r/(1-r) + (lam/(lam+gamma)) r M1
        params = geometric.GeometricPoolParams(*triple)
        lam, gamma = params.lam, params.gamma
        r, z = 0.35, 0.6
        m1 = series_m1(params, r, z)
        lhs = geometric.m0(params, r, z)
        rhs = 1.0 + gamma / (lam + gamma) * r / (1.0 - r) + lam / (lam + gamma) * r * m1
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestGuards:
    def test_singularity_bands(self):
        params = geometric.GeometricPoolParams(1.0, 1.0, 1.0)
        with pytest.raises(SingularityGuard):
            geometric.m0(params, 0.3, params.mu / params.xi)
        with pytest.raises(SingularityGuard):
            geometric.m0(params, 0.3, params.mu / (params.mu + params.gamma))

    def test_near_band_averaging_is_smooth(self):
        # just outside the refusal band the averaged value should line up
        # with clean evaluations further away
        params = geometric.GeometricPoolParams(1.0, 1.0, 1.0)
        band = params.mu / params.xi
        near = geometric.m0(params, 0.3, band + 5e-8)
        clean = geometric.m0(params, 0.3, band + 5e-5)
        assert near == pytest.approx(clean, rel=1e-3)

    def test_domain_checks(self):
        params = geometric.GeometricPoolParams(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            geometric.g(params, 1.0, 0.3, 0.6)
        with pytest.raises(DomainError):
            geometric.m0(params, 0.3, 1.5)
        nan, inf = float("nan"), float("inf")
        for rates in ((1.0, 0.0, 1.0), (nan, 1.0, 1.0), (1.0, 1.0, inf)):
            with pytest.raises(ValueError):
                geometric.GeometricPoolParams(*rates)
