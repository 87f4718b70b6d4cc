"""Closed-form bivariate generating function for geometric initial conditions.

For exponential service at rate mu, constant arrival rate lam, and killing
rate gamma, the double generating function over the number initially
present (variable p) and the pool size (variable r) of the queue-length
PGF admits a closed form.  Multiplying it by (1-p)(1-r) gives the PGF of
the customer count at the deadline when both initial counts are
independent geometric random variables.

Only this exponential-service, constant-rate case is covered; the closed
form does not extend to other laws or plans.
"""

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import DomainError, SingularityGuard

__all__ = ["GeometricPoolParams", "roots", "helpers", "m0", "g"]

_GUARD = 1e-9
_NEAR_BAND = 1e-6


@dataclass(frozen=True)
class GeometricPoolParams:
    lam: float
    mu: float
    gamma: float

    def __post_init__(self):
        if not all(0 < x < inf for x in (self.lam, self.mu, self.gamma)):
            raise ValueError("all three rates must be positive and finite")

    @property
    def xi(self):
        return self.lam + self.mu + self.gamma


def _check_r(r):
    if not 0 <= r < 1:
        raise DomainError("r must lie in [0, 1)")


def _phat(params, r):
    # Larger root of mu p^2 - xi p + lam r = 0; equals xi/mu at r = 0.
    xi = params.xi
    return (xi + np.sqrt(xi * xi - 4.0 * params.mu * params.lam * r)) / (2.0 * params.mu)


def roots(params, r):
    """The two zeros (p_star, p_hat) of mu p^2 - xi p + lam r.

    p_star lies in [0, 1); their product is lam r / mu.  At r = 0 the
    convention p_hat = lam r / (mu p_star) degenerates and +inf is returned.
    """
    _check_r(r)
    phat = _phat(params, r)
    pstar = params.lam * r / (params.mu * phat)
    if r == 0:
        return 0.0, np.inf
    return pstar, params.lam * r / (params.mu * pstar)


def _check_z(params, z):
    if not (isinstance(z, complex) or 0 < z <= 1):
        raise DomainError("z must lie in (0, 1]")
    mu, gamma, xi = params.mu, params.gamma, params.xi
    for band in (mu / xi, mu / (mu + gamma)):
        if abs(z - band) < _GUARD:
            raise SingularityGuard(
                f"z = {z} is within 1e-9 of the excluded point {band}"
            )


def _helpers_raw(params, r, z):
    lam, mu, gamma, xi = params.lam, params.mu, params.gamma, params.xi
    mg = mu + gamma
    h1 = mg * (1.0 - z) / (mu - mg * z) * lam * mu / (mg * xi - r * mu * lam)
    h2 = gamma / (mu - mg * z) * mu / mg * lam / (xi - lam * r * z)
    f = gamma / mg * (xi - lam * r) / ((1.0 - r) * (xi - lam * r * z))
    return h1, h2, f, h2 - f


def helpers(params, r, z):
    """The scalar building blocks (H1, H2, F, J) of the closed form."""
    _check_r(r)
    _check_z(params, z)
    return _helpers_raw(params, r, z)


def _m0_raw(params, r, z):
    lam, mu, gamma = params.lam, params.mu, params.gamma
    xi, mg = params.xi, mu + gamma
    phat = _phat(params, r)
    pstar = lam * r / (mu * phat)
    h1, _, _, j = _helpers_raw(params, r, z)
    denom = (lam + gamma) * phat - lam * r
    bracket = (
        mu / mg * (lam * mu * r - mg * xi) / (mg - pstar * mu) * h1
        - z * (lam * r * z - xi) / (1.0 - pstar * z) * j
    )
    return (
        (lam + gamma) * phat / denom
        + gamma * r * phat / ((1.0 - r) * denom)
        - lam * r / mu / denom * bracket
    )


def _g_raw(params, p, r, z):
    lam, mu, gamma = params.lam, params.mu, params.gamma
    xi, mg = params.xi, mu + gamma
    phat = _phat(params, r)
    pstar = lam * r / (mu * phat)
    h1, _, _, j = _helpers_raw(params, r, z)
    # lam r / pstar appears as the weight of the M0 term; written as
    # mu * phat it stays finite at r = 0.
    rhs = (
        -mu * phat * _m0_raw(params, r, z)
        + p * mu / (mg - p * mu) * (lam * mu * r - mg * xi) / (mg - pstar * mu) * h1
        - p * z / (1.0 - p * z) * (lam * r * z - xi) / (1.0 - pstar * z) * j
    )
    return rhs / (mu * (p - phat))


def _near_band_average(params, z, evaluate):
    mu, gamma, xi = params.mu, params.gamma, params.xi
    dist = min(abs(z - mu / xi), abs(z - mu / (mu + gamma)))
    if dist >= _NEAR_BAND:
        return evaluate(z)
    # Removable (or omitted) singularity: average over a small complex
    # circle around z, where the combined expression is analytic.
    radius = _NEAR_BAND
    angles = np.pi / 4 + np.pi / 2 * np.arange(4)
    vals = [evaluate(z + radius * np.exp(1j * a)) for a in angles]
    return float(np.mean(vals).real)


def m0(params, r, z):
    """Generating function over the pool size of the empty-start PGFs."""
    _check_r(r)
    _check_z(params, z)
    return _near_band_average(params, z, lambda zz: _m0_raw(params, r, zz))


def g(params, p, r, z):
    """The full bivariate generating function G(p, r, z).

    Multiply by (1-p)(1-r) to obtain E[z^{Z(T)}] under independent
    geometric numbers of initial customers (parameter p) and pool members
    (parameter r).
    """
    if not 0 <= p < 1:
        raise DomainError("p must lie in [0, 1)")
    _check_r(r)
    _check_z(params, z)
    return _near_band_average(params, z, lambda zz: _g_raw(params, p, r, zz))
