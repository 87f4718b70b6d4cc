"""Numerical Laplace inversion: time-domain quantities from the transforms.

The pipeline produces expectations at an independent Exp(gamma) deadline;
dividing by gamma turns each of them into the Laplace transform (in gamma)
of the corresponding function of deterministic time.  Two standard
Bromwich-contour discretizations recover the originals: Euler summation
(binomial averaging of a trapezoidal Fourier series) as the workhorse and
the fixed Talbot contour as an independent cross-check.
"""

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from . import transient
from .errors import ConvergenceWarning, DomainError, NormalizationError

__all__ = [
    "InversionConfig",
    "invert",
    "pmf_at_time",
    "pgf_at_time",
    "workload_lst_at_time",
]


@dataclass(frozen=True)
class InversionConfig:
    method: str = "euler"
    nodes: int = 32
    cross_tolerance: float = 1e-6
    cross_check: bool = True

    def __post_init__(self):
        if self.method not in ("euler", "talbot"):
            raise ValueError("method must be 'euler' or 'talbot'")
        if self.nodes < 8 or self.nodes % 2:
            raise ValueError("node count must be even and at least 8")


def _euler_sum(transform, t, nodes):
    # Abate-Whitt Euler scheme: beta_k = n ln(10)/3 + i pi k on a vertical
    # line, alternating series accelerated by binomial averaging.
    n = nodes // 2
    k = np.arange(2 * n + 1)
    eta = np.zeros(2 * n + 1)
    eta[0] = 0.5
    eta[1 : n + 1] = 1.0
    eta[2 * n] = 2.0**-n
    for j in range(1, n):
        eta[2 * n - j] = eta[2 * n - j + 1] + comb(n, j) * 2.0**-n
    weights = 10.0 ** (n / 3.0) * (-1.0) ** k * eta / t
    s = (n * np.log(10.0) / 3.0 + 1j * np.pi * k) / t
    values = np.array([transform(sj) for sj in s])
    return weights @ np.real(values)


def _talbot_sum(transform, t, nodes):
    # Fixed Talbot contour (cotangent parabola), r = 2M / (5t).
    M = nodes
    r = 2.0 * M / (5.0 * t)
    total = 0.5 * np.exp(r * t) * np.real(transform(r + 0.0j))
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    for sk, sig in zip(s, sigma):
        total += np.real(np.exp(t * sk) * transform(sk) * (1.0 + 1j * sig))
    return total * r / M


_METHODS = {"euler": _euler_sum, "talbot": _talbot_sum}


def invert(fhat, t, config=None):
    """Recover f(t) from gamma |-> fhat(gamma) where fhat(gamma)/gamma = L f.

    fhat is the deadline-expectation form E[f at an Exp(gamma) time]; its
    division by gamma gives the plain Laplace transform inverted here.  fhat
    may return a vector, evaluated once per contour node and inverted
    componentwise; the result is then an array, else a float.  When
    cross-checking is on, the secondary method is evaluated too and one
    ConvergenceWarning is emitted unless every component agrees within
    tolerance (a NaN never agrees).
    """
    if t <= 0:
        raise DomainError("inversion requires t > 0")
    config = config or InversionConfig()

    def transform(s):
        return fhat(s) / s

    primary = _METHODS[config.method](transform, t, config.nodes)
    if config.cross_check:
        other = "talbot" if config.method == "euler" else "euler"
        secondary = _METHODS[other](transform, t, config.nodes)
        gap = np.abs(primary - secondary)
        if not np.all(gap <= config.cross_tolerance):
            warnings.warn(
                f"euler/talbot disagree at t={t}: largest gap {np.max(gap)}",
                ConvergenceWarning,
            )
    return primary if np.ndim(primary) else float(primary)


def pmf_at_time(k, m, plan, law, t, config=None):
    """P(Z(t) = l) for l = 0..k+m, by inverting each PGF coefficient.

    t = 0 is answered analytically (all mass at k).  The inverted vector is
    renormalized when its total mass is within 1e-6 of one and rejected
    otherwise.
    """
    levels = k + m + 1
    if t == 0:
        out = np.zeros(levels)
        out[k] = 1.0
        return out

    raw = invert(lambda gamma: transient.pmf(k, m, plan, law, gamma), t, config)
    total = raw.sum()
    if abs(total - 1.0) > 1e-6:
        raise NormalizationError(
            f"inverted pmf mass {total} deviates from 1 beyond 1e-6"
        )
    return raw / total


def pgf_at_time(k, m, plan, law, z, t, config=None):
    """E[z^{Z(t)}]."""
    if t == 0:
        return float(z) ** k
    return invert(
        lambda gamma: transient.pgf(k, m, plan, law, gamma)(z), t, config
    )


def workload_lst_at_time(k, m, plan, law, alpha, t, config=None):
    """E[e^{-alpha W(t)}]."""
    if t == 0:
        from . import service

        return service.lst(law, alpha) ** k
    return invert(
        lambda gamma: transient.workload_lst(k, m, plan, law, gamma, alpha),
        t,
        config,
    )
