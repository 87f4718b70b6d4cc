"""Numerical Laplace inversion: time-domain quantities from the transforms.

The pipeline produces expectations at an independent Exp(gamma) deadline;
dividing by gamma turns each of them into the Laplace transform (in gamma)
of the corresponding function of deterministic time.  Two standard
Bromwich-contour discretizations recover the originals: Euler summation
(binomial averaging of a trapezoidal Fourier series) as the workhorse and
the fixed Talbot contour as an independent cross-check.  Each is a set of
contour nodes and weights, and the transform is evaluated at all nodes of
both at once: the kernel tables and the sweep take the nodes as an array
of killing rates, so a time point costs one table build and one sweep.
"""

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from . import service, transient
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


def _euler_nodes(t, nodes):
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
    return s, weights


def _talbot_nodes(t, nodes):
    # Fixed Talbot contour (cotangent parabola), r = 2M / (5t); its first
    # node is the real point r.
    M = nodes
    r = 2.0 * M / (5.0 * t)
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    s = np.concatenate(([r], r * theta * (cot + 1j)))
    sigma = theta + (theta * cot - 1.0) * cot
    weights = np.concatenate(([0.5], 1.0 + 1j * sigma)) * np.exp(t * s) * r / M
    return s, weights


_METHODS = {"euler": _euler_nodes, "talbot": _talbot_nodes}


def invert(fhat, t, config=None):
    """Recover f(t) from gamma |-> fhat(gamma) where fhat(gamma)/gamma = L f.

    fhat is the deadline-expectation form E[f at an Exp(gamma) time]; its
    division by gamma gives the plain Laplace transform inverted here.  Each
    method is a set of contour nodes s_j with weights w_j, and
    f(t) = Re sum_j w_j fhat(s_j) / s_j.  fhat is called once, with the
    1-D array of every node (Euler's and, when cross-checking, Talbot's),
    and returns an array with the nodes on its last axis, or a scalar that
    holds at every node.  The result has the shape of one node's value: an
    array, inverted componentwise, or else a float.  When cross-checking is
    on, one ConvergenceWarning is emitted unless every component of the two
    methods agrees within tolerance (a NaN never agrees).
    """
    if t <= 0:
        raise DomainError("inversion requires t > 0")
    config = config or InversionConfig()
    methods = [config.method]
    if config.cross_check:
        methods.append("talbot" if config.method == "euler" else "euler")
    contours = [_METHODS[name](t, config.nodes) for name in methods]
    s = np.concatenate([nodes for nodes, _ in contours])
    values = np.asarray(fhat(s))
    transform = np.broadcast_to(values, values.shape[:-1] + s.shape) / s
    estimates = []
    for nodes, weights in contours:
        estimates.append(np.real(transform[..., : len(nodes)] @ weights))
        transform = transform[..., len(nodes) :]
    primary = estimates[0]
    if config.cross_check:
        gap = np.abs(primary - estimates[1])
        if not np.all(gap <= config.cross_tolerance):
            warnings.warn(
                f"euler/talbot disagree at t={t}: largest gap {np.max(gap)}",
                ConvergenceWarning,
            )
    return primary if np.ndim(primary) else float(primary)


def _inverted_pmf(k, m, plan, law, t, config):
    """The PMF of Z(t), inverted coefficient by coefficient, not renormalized."""
    return invert(
        lambda gamma: np.moveaxis(transient.pmf(k, m, plan, law, gamma), -1, 0),
        t,
        config,
    )


def pmf_at_time(k, m, plan, law, t, config=None):
    """P(Z(t) = l) for l = 0..k+m, by inverting each PGF coefficient.

    One table build and one sweep evaluate the PMF at every contour node.
    t = 0 is answered analytically (all mass at k).  The inverted vector is
    renormalized when its total mass is within 1e-6 of one and rejected
    otherwise.
    """
    levels = k + m + 1
    if t == 0:
        out = np.zeros(levels)
        out[k] = 1.0
        return out

    raw = _inverted_pmf(k, m, plan, law, t, config)
    total = raw.sum()
    if abs(total - 1.0) > 1e-6:
        raise NormalizationError(
            f"inverted pmf mass {total} deviates from 1 beyond 1e-6"
        )
    return raw / total


def pgf_at_time(k, m, plan, law, z, t, config=None):
    """E[z^{Z(t)}] at real or complex z: the inverted PMF evaluated at z."""
    if t == 0:
        return z**k
    probs = _inverted_pmf(k, m, plan, law, t, config)
    value = np.polynomial.polynomial.polyval(z, probs)
    return complex(value) if np.iscomplexobj(value) else float(value)


def workload_lst_at_time(k, m, plan, law, alpha, t, config=None):
    """E[e^{-alpha W(t)}] at real alpha >= 0.

    The inversion keeps the real part of the transform only, which is the
    whole value at real alpha alone, so complex alpha raises DomainError.
    """
    if np.imag(alpha) != 0:
        raise DomainError("workload_lst_at_time requires a real alpha")
    if t == 0:
        return service.lst(law, alpha) ** k
    return invert(
        lambda gamma: transient.workload_lst(k, m, plan, law, gamma, alpha),
        t,
        config,
    )
