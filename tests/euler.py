"""Euler inversion of Laplace transforms: the tests' oracle for the
time-domain answers.

The pipeline's expectations at an independent Exp(gamma) deadline, divided
by gamma, are Laplace transforms (in gamma) of the functions of
deterministic time.  The Euler method (Abate and Whitt, ORSA J. Computing
7, 1995) sums a trapezoidal Fourier series on a vertical Bromwich line and
accelerates it by binomial averaging.  Following Abate and Whitt's unified
framework, the method checks itself at a second precision setting: Euler
with ANSWER_NODES gives the answer, Euler with CHECK_NODES the check.  The
transform is evaluated at the nodes of both at once: the kernel tables and
the sweep take the nodes as an array of killing rates, so a time point
costs one table build and one sweep.  The functions of t jump at the
Deterministic departure epochs, where the series converges slowly, so the
oracle serves only where its check is quiet.
"""

import warnings
from math import comb

import numpy as np

from poolqueue.errors import ConvergenceWarning, DomainError
from poolqueue.inversion import InversionConfig

ANSWER_NODES = 32
CHECK_NODES = 40


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


def invert(fhat, t):
    """Recover f(t) from gamma |-> fhat(gamma) where fhat(gamma)/gamma = L f.

    fhat is the deadline-expectation form E[f at an Exp(gamma) time]; its
    division by gamma gives the plain Laplace transform inverted here.  A
    contour is a set of nodes s_j with weights w_j, and
    f(t) = Re sum_j w_j fhat(s_j) / s_j.  fhat is called once, with the
    1-D array of the nodes of both Euler contours, and returns an array
    with the nodes on its last axis, or a scalar that holds at every node.
    The result is the ANSWER_NODES estimate, with the shape of one node's
    value: an array, inverted componentwise, or else a float.  One
    ConvergenceWarning is emitted unless every component of it agrees with
    the CHECK_NODES estimate within tolerance (a NaN never agrees).
    """
    if not 0 < t < np.inf:
        raise DomainError(f"inversion requires 0 < t < inf, got t={t}")
    answer_nodes, answer_weights = _euler_nodes(t, ANSWER_NODES)
    check_nodes, check_weights = _euler_nodes(t, CHECK_NODES)
    s = np.concatenate((answer_nodes, check_nodes))
    values = np.asarray(fhat(s))
    transform = np.broadcast_to(values, values.shape[:-1] + s.shape) / s
    split = len(answer_nodes)
    estimate = np.real(transform[..., :split] @ answer_weights)
    gap = np.abs(estimate - np.real(transform[..., split:] @ check_weights))
    if not np.all(gap <= InversionConfig().cross_tolerance):
        warnings.warn(
            f"euler-{ANSWER_NODES} and euler-{CHECK_NODES} disagree at t={t}: "
            f"largest gap {np.max(gap)}",
            ConvergenceWarning,
        )
    return estimate if np.ndim(estimate) else float(estimate)
