"""Queue-length transform at an exponential deadline, as an exact polynomial.

The number of customers present at an independent Exp(gamma) time,
starting from k present and m yet to arrive, is read off the embedded
departure chain on states (customers present l, customers yet to arrive n).
Every service completion lowers l + n by one, so a single forward sweep of
probability mass down the diagonals s = l + n, from unit mass at (k, m),
deposits the mass killed by the deadline onto the coefficients of the
probability generating function.  Working with coefficient arrays instead
of pointwise values makes the PMF and the factorial moments exact
by-products and keeps normalization testable.

The same sweep, with the v-kernel replaced by its workload-extended version
and a per-row factor beta(alpha)^{l-1}, yields the joint transform
E[z^{Z} e^{-alpha W}] of queue length and remaining work at the deadline.
Run at gamma = 0, the mass it finds on each empty state gives the
probabilities that arriving customers find the system empty (waiting).
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import kernels, service

__all__ = [
    "PgfPolynomial",
    "JointTransformValue",
    "sweep",
    "pgf",
    "joint_transform",
    "workload_lst",
    "pmf",
    "factorial_moments",
]


@dataclass(frozen=True)
class PgfPolynomial:
    """Coefficient view of E[z^{Z(T)}]: coeffs[l] = P(Z(T) = l)."""

    coeffs: np.ndarray

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)


@dataclass(frozen=True)
class JointTransformValue:
    """z-polynomial coefficients of E[z^{Z(T)} e^{-alpha W(T)}] at fixed alpha."""

    alpha: complex
    coeffs: np.ndarray

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)


def sweep(k, m, tables, v_rows, row_factors, dtype):
    """Push unit mass from (k, m) down the diagonals s = l + n of the chain.

    Every service completion lowers l + n by one, so the mass on diagonal s
    is a vector over n (with l = s - n) and one step maps it to diagonal
    s - 1 through U[n, n-i] = u_{ni}.  Mass killed during a service from
    (l, n) lands on coefficient l + i = s - (n - i) with weight
    row_factors[l] * v_rows[n][i].  The empty state (0, s) is resolved
    within its diagonal first: killed onto coefficient 0 with probability
    gamma / (gamma + lambda_s), otherwise moved to (1, s - 1).

    Returns (coeffs, empty): the k + m + 1 deposited coefficients, and
    empty[s], the mass on (0, s) just before it is resolved, for s = 0..m.
    At gamma = 0 nothing is killed, so empty[s] is the probability that
    the system is empty just after departure k + m - s.
    """
    gamma = tables.gamma
    size = m + 1
    step = np.zeros((size, size), dtype=dtype)
    deposit = np.zeros((size, size), dtype=dtype)
    for n in range(size):
        step[n, : n + 1] = tables.u[n][::-1]
        deposit[n, : n + 1] = v_rows[n][::-1]
    coeffs = np.zeros(k + m + 1, dtype=dtype)
    empty = np.zeros(size, dtype=dtype)
    mass = np.zeros(size, dtype=dtype)
    mass[m] = 1.0
    for s in range(k + m, 0, -1):
        if s <= m:
            empty[s] = mass[s]
            lam_s = kernels.rate(tables.plan, s)
            coeffs[0] += gamma / (gamma + lam_s) * mass[s]
            mass[s - 1] += lam_s / (gamma + lam_s) * mass[s]
        # States with l >= 1 on this diagonal: n = 0..top, l = s..s-top.
        top = min(s - 1, m)
        busy = mass[: top + 1]
        scaled = busy * row_factors[s - top : s + 1][::-1]
        killed = scaled @ deposit[: top + 1, : top + 1]
        coeffs[s - top : s + 1] += killed[::-1]
        mass = np.zeros(size, dtype=dtype)
        mass[: top + 1] = busy @ step[: top + 1, : top + 1]
    # (0, 0): nobody present and nobody left to arrive.
    empty[0] = mass[0]
    coeffs[0] += mass[0]
    return coeffs, empty


def pgf(k, m, plan, law, gamma, tables=None):
    """PGF of the customer count at an independent Exp(gamma) deadline.

    Returns the polynomial whose coefficients are P(Z(T) = l) starting from
    k customers present and m yet to arrive.  gamma may be complex, in
    which case the coefficients are complex-valued transform evaluations.
    """
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")
    if tables is None:
        tables = kernels.build_tables(plan, law, gamma)
    dtype = complex if np.iscomplexobj(gamma) else float
    row_factors = np.ones(k + m + 1, dtype=dtype)
    coeffs, _ = sweep(k, m, tables, tables.v, row_factors, dtype)
    return PgfPolynomial(coeffs=coeffs)


def joint_transform(k, m, plan, law, gamma, alpha, tables=None):
    """Joint transform of customer count and workload at the deadline.

    Computed by the same sweep with the weight at column l+i replaced by
    beta(alpha)^{l+i-1} v_{ni}(alpha); at alpha = 0 it reduces to pgf().
    """
    if alpha.real < 0:
        raise ValueError("alpha must have nonnegative real part")
    if tables is None:
        tables = kernels.build_tables(plan, law, gamma)
    beta_a = service.lst(law, alpha)
    v_rows = [
        beta_a ** np.arange(n + 1) * row
        for n, row in enumerate(tables.v_alpha(alpha))
    ]
    # beta(alpha)^{l-1} per row; the l = 0 row never uses its factor.
    row_factors = np.empty(k + m + 1, dtype=complex)
    row_factors[0] = 1.0
    row_factors[1:] = beta_a ** np.arange(0, k + m)
    coeffs, _ = sweep(k, m, tables, v_rows, row_factors, complex)
    return JointTransformValue(alpha=alpha, coeffs=coeffs)


def workload_lst(k, m, plan, law, gamma, alpha, tables=None):
    """E[e^{-alpha W(T)}]: the joint transform summed at z = 1."""
    value = joint_transform(k, m, plan, law, gamma, alpha, tables=tables).coeffs.sum()
    return value


def pmf(k, m, plan, law, gamma, tables=None):
    """P(Z(T) = l) for l = 0..k+m (the PGF's coefficient array)."""
    return pgf(k, m, plan, law, gamma, tables=tables).coeffs


def factorial_moments(k, m, plan, law, gamma, max_order, tables=None):
    """E[Z(Z-1)...(Z-l+1)] at the deadline, for l = 0..max_order.

    Index l of the result is the l-th falling-factorial moment; the empty
    product at l = 0 gives 1.
    """
    probs = pmf(k, m, plan, law, gamma, tables=tables)
    out = np.zeros(max_order + 1, dtype=probs.dtype)
    out[0] = probs.sum()
    for order in range(1, max_order + 1):
        ff = np.array(
            [
                factorial(j) / factorial(j - order) if j >= order else 0.0
                for j in range(len(probs))
            ]
        )
        out[order] = probs @ ff
    return out
