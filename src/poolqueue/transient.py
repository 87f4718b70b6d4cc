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
Run at gamma = 0 with deposits that carry the residual service, it gives
every arriving customer's waiting-time transform: the mass on the empty
states plus the mass deposited per count still to arrive (waiting).
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


def _polyval(z, coeffs):
    """The polynomial with coefficients on the last axis of coeffs, at z."""
    return np.polynomial.polynomial.polyval(z, np.moveaxis(coeffs, -1, 0))


@dataclass(frozen=True)
class PgfPolynomial:
    """Coefficient view of E[z^{Z(T)}]: coeffs[..., l] = P(Z(T) = l)."""

    coeffs: np.ndarray

    @property
    def degree(self):
        return self.coeffs.shape[-1] - 1

    def __call__(self, z):
        return _polyval(z, self.coeffs)


@dataclass(frozen=True)
class JointTransformValue:
    """z-polynomial coefficients of E[z^{Z(T)} e^{-alpha W(T)}] at fixed alpha."""

    alpha: complex
    coeffs: np.ndarray

    def __call__(self, z):
        return _polyval(z, self.coeffs)


def sweep(k, m, plan, gamma, u_rows, v_rows, row_factors, dtype):
    """Push unit mass from (k, m) down the diagonals s = l + n of the chain.

    Every service completion lowers l + n by one, so the mass on diagonal s
    is a vector over n (with l = s - n) and one step maps it to diagonal
    s - 1 through U[n, n-i] = u_rows[n][..., i].  Mass killed during a
    service from (l, n) lands on coefficient l + i = s - (n - i) with weight
    row_factors[l] * v_rows[n][..., i].  The empty state (0, s) is resolved
    within its diagonal first: killed onto coefficient 0 with probability
    gamma / (gamma + lambda_s), otherwise moved to (1, s - 1).

    gamma is a scalar or a 1-D array of killing rates, and the rows carry
    the same leading shape (see kernels.kernel_rows); every node is swept at
    once through dense step and deposit arrays of shape
    gamma.shape + (m + 1, m + 1).  Returns (coeffs, empty, outstanding),
    each with that leading shape: the k + m + 1 deposited coefficients;
    empty[..., s], the mass on (0, s) just before it is resolved, for
    s = 0..m; and outstanding[..., n'], the killed mass grouped by the count
    n' = n - i still to arrive, the empty-state kills and the final (0, 0)
    mass included.  At gamma = 0 nothing is killed, so empty[s] is the
    probability that the system is empty just after departure k + m - s.
    At a real deadline outstanding is the law of the count still to arrive.
    """
    size = m + 1
    batch = np.shape(gamma)
    step = np.zeros(batch + (size, size), dtype=dtype)
    deposit = np.zeros(batch + (size, size), dtype=dtype)
    for n in range(size):
        step[..., n, : n + 1] = u_rows[n][..., ::-1]
        deposit[..., n, : n + 1] = v_rows[n][..., ::-1]
    # Each node's vectors are 1-row matrices, so that one matmul steps them all.
    coeffs = np.zeros(batch + (1, k + m + 1), dtype=dtype)
    empty = np.zeros(batch + (1, size), dtype=dtype)
    outstanding = np.zeros(batch + (1, size), dtype=dtype)
    mass = np.zeros(batch + (1, size), dtype=dtype)
    mass[..., m] = 1.0
    gammas = np.reshape(gamma, batch + (1, 1))
    lams = kernels.plan_rates(plan)
    kill = gammas / (gammas + lams)
    stay = lams / (gammas + lams)
    for s in range(k + m, 0, -1):
        if s <= m:
            held = mass[..., s]
            empty[..., s] = held
            coeffs[..., 0] += kill[..., s - 1] * held
            mass[..., s - 1] += stay[..., s - 1] * held
        # States with l >= 1 on this diagonal: n = 0..top, l = s..s-top.
        top = min(s - 1, m)
        busy = mass[..., : top + 1]
        scaled = busy * row_factors[s - top : s + 1][::-1]
        killed = scaled @ deposit[..., : top + 1, : top + 1]
        coeffs[..., s - top : s + 1] += killed[..., ::-1]
        outstanding[..., : top + 1] += killed
        mass = np.zeros(batch + (1, size), dtype=dtype)
        mass[..., : top + 1] = busy @ step[..., : top + 1, : top + 1]
    # The kill at (0, s) is the last mass to reach outstanding[s].
    outstanding[..., 1:] += kill * empty[..., 1:]
    # (0, 0): nobody present and nobody left to arrive.
    empty[..., 0] = mass[..., 0]
    coeffs[..., 0] += mass[..., 0]
    outstanding[..., 0] += mass[..., 0]
    return coeffs[..., 0, :], empty[..., 0, :], outstanding[..., 0, :]


def pgf(k, m, plan, law, gamma, tables=None):
    """PGF of the customer count at an independent Exp(gamma) deadline.

    Returns the polynomial whose coefficients are P(Z(T) = l) starting from
    k customers present and m yet to arrive.  gamma may be complex, in
    which case the coefficients are complex-valued transform evaluations,
    and may be a 1-D array of killing rates, in which case coeffs has one
    row per rate.
    """
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")
    if tables is None:
        tables = kernels.build_tables(plan, law, gamma)
    dtype = complex if np.iscomplexobj(gamma) else float
    row_factors = np.ones(k + m + 1, dtype=dtype)
    coeffs, _, _ = sweep(k, m, plan, gamma, tables.u, tables.v, row_factors, dtype)
    return PgfPolynomial(coeffs=coeffs)


def joint_transform(k, m, plan, law, gamma, alpha, tables=None):
    """Joint transform of customer count and workload at the deadline.

    Computed by the same sweep with the weight at column l+i replaced by
    beta(alpha)^{l+i-1} v_{ni}(alpha); at alpha = 0 it reduces to pgf().
    gamma may be an array of killing rates, as in pgf(); alpha is a scalar.
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
    coeffs, _, _ = sweep(k, m, plan, gamma, tables.u, v_rows, row_factors, complex)
    return JointTransformValue(alpha=alpha, coeffs=coeffs)


def workload_lst(k, m, plan, law, gamma, alpha, tables=None):
    """E[e^{-alpha W(T)}], one value per gamma: the joint transform at z = 1."""
    return joint_transform(k, m, plan, law, gamma, alpha, tables=tables).coeffs.sum(-1)


def pmf(k, m, plan, law, gamma, tables=None):
    """P(Z(T) = l) for l = 0..k+m on the last axis (the PGF's coefficients)."""
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
