"""Queue-length transform at an exponential deadline, as an exact polynomial.

The number of customers present at an independent Exp(gamma) time,
starting from k present and m yet to arrive, is read off the embedded
departure chain on states (customers present l, customers yet to arrive n).
Every service completion lowers l + n by one, so a single forward sweep of
probability mass down the diagonals s = l + n, from unit mass at (k, m),
deposits the mass killed by the deadline onto a table over both
coordinates: the law of (Z(T), N(T)), the customers present and the
customers still to arrive at the deadline.  Every transform is a
projection of it; its row sums are the coefficients of the probability
generating function.  Working with coefficient arrays instead of pointwise
values makes the PMF and the factorial moments exact by-products and keeps
normalization testable.

A kill that leaves c >= 1 present leaves the residual service plus c - 1
full services, so with the v-kernel replaced by its workload-extended
version the row sums weighted by beta(alpha)^{c-1} give the joint
transform E[z^{Z} e^{-alpha W}] of queue length and remaining work.  Run
at gamma = 0, with the service phase on a last axis of the deposit, the
same weights and the arrival rate lambda_{n'} give every arriving
customer's waiting-time transform at every alpha (waiting).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, service
from .errors import check_counts

__all__ = [
    "PgfPolynomial",
    "sweep",
    "pgf",
    "joint_transform",
    "workload_lst",
    "pmf",
    "factorial_moments",
]


@dataclass(frozen=True)
class PgfPolynomial:
    """A deadline transform as a polynomial in z: coeffs[l] = P(Z(T) = l)
    (pgf), or E[e^{-alpha W(T)}; Z(T) = l] at one alpha (joint_transform)."""

    coeffs: np.ndarray

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)


def sweep(k, m, plan, gamma, u, v):
    """Push unit mass from (k, m) down the diagonals s = l + n of the chain.

    Every service completion lowers l + n by one, so the mass on diagonal s
    is a vector over n (with l = s - n) and one step maps it to diagonal
    s - 1 through the kernel matrix u[n, n'], n' = n - i after i arrivals.
    Mass killed during a service from (l, n) leaves c = l + i present and
    n' still to arrive, with weight v[n, n'].  The empty state (0, s) is
    resolved within its diagonal first: killed onto (0, s) with probability
    gamma / (gamma + lambda_s), otherwise moved to (1, s - 1).

    gamma is one killing rate and u and v are the (m + 1, m + 1) matrices
    of kernels.kernel_rows at it.  Returns (joint, empty), with the dtype
    of gamma and the kernels: joint[c, n'], the killed mass that leaves c
    present and n' still to arrive, the (0, s) kills and the final (0, 0)
    mass on row c = 0; and empty[s], the mass on (0, s) just before it is
    resolved, for s = 0..m.  At a real deadline joint is the law of
    (Z(T), N(T)).  At gamma = 0 nothing is killed, so empty[s] is the
    probability that the system is empty just after departure k + m - s.

    v may carry a trailing phase axis, v[n, n', phi], such as the phase
    vectors x_i of the kernel recursion; joint[c, n', phi] then carries it
    too, in the same pass.  Its row c = 0, where nobody is in service, is
    left zero.  A negative k or m, or a plan not m rates long, raises DomainError.
    """
    check_counts(k, m, plan)
    size = m + 1
    phases = np.shape(v)[2:]
    width = int(np.prod(phases))
    dtype = np.result_type(gamma, u, v)
    step = u.astype(dtype, copy=False)
    deposit = v.astype(dtype, copy=False).reshape(size, size * width)
    # joint is kept flat, its entry (c, n') at c * size + n', with the
    # phases (if any) on a last axis.
    joint = np.zeros(((k + m + 1) * size, width), dtype=dtype)
    empty = np.zeros(size, dtype=dtype)
    mass = np.zeros(size, dtype=dtype)
    mass[m] = 1.0
    lams = plan.lams[1:]
    kill = gamma / (gamma + lams)
    stay = lams / (gamma + lams)
    for s in range(k + m, 0, -1):
        if s <= m:
            empty[s] = mass[s]
            mass[s - 1] += stay[s - 1] * mass[s]
        # States with l >= 1 on this diagonal: n = 0..top, l = s..s-top.
        top = min(s - 1, m)
        busy = mass[: top + 1]
        killed = busy @ deposit[: top + 1, : (top + 1) * width]
        # (s - n', n') sits at flat index s * size - n' * m: n' = top..0 is
        # one stride-m slice, which no other diagonal writes.
        flat = s * size
        joint[flat - top * m : flat + 1 : max(m, 1)] = killed.reshape(top + 1, width)[::-1]
        mass = np.zeros(size, dtype=dtype)
        mass[: top + 1] = busy @ step[: top + 1, : top + 1]
    joint = joint.reshape((k + m + 1, size) + phases)
    empty[0] = mass[0]
    if not phases:
        # The kills at (0, s), and (0, 0): nobody present and nobody left to arrive.
        joint[0, 1:] = kill * empty[1:]
        joint[0, 0] = mass[0]
    return joint, empty


def pgf(k, m, plan, law, gamma):
    """PGF of the customer count at an independent Exp(gamma) deadline.

    Returns the polynomial whose coefficients are P(Z(T) = l) starting from
    k customers present and m yet to arrive.  gamma is one killing rate,
    checked by kernels.kernel_rows; it may be complex, in which case the
    coefficients are complex-valued transform evaluations.
    """
    tables = kernels.build_tables(plan, law, gamma)
    joint, _ = sweep(k, m, plan, gamma, tables.u, tables.v)
    return PgfPolynomial(coeffs=joint.sum(-1))


def joint_transform(k, m, plan, law, gamma, alpha):
    """E[z^{Z(T)} e^{-alpha W(T)}] at the deadline, as a polynomial in z.

    One kernel build at alpha and one sweep: the row sums of the joint
    table for c >= 1 present carry beta(alpha)^{c-1} for the services
    still queued behind the residual one.  At alpha = 0 it reduces to
    pgf().  The coefficients are real at real gamma and alpha, which
    kernels.kernel_rows checks.
    """
    u, r = kernels.kernel_rows(plan, law, gamma, alpha)
    joint, _ = sweep(k, m, plan, gamma, u, gamma * r)
    coeffs = joint.sum(-1)
    coeffs[1:] *= service.lst(law, alpha) ** np.arange(k + m)
    return PgfPolynomial(coeffs=coeffs)


def workload_lst(k, m, plan, law, gamma, alpha):
    """E[e^{-alpha W(T)}]: the joint transform at z = 1."""
    return joint_transform(k, m, plan, law, gamma, alpha).coeffs.sum()


def pmf(k, m, plan, law, gamma):
    """P(Z(T) = l) for l = 0..k+m (the PGF's coefficients)."""
    return pgf(k, m, plan, law, gamma).coeffs


def factorial_moments(k, m, plan, law, gamma, max_order):
    """E[Z(Z-1)...(Z-l+1)] at the deadline, for l = 0..max_order.

    Index l is the l-th falling-factorial moment; the empty product at
    l = 0 gives 1.
    """
    probs = pmf(k, m, plan, law, gamma)
    # falling[j, l] = j (j - 1) ... (j - l + 1), zero for j < l
    falling = np.ones((len(probs), max_order + 1))
    falling[:, 1:] = np.cumprod(
        np.subtract.outer(np.arange(len(probs)), np.arange(max_order, dtype=float)),
        axis=1,
    )
    return probs @ falling
