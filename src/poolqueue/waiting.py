"""Waiting times under FIFO: transforms, means, and heavy-tail asymptotics.

Customers are numbered 1..k+m in service order: the k initially present
(waiting measured from time zero) followed by the m arrivals.  The waiting
time of an arriving customer satisfies a Lindley recursion against the
memoryless interarrival times, which telescopes into a closed-form
transform involving only the probabilities that each arriving customer
finds the system empty.  Those emptiness probabilities are read off the
same forward diagonal sweep of the embedded departure chain that gives the
queue-length PGF (transient.sweep), run at gamma = 0 so that no mass is
killed.
"""

import numpy as np

from . import kernels, service, transient
from .errors import DomainError
from .service import Pareto

__all__ = [
    "emptiness_probs",
    "waiting_lst",
    "waiting_mean",
    "tail_asymptote",
]

_POLE_REL_TOL = 1e-6
_POLE_CIRCLE = 1e-4


def emptiness_probs(k, m, plan, law):
    """P(customer h finds the system empty), for h = k+1 .. k+m.

    Equals the probability that nobody is present just after departure h-1,
    which is the mass the gamma = 0 sweep puts on the empty state (0, s)
    of diagonal s = k + m - (h - 1).
    """
    if m == 0:
        return np.zeros(0)
    tables = kernels.build_tables(plan, law, 0.0)
    _, empty = transient.sweep(k, m, tables, tables.v, np.ones(k + m + 1), float)
    return empty[m:0:-1]


def _eqw3(j, alpha, k, m, lams, law, rhos):
    beta = service.lst(law, alpha)
    total = beta ** (j - 1)
    for i in range(j - k):
        lam = lams[m - i - 1]
        total *= lam / (lam - alpha)
    for h in range(k + 1, j + 1):
        lam_h = lams[m - h + k]  # lambda_{m-h+k+1}
        term = rhos[h - k - 1] * beta ** (j - h) * alpha / (lam_h - alpha)
        for w_idx in range(j - h):
            lam = lams[m + k - h - w_idx - 1]
            term *= lam / (lam - alpha)
        total -= term
    return total


def waiting_lst(j, alpha, k, m, plan, law, rhos=None):
    """E[e^{-alpha W_j}] for customer j in service order.

    The expression for arriving customers has removable singularities at
    the plan rates; real alpha within relative distance 1e-6 of a rate is
    evaluated as the average over four nearby complex points instead.
    """
    if not 1 <= j <= k + m:
        raise DomainError("customer index out of range")
    if alpha.real < 0:
        raise DomainError("alpha must have nonnegative real part")
    if j <= k:
        return service.lst(law, alpha) ** (j - 1)
    if rhos is None:
        rhos = emptiness_probs(k, m, plan, law)
    lams = kernels.plan_rates(plan)
    used = lams[m - (j - k) : m]
    near_pole = (
        np.imag(alpha) == 0
        and alpha != 0
        and np.min(np.abs(used - alpha.real) / used) < _POLE_REL_TOL
    )
    if not near_pole:
        value = _eqw3(j, alpha, k, m, lams, law, rhos)
    else:
        radius = _POLE_CIRCLE * abs(alpha)
        angles = np.pi / 4 + np.pi / 2 * np.arange(4)
        value = np.mean(
            [
                _eqw3(j, alpha + radius * np.exp(1j * a), k, m, lams, law, rhos)
                for a in angles
            ]
        )
    if np.imag(alpha) == 0:
        return float(np.real(value))
    return value


def waiting_mean(j, k, m, plan, law, rhos=None):
    """E[W_j]: (j-1) E[B] corrected by the interarrival gaps actually waited out."""
    if not 1 <= j <= k + m:
        raise DomainError("customer index out of range")
    mb = service.mean(law)
    if j <= k:
        return (j - 1) * mb
    if rhos is None:
        rhos = emptiness_probs(k, m, plan, law)
    lams = kernels.plan_rates(plan)
    total = (j - 1) * mb
    for i in range(j - k):
        total -= 1.0 / lams[m - i - 1]
    for h in range(k + 1, j + 1):
        total += rhos[h - k - 1] / lams[m - h + k]
    return total


def tail_asymptote(j, t, law):
    """Leading-order P(W_j > t) for large t under a regularly varying service law.

    A long wait for customer j is driven by one huge service among the j-1
    predecessors, giving (j-1) * P(B > t).  Asymptotic equivalent only.
    """
    if not isinstance(law, Pareto) or not 1.0 < law.index < 2.0:
        raise DomainError("tail asymptote requires a Pareto law with index in (1, 2)")
    return (j - 1) * service.tail(law, t)
