"""Waiting times under FIFO: transforms, means, and heavy-tail asymptotics.

Customers are numbered 1..k+m in service order: the k initially present
(waiting measured from time zero) followed by the m arrivals.  Customer
j = k + m - n' + 1 arrives when the count still to arrive drops from n'.
Either it finds the system empty, or it is the (i+1)-th arrival during a
service that started in state (l, n) with n - i = n', and then it finds
c = l + i present and waits for the residual of that service plus c - 1
full services.  Both cases are read off the forward diagonal sweep of the
embedded departure chain that gives the queue-length PGF
(transient.sweep), run at gamma = 0 so that no mass is lost to a
deadline: the mass on the empty state (0, n'), and the column n' of its
joint table, weighted by beta(alpha)^{c-1} on row c.
"""

from functools import lru_cache

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


def emptiness_probs(k, m, plan, law):
    """P(customer h finds the system empty), for h = k+1 .. k+m.

    Equals the probability that nobody is present just after departure h-1,
    which is the mass the gamma = 0 sweep puts on the empty state (0, s)
    of diagonal s = k + m - (h - 1).
    """
    if m == 0:
        return np.zeros(0)
    tables = kernels.build_tables(plan, law, 0.0)
    _, empty = transient.sweep(k, m, plan, 0.0, tables.u, tables.v)
    return empty[m:0:-1]


@lru_cache(maxsize=128)
def _waiting_lsts(alpha, k, m, plan, law):
    """E[e^{-alpha W_j}] for j = 1..k+m, read-only, from one gamma = 0 sweep.

    Swept with the residual-service kernel r(alpha), joint[c, n'] is the
    transform of the residual service at the moment the count still to
    arrive is n' and c are present, integrated over time; the arrival at
    rate lambda_{n'} then waits that residual and c - 1 full services.
    Adding the mass on the empty state (0, n') gives the customer's LST.
    """
    u, residual = kernels.kernel_rows(plan, law, 0.0, alpha, 1.0)
    joint, empty = transient.sweep(k, m, plan, 0.0, u, residual)
    powers = service.lst(law, alpha) ** np.arange(k + m)
    lams = np.concatenate(([0.0], kernels.plan_rates(plan)))
    arriving = empty + lams * (powers @ joint[1:])
    lsts = np.concatenate((powers[:k], arriving[m:0:-1]))
    lsts.setflags(write=False)
    return lsts


def waiting_lst(j, alpha, k, m, plan, law, rhos=None):
    """E[e^{-alpha W_j}] for customer j in service order.

    One gamma = 0 sweep per (alpha, k, m, plan, law), cached, gives every
    customer's transform and supplies the zero-wait term itself, so rhos
    (the emptiness_probs the callers pass) is not needed.
    """
    if not 1 <= j <= k + m:
        raise DomainError("customer index out of range")
    if not 0 <= alpha.real < np.inf:
        raise DomainError(f"alpha must have finite nonnegative real part, got {alpha}")
    value = _waiting_lsts(alpha, k, m, plan, law)[j - 1]
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
