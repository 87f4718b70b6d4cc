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
joint table.

For phase-type service (alpha, S) with exit vector s0, the residual of a
service that is in phase phi is PH(e_phi, S), so the sweep needs no alpha:
its deposit rows are the phase vectors x_i of the kernel recursion, and
joint[c, n', phi] is the expected time spent with c present, n' still to
arrive and the service in phase phi.  Then

    E[e^{-a W_j}] = empty[n'] + lambda_{n'} sum_c beta(a)^{c-1} joint[c, n', .] (aI - S)^{-1} s0

at every a.  One kernel build and one sweep per model, cached (_record),
give the emptiness probabilities, the means and the transform at any a.
A Deterministic residual has no finite phase set, so its transform sweeps
once per a with the residual kernel r(a) as the deposit.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels, service, transient
from .errors import DomainError
from .service import Deterministic, Pareto

__all__ = [
    "emptiness_probs",
    "waiting_lst",
    "waiting_mean",
    "tail_asymptote",
]


@dataclass(frozen=True)
class _Record:
    """Everything about the waiting times of one model, read-only: empty[n'],
    the mass on the empty state (0, n'); joint[c, n', phi] (None under
    Deterministic service); and means[j - 1] = E[W_j]."""

    empty: np.ndarray
    joint: np.ndarray
    means: np.ndarray


@lru_cache(maxsize=16)
def _record(k, m, plan, law):
    """The waiting-time record of one model from one gamma = 0 kernel build
    and one sweep.  The means are the closed form (j - 1) E[B] corrected by
    the interarrival gaps actually waited out, sum_{h <= j} (rho_h - 1) /
    lambda: a cumulative sum over the arrivals."""
    if isinstance(law, Deterministic):
        tables = kernels.build_tables(plan, law, 0.0)
        _, empty = transient.sweep(k, m, plan, 0.0, tables.u, tables.v)
        joint = None
    else:
        start, sub, exit_ = service.phase_type(law)
        cols = np.column_stack((exit_, np.eye(len(start))))
        u, *phases = kernels._phase_tables(plan, start, sub, 0.0, cols)
        joint, empty = transient.sweep(k, m, plan, 0.0, u, np.stack(phases, axis=-1))
    rhos = empty[m:0:-1]
    means = np.arange(k + m) * service.mean(law)
    means[k:] += np.cumsum((rhos - 1.0) / plan.lams[:0:-1])
    for array in (empty, joint, means):
        if array is not None:
            array.setflags(write=False)
    return _Record(empty, joint, means)


def emptiness_probs(k, m, plan, law):
    """P(customer h finds the system empty), for h = k+1 .. k+m.

    Equals the probability that nobody is present just after departure h-1,
    which is the mass the gamma = 0 sweep puts on the empty state (0, s)
    of diagonal s = k + m - (h - 1).  Read-only, from the model's record.
    """
    return _record(k, m, plan, law).empty[m:0:-1]


@lru_cache(maxsize=128)
def _waiting_lsts(alpha, k, m, plan, law):
    """E[e^{-alpha W_j}] for j = 1..k+m, read-only.

    residual[c, n'] (the record's joint times (alpha I - S)^{-1} s0, or
    under Deterministic service the sweep of the residual kernel r(alpha))
    is the transform of the residual service at the moment the count still
    to arrive is n' and c are present, integrated over time; the arrival at
    rate lambda_{n'} then waits that residual and c - 1 full services.
    Adding the mass on the empty state (0, n') gives the customer's LST.
    """
    record = _record(k, m, plan, law)
    if isinstance(law, Deterministic):
        u, deposit = kernels.kernel_rows(plan, law, 0.0, alpha)
        residual, _ = transient.sweep(k, m, plan, 0.0, u, deposit)
    else:
        residual = record.joint @ service.residual_lst(law, alpha)
    powers = service.lst(law, alpha) ** np.arange(k + m)
    arriving = record.empty + plan.lams * (powers @ residual[1:])
    lsts = np.concatenate((powers[:k], arriving[m:0:-1]))
    lsts.setflags(write=False)
    return lsts


def waiting_lst(j, alpha, k, m, plan, law, rhos=None):
    """E[e^{-alpha W_j}] for customer j in service order.

    Every customer's transform at one alpha is a projection of the model's
    cached record, itself cached per alpha; it supplies the zero-wait term
    itself, so rhos is ignored.
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
    """E[W_j]: (j-1) E[B] corrected by the interarrival gaps actually waited
    out, read from the model's cached record; rhos is ignored."""
    if not 1 <= j <= k + m:
        raise DomainError("customer index out of range")
    if j <= k:  # needs no transform, so Pareto service has it too
        return (j - 1) * service.mean(law)
    return _record(k, m, plan, law).means[j - 1]


def tail_asymptote(j, t, law):
    """Leading-order P(W_j > t) for large t under a regularly varying service law.

    A long wait for customer j is driven by one huge service among the j-1
    predecessors, giving (j-1) * P(B > t).  Asymptotic equivalent only.
    """
    if not isinstance(law, Pareto) or not 1.0 < law.index < 2.0:
        raise DomainError("tail asymptote requires a Pareto law with index in (1, 2)")
    return (j - 1) * service.tail(law, t)
