"""Arrival-count kernels for the finite customer pool.

Three triangular probability tables drive everything downstream, indexed by
(n, i) with 0 <= i <= n <= m, n being the number of customers still to
arrive at the start of a service:

* ``u[n][i]`` -- i arrivals during one service time, jointly with the
  independent Exp(gamma) deadline outlasting the service;
* ``v[n][i]`` -- i arrivals before the deadline, jointly with the deadline
  falling inside the service;
* ``w[n][i]`` -- i arrivals during one service time, unconditionally:
  u at gamma = 0, derived on first access rather than built alongside.

u and v reduce to closed-form functionals of the service-time transform
once the arrival-count probability h_{ni}(t) is written as a finite sum of
c * t^p/p! * e^{-r t} terms (ExpPolyMixture).
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, factorial, perm

import numpy as np
from scipy.special import gammaln

from . import service
from .errors import ConditioningError, RateCollision, UnsupportedTransform
from .service import Deterministic

__all__ = [
    "Constant",
    "Proportional",
    "General",
    "RatePlan",
    "plan_rates",
    "pool_size",
    "ExpPolyMixture",
    "arrival_count_mixture",
    "KernelTables",
    "build_tables",
]

_COEF_LIMIT = 1e12


@dataclass(frozen=True)
class Constant:
    """lambda_i = lam for every i: Poisson arrivals stopped after m."""

    lam: float
    m: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("rate must be positive")
        if self.m < 0:
            raise ValueError("pool size must be nonnegative")


@dataclass(frozen=True)
class Proportional:
    """lambda_i = i * lam: i.i.d. Exp(lam) arrival times (order statistics)."""

    lam: float
    m: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("rate must be positive")
        if self.m < 0:
            raise ValueError("pool size must be nonnegative")


@dataclass(frozen=True)
class General:
    """Explicit rate vector (lambda_1, ..., lambda_m), pairwise distinct."""

    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if any(r <= 0 for r in self.rates):
            raise ValueError("all rates must be positive")
        rs = self.rates
        for a in range(len(rs)):
            for b in range(a + 1, len(rs)):
                if abs(rs[a] - rs[b]) < 1e-8 * max(rs[a], rs[b]):
                    raise RateCollision(
                        "general-plan rates must be pairwise distinct "
                        "(relative gap >= 1e-8); use Constant for equal rates"
                    )

    @property
    def m(self):
        return len(self.rates)


RatePlan = Constant | Proportional | General


def pool_size(plan):
    return plan.m


def plan_rates(plan):
    """The vector (lambda_1, ..., lambda_m)."""
    if isinstance(plan, Constant):
        return np.full(plan.m, plan.lam)
    if isinstance(plan, Proportional):
        return plan.lam * np.arange(1, plan.m + 1)
    return np.asarray(plan.rates)


def rate(plan, n):
    """lambda_n, the rate of the next interarrival when n remain."""
    if n < 1 or n > pool_size(plan):
        raise IndexError("rate index out of range")
    if isinstance(plan, Constant):
        return plan.lam
    if isinstance(plan, Proportional):
        return n * plan.lam
    return plan.rates[n - 1]


def _term_peak(c, p, r):
    # Magnitude proxy: sup over t of |c| t^p/p! e^{-rt}, attained at t = p/r.
    # Scale-invariant, unlike |c| itself, which grows like lam^p for the
    # Constant plan without any actual cancellation.
    if p == 0:
        return abs(c)
    if r <= 0:
        return np.inf
    return abs(c) * float(np.exp(p * np.log(p / r) - p - gammaln(p + 1)))


@dataclass(frozen=True)
class ExpPolyMixture:
    """Finite sum  h(t) = sum c * t^p/p! * e^{-r t}  with p integer, r >= 0.

    The factorial-normalized monomials keep coefficients and derivative
    values in normal floating-point range even for powers in the hundreds.
    Terms sharing (p, r) are merged and zero coefficients dropped at
    construction, so rate-zero artifacts cancel exactly.
    """

    terms: tuple = field(default=())

    def __post_init__(self):
        merged = {}
        for c, p, r in self.terms:
            key = (int(p), float(r))
            merged[key] = merged.get(key, 0.0) + float(c)
        kept = tuple(
            (c, p, r) for (p, r), c in sorted(merged.items()) if c != 0.0
        )
        if kept and max(_term_peak(c, p, r) for c, p, r in kept) > _COEF_LIMIT:
            raise ConditioningError(
                "mixture coefficients exceed 1e12; reduce the pool size or "
                "use a Constant/Proportional plan"
            )
        object.__setattr__(self, "terms", kept)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c, p, r in self.terms:
            if p == 0:
                out = out + c * np.exp(-r * t)
            else:
                safe = np.where(t > 0, t, 1.0)
                term = np.exp(p * np.log(safe) - gammaln(p + 1) - r * t)
                out = out + c * np.where(t > 0, term, 0.0)
        return out if out.ndim else float(out)


def _hypoexp_cdf_terms(rates):
    """CDF of a sum of independent exponentials with distinct rates.

    Returns mixture terms for P(sum <= t) = 1 - sum_j A_j e^{-r_j t}.
    """
    if not rates:
        return [(1.0, 0, 0.0)]
    terms = [(1.0, 0, 0.0)]
    for j, rj in enumerate(rates):
        prod = 1.0
        for l, rl in enumerate(rates):
            if l != j:
                prod *= rl / (rl - rj)
        terms.append((-prod, 0, rj))
    return terms


def arrival_count_mixture(plan, n, i):
    """h_{ni}: probability of exactly i arrivals by time t when n remain."""
    m = pool_size(plan)
    if not (0 <= i <= n <= m):
        raise IndexError("need 0 <= i <= n <= pool size")
    if n == 0:
        return ExpPolyMixture(((1.0, 0, 0.0),))
    if isinstance(plan, Constant):
        lam = plan.lam
        if i < n:
            return ExpPolyMixture(((lam**i, i, lam),))
        # P(S_n <= t) = P(Poisson(lam t) >= n)
        terms = [(1.0, 0, 0.0)]
        terms += [(-(lam**j), j, lam) for j in range(n)]
        return ExpPolyMixture(tuple(terms))
    if isinstance(plan, Proportional):
        # Arrived count is Binomial(n, 1 - e^{-lam t}).
        lam = plan.lam
        terms = [
            (comb(n, i) * comb(i, j) * (-1) ** j, 0, (n - i + j) * lam)
            for j in range(i + 1)
        ]
        return ExpPolyMixture(tuple(terms))
    rates = plan.rates
    # Time to the first i arrivals is hypoexponential with rates
    # lambda_n, ..., lambda_{n-i+1}.
    first = list(rates[n - i : n][::-1])
    terms = _hypoexp_cdf_terms(first)
    if i < n:
        longer = list(rates[n - i - 1 : n][::-1])
        terms += [(-c, p, r) for c, p, r in _hypoexp_cdf_terms(longer)]
    return ExpPolyMixture(tuple(terms))


def _truncated_poly_exp_integral(p, a, d):
    """integral_0^d (t^p / p!) e^{-a t} dt for integer p >= 0, complex a."""
    if abs(a) * d < 0.5:
        # Series in a avoids cancellation for small exponents.
        total = 0.0
        # d^{p+1}/p!, kept in range through the exp/lgamma form.
        base = float(np.exp((p + 1) * np.log(d) - gammaln(p + 1)))
        term_pow = base
        for j in range(40):
            contrib = (-a) ** j * term_pow / (factorial(j) * (p + j + 1))
            total = total + contrib
            term_pow *= d
            if abs(contrib) < 1e-18 * max(1.0, abs(total)):
                break
        return total
    x = a * d
    # e^{-x} sum_{j<=p} x^j/j!, each term built in log form to dodge overflow.
    logx = np.log(x + 0.0j)
    partial = sum(np.exp(j * logx - gammaln(j + 1) - x) for j in range(p + 1))
    return (1.0 - partial) / a ** (p + 1)


@dataclass(frozen=True)
class KernelTables:
    """Triangular kernel tables at a fixed killing rate.

    ``u`` and ``v`` are lists of arrays; row n has entries i = 0..n.
    The i = n entry of every row is set by complement so the row-sum
    identities (beta(gamma), 1 - beta(gamma)) hold exactly.  ``w`` is
    ``u`` at gamma = 0, in the same layout with row sums 1; it is derived
    on first access, by building the gamma = 0 tables when gamma != 0.
    """

    plan: object
    law: object
    gamma: complex
    u: list
    v: list

    @cached_property
    def w(self):
        if self.gamma == 0:
            return self.u
        return build_tables(self.plan, self.law, 0.0).u

    def v_alpha(self, n, i, alpha):
        """Workload-extended kernel E[e^{-alpha(B-T)} ; i arrivals by T, T <= B]."""
        if self.gamma == 0:
            return 0.0 if alpha == 0 else 0.0 + 0.0j
        gamma = self.gamma
        h = arrival_count_mixture(self.plan, n, i)
        if isinstance(self.law, Deterministic):
            d = self.law.value
            total = 0.0
            for c, p, r in h.terms:
                total = total + c * _truncated_poly_exp_integral(p, gamma - alpha + r, d)
            return gamma * np.exp(-alpha * d) * total
        total = 0.0
        for c, p, r in h.terms:
            for a_c, a_p, a_r in service.killed_survival_terms(self.law, alpha):
                s = gamma - alpha + r + a_r
                pw = p + a_p
                # integral of (t^p/p!) t^{a_p} e^{-st} is (pw!/p!) / s^{pw+1}
                total = total + c * a_c * perm(pw, a_p) / s ** (pw + 1)
        return gamma * total


def _mixture_u(law, mix, gamma):
    total = 0.0
    for c, p, r in mix.terms:
        total = total + c * (-1) ** p * service.lst_derivative_scaled(
            law, p, gamma + r
        )
    return total


def _mixture_v(law, mix, gamma):
    total = 0.0
    for c, p, r in mix.terms:
        total = total + c * (-1) ** p * service.survival_transform_derivative_scaled(
            law, p, gamma + r
        )
    return gamma * total


def build_tables(plan, law, gamma):
    """Build the u and v kernel tables for a plan/law/killing-rate triple.

    gamma may be complex (inversion contours evaluate the whole pipeline at
    complex killing rates); the [0,1] range only applies when it is real.
    At gamma = 0 the deadline is infinite: v vanishes and u is w.
    """
    if not service.is_transform_capable(law):
        raise UnsupportedTransform("kernel tables need a transform-capable law")
    m = pool_size(plan)
    dtype = complex if np.iscomplexobj(gamma) else float
    beta0 = service.lst(law, gamma)
    u, v = [], []
    for n in range(m + 1):
        row_u = np.zeros(n + 1, dtype=dtype)
        row_v = np.zeros(n + 1, dtype=dtype)
        for i in range(n):
            mix = arrival_count_mixture(plan, n, i)
            row_u[i] = _mixture_u(law, mix, gamma)
            if gamma != 0:
                row_v[i] = _mixture_v(law, mix, gamma)
        row_u[n] = beta0 - row_u[:n].sum()
        if gamma != 0:
            row_v[n] = (1.0 - beta0) - row_v[:n].sum()
        u.append(row_u)
        v.append(row_v)
    return KernelTables(plan=plan, law=law, gamma=gamma, u=u, v=v)
