"""Workload definitions: inputs drawn from the seed, queries, checks, probes.

Every workload is a closed loop: one caller sends its queries one after
another and checks each answer after it has been timed.  The seed draws
only the rates; the problem shapes (k, m, laws, time grid) are fixed, so
the amount of work does not depend on the seed.  NOTES.md says why each
workload exists and which layer it leaves alone.

A query's check returns two lists of problems:

* ``signalled`` -- the package itself reported the failure (for example a
  non-zero exit code of ``cli.run``);
* ``wrong`` -- an answer that fails a check without any signal from the
  package.  Raised exceptions and ``ConvergenceWarning`` are collected by
  the runner and count as signalled.

Both make the query fail.  Only a ``wrong`` answer to a timed query makes
the run incorrect.  Probes exercise inputs where the package is known to
fail; they count toward ``fail_frac`` but never toward timing.
"""

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from poolqueue import cli, inversion, kernels, service, simulate, transient, waiting

# Gate thresholds.  Exact (transform-space) PMFs must hold their mass to
# 1e-10 and carry no coefficient below -1e-12.  Inverted PMFs are accurate
# only to the inversion tolerance the package claims (cross_tolerance,
# 1e-6), so their negativity floor and their oracle tolerance are 1e-6.
MASS_TOL = 1e-10
EXACT_FLOOR = -1e-12
INVERTED_TOL = inversion.InversionConfig().cross_tolerance
RESOLVENT_TOL = 1e-10
REL_TOL = 1e-9

ERLANG = service.Erlang(2, 2.0)
DET = service.Deterministic(0.8)


@dataclass(frozen=True)
class Rates:
    """What the seed draws: load lambda/mu, exponential service rate mu and
    killing rate gamma, each uniform in a fixed range."""

    load: float
    mu: float
    gamma: float
    sim_seeds: tuple

    def lam(self, law):
        """Arrival rate giving this load under the service law."""
        return self.load / service.mean(law)


def draw_rates(seed):
    rng = np.random.default_rng(seed)
    load = float(rng.uniform(0.7, 1.3))
    mu = float(rng.uniform(0.8, 1.25))
    gamma = float(rng.uniform(0.5, 1.5))
    sim_seeds = tuple(int(x) for x in rng.integers(0, 2**31, size=len(ORACLE_MODELS)))
    return Rates(load=load, mu=mu, gamma=gamma, sim_seeds=sim_seeds)


@dataclass
class Query:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Workload:
    queries: list
    context: dict


def _pmf_problems(p, k, m, floor):
    p = np.asarray(p)
    if p.shape != (k + m + 1,):
        return [f"pmf has shape {p.shape}, expected {(k + m + 1,)}"]
    if np.iscomplexobj(p) or not np.all(np.isfinite(p)):
        return ["pmf is not real and finite"]
    out = []
    mass = float(p.sum())
    if abs(mass - 1.0) > MASS_TOL:
        out.append(f"mass off by {mass - 1.0:.3e}")
    if p.min() < floor:
        out.append(f"coefficient {p.min():.3e} below {floor:g}")
    return out


def _pmf_check(k, m, floor, reference=None, ref_tol=None):
    def check(p):
        wrong = _pmf_problems(p, k, m, floor)
        if reference is not None and not wrong:
            err = float(np.max(np.abs(np.asarray(p) - reference)))
            if err > ref_tol:
                wrong.append(f"differs from CTMC reference by {err:.3e}")
        return [], wrong

    return check


# ---------------------------------------------------------------------------
# large-pool: exact answers at large m, real gamma

LARGE_POOL_K = 20
LARGE_POOL_MS = (100, 200, 300)
WORKLOAD_LST_SHAPE = (5, 80, 0.5)  # k, m, alpha
WAITING_SHAPE = (5, 150)  # k, m
WAITING_ALPHA_FACTORS = (2.0, 4.0, 8.0)  # alpha = factor * lambda


def _waiting_table(k, m, plan, law, alphas):
    rhos = waiting.emptiness_probs(k, m, plan, law)
    means, lsts = [], []
    for j in range(1, k + m + 1):
        means.append(waiting.waiting_mean(j, k, m, plan, law, rhos=rhos))
        lsts.append([waiting.waiting_lst(j, a, k, m, plan, law, rhos=rhos) for a in alphas])
    return rhos, np.array(means), np.array(lsts)


def _waiting_check(k, m, law, alphas):
    mean_b = service.mean(law)

    def check(result):
        rhos, means, lsts = result
        wrong = []
        if rhos.shape != (m,) or not np.all(np.isfinite(rhos)):
            return [], ["emptiness probabilities not finite"]
        if rhos.min() < EXACT_FLOOR or rhos.max() > 1.0 - EXACT_FLOOR:
            wrong.append(f"emptiness probability outside [0, 1]: {rhos.min():.3e}..{rhos.max():.3e}")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(lsts))):
            return [], wrong + ["waiting mean or LST not finite"]
        expected = (np.arange(1, k + 1) - 1) * mean_b
        if np.max(np.abs(means[:k] - expected)) > REL_TOL * max(1.0, expected.max()):
            wrong.append("mean wait of an initial customer is not (j-1) E[B]")
        if means.min() < -REL_TOL:
            wrong.append(f"negative mean wait {means.min():.3e}")
        if lsts.min() < 0.0 or lsts.max() > 1.0 + REL_TOL:
            wrong.append(f"waiting LST outside [0, 1]: {lsts.min():.3e}..{lsts.max():.3e}")
        if np.any(np.diff(lsts, axis=1) > REL_TOL):
            wrong.append("waiting LST increases with alpha")
        # Jensen: E[exp(-a W)] >= exp(-a E[W]).
        jensen = np.exp(-np.outer(means, alphas))
        if np.any(lsts < jensen * (1.0 - REL_TOL) - 1e-300):
            wrong.append("waiting LST below the Jensen bound exp(-alpha E[W])")
        return [], wrong

    return check


def _workload_lst_check(p_empty):
    def check(value):
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return [], ["workload LST not finite"]
        if abs(value.imag) > MASS_TOL:
            return [], [f"workload LST has imaginary part {value.imag:.3e}"]
        # W = 0 exactly when the queue is empty, so P(Z=0) <= E[e^{-aW}] <= 1.
        if not p_empty - MASS_TOL <= value.real <= 1.0 + MASS_TOL:
            return [], [f"workload LST {value.real:.6g} outside [P(Z=0)={p_empty:.6g}, 1]"]
        return [], []

    return check


def large_pool(rates):
    law = service.Exponential(rates.mu)
    lam = rates.lam(law)
    gamma = rates.gamma
    queries = []
    for m in LARGE_POOL_MS:
        plan = kernels.Constant(lam, m)
        queries.append(
            Query(
                f"pmf-k{LARGE_POOL_K}-m{m}",
                lambda m=m, plan=plan: transient.pmf(LARGE_POOL_K, m, plan, law, gamma),
                _pmf_check(LARGE_POOL_K, m, EXACT_FLOOR),
            )
        )
    k, m, alpha = WORKLOAD_LST_SHAPE
    det_plan = kernels.Constant(rates.lam(DET), m)
    # Reference outside the timed region: P(Z=0) bounds the workload LST.
    p_empty = float(transient.pmf(k, m, det_plan, DET, gamma)[0])
    queries.append(
        Query(
            f"workload-lst-det-k{k}-m{m}",
            lambda k=k, m=m: transient.workload_lst(k, m, det_plan, DET, gamma, alpha),
            _workload_lst_check(p_empty),
        )
    )
    k, m = WAITING_SHAPE
    erl_lam = rates.lam(ERLANG)
    erl_plan = kernels.Constant(erl_lam, m)
    alphas = np.array(WAITING_ALPHA_FACTORS) * erl_lam
    queries.append(
        Query(
            f"waiting-table-erlang-k{k}-m{m}",
            lambda k=k, m=m: _waiting_table(k, m, erl_plan, ERLANG, alphas),
            _waiting_check(k, m, ERLANG, alphas),
        )
    )
    return Workload(queries, {"alphas": alphas.tolist()})


# ---------------------------------------------------------------------------
# time-grid: time-domain PMFs by Laplace inversion

TIME_GRID_MODELS = [
    # (label, k, m, law or None for Exp(mu), time points, CTMC reference)
    ("erlang", 2, 20, ERLANG, (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0), False),
    ("exp", 3, 12, None, (0.5, 1.0, 2.0, 4.0, 8.0, 12.0), True),
    ("det", 1, 10, DET, (0.5, 1.0, 2.0, 4.0, 8.0, 12.0), False),
]


def time_grid(rates):
    queries = []
    for label, k, m, law, times, with_reference in TIME_GRID_MODELS:
        law = law or service.Exponential(rates.mu)
        plan = kernels.Constant(rates.lam(law), m)
        for t in times:
            reference = None
            if with_reference:
                reference = simulate.ctmc_at_time(k, m, plan, law, t).sum(axis=1)
            queries.append(
                Query(
                    f"pmf-at-time-{label}-k{k}-m{m}-t{t:g}",
                    lambda k=k, m=m, plan=plan, law=law, t=t: inversion.pmf_at_time(
                        k, m, plan, law, t
                    ),
                    _pmf_check(k, m, -INVERTED_TOL, reference, INVERTED_TOL),
                )
            )
    return Workload(queries, {})


# ---------------------------------------------------------------------------
# oracle-check: in-process `poolqueue validate`

ORACLE_MODELS = [
    # (k, m, plan kind)
    (1, 2, "const"),
    (2, 3, "prop"),
    (3, 2, "prop"),
    (4, 3, "const"),
    (1, 30, "const"),
    (2, 26, "const"),
    (3, 30, "const"),
    (4, 26, "const"),
    (5, 27, "const"),
    (6, 28, "const"),
]
ORACLE_REPLICATIONS = 200_000
_CHECK_NAMES = (
    "pgf_vs_ctmc_resolvent",
    "pmf_vs_monte_carlo_4se",
    "waiting_means_vs_monte_carlo_4se",
)


def read_validate_table(path):
    """{check: (discrepancy, status)} from the CSV `validate` wrote."""
    table = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if len(row) == 3 and row[0] in _CHECK_NAMES:
                table[row[0]] = (float(row[1]), row[2])
    return table


def _validate_check(info):
    def check(result):
        code, path = result
        if not os.path.exists(path):
            return [f"validate exit {code}"], ["validate wrote no table"]
        table = read_validate_table(path)
        os.remove(path)
        if set(table) != set(_CHECK_NAMES):
            return [f"validate exit {code}"], [f"validate table lacks checks: {sorted(table)}"]
        info["z_scores"] = {
            name: table[name][0] for name in _CHECK_NAMES if name.endswith("_4se")
        }
        failing = sorted(name for name, (_, status) in table.items() if status != "pass")
        signalled = [f"validate exit {code}: {', '.join(failing)}"] if code else []
        wrong = []
        if (code == 0) != (not failing):
            wrong.append(f"exit code {code} disagrees with statuses {failing}")
        resolvent = table["pgf_vs_ctmc_resolvent"][0]
        if not resolvent <= RESOLVENT_TOL:
            wrong.append(f"PMF differs from CTMC resolvent by {resolvent:.3e}")
        return signalled, wrong

    return check


def oracle_check(rates, tmp_dir):
    law = service.Exponential(rates.mu)
    lam = rates.lam(law)
    queries, infos = [], {}
    for index, (k, m, kind) in enumerate(ORACLE_MODELS):
        name = f"validate-k{k}-m{m}-{kind}"
        path = os.path.join(tmp_dir, f"{name}.csv")
        argv = [
            "validate",
            "--k", str(k),
            "--m", str(m),
            "--plan", f"{kind}:{lam!r}",
            "--service", f"exp:{rates.mu!r}",
            "--gamma", repr(rates.gamma),
            "--replications", str(ORACLE_REPLICATIONS),
            "--seed", str(rates.sim_seeds[index]),
            "--output", path,
        ]
        infos[name] = {}
        queries.append(
            Query(
                name,
                lambda argv=argv, path=path: (cli.run(argv), path),
                _validate_check(infos[name]),
            )
        )
    return Workload(queries, {"monte_carlo": infos})


# ---------------------------------------------------------------------------
# robustness probes, run in every workload outside the timed region

def probes(rates):
    lam_erl = rates.lam(ERLANG)
    exp_law = service.Exponential(rates.mu)
    lam_exp = rates.lam(exp_law)
    gamma = rates.gamma
    general = kernels.General(tuple(lam_erl * (1 + 0.37 * j) for j in range(40)))
    prop_small = kernels.Proportional(lam_exp / 24, 24)
    pole_plan = kernels.Constant(lam_erl, 30)
    late_plan = kernels.Constant(0.85, 20)

    def pole_check(value):
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return [], [f"waiting LST {value!r} outside [0, 1]"]
        return [], []

    return [
        # Partial-fraction tables refuse these (ConditioningError).
        Query(
            "probe-prop-m60",
            lambda: transient.pmf(2, 60, kernels.Proportional(lam_erl, 60), ERLANG, gamma),
            _pmf_check(2, 60, EXACT_FLOOR),
        ),
        Query(
            "probe-general-m40",
            lambda: transient.pmf(2, 40, general, ERLANG, gamma),
            _pmf_check(2, 40, EXACT_FLOOR),
        ),
        # Below the refusal threshold the same cancellation returns
        # negative probabilities without any signal.
        Query(
            "probe-prop-small-rate-m24",
            lambda: transient.pmf(5, 24, prop_small, exp_law, gamma),
            _pmf_check(5, 24, EXACT_FLOOR),
        ),
        # alpha equal to an arrival rate takes the removable-singularity
        # path of waiting_lst, which overflows.
        Query(
            "probe-waiting-lst-at-rate",
            lambda: waiting.waiting_lst(20, lam_erl, 5, 30, pole_plan, ERLANG),
            pole_check,
        ),
        # Fixed inputs: at t = 20 Euler and Talbot disagree by ~2e-6 on
        # this model, above the 1e-6 cross tolerance.
        Query(
            "probe-late-inversion-t20",
            lambda: inversion.pmf_at_time(2, 20, late_plan, ERLANG, 20.0),
            _pmf_check(2, 20, -INVERTED_TOL),
        ),
    ]


NAMES = ("large-pool", "time-grid", "oracle-check")


def build(name, rates, tmp_dir):
    if name == "large-pool":
        return large_pool(rates)
    if name == "time-grid":
        return time_grid(rates)
    if name == "oracle-check":
        return oracle_check(rates, tmp_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
