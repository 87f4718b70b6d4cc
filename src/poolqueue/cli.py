"""Command-line front end.

Subcommands cover the transform pipeline (pgf, pmf, moments, workload,
waiting), time-domain inversion (at-time), the geometric-pool closed form
(geometric), the Monte Carlo engine (simulate), and a cross-oracle check
(validate).  Parameters come from a YAML config file, command-line flags,
or both; flags win.  The effective configuration is echoed into every
output so a table can be reproduced from the file alone.

Exit codes: 0 success, 1 usage error, 2 validation failure.
"""

import argparse
import csv
import io
import json
import sys
from math import asin, erfc, expm1, inf, log1p, sqrt
from statistics import NormalDist

import numpy as np
import yaml

from . import geometric, inversion, kernels, service, simulate, transient, waiting
from .errors import PoolQueueError, UnsupportedOracle

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# compact law / plan strings

def parse_service(text):
    """Parse 'exp:1', 'erlang:2,1', 'hyperexp:0.4,1,0.6,3', 'det:2', 'pareto:1.5,1'."""
    kind, _, rest = text.partition(":")
    try:
        args = [float(x) for x in rest.split(",")] if rest else []
        if kind == "exp" and len(args) == 1:
            return service.Exponential(args[0])
        if kind == "erlang" and len(args) == 2:
            return service.Erlang(int(args[0]), args[1])
        if kind == "hyperexp" and len(args) >= 4 and len(args) % 2 == 0:
            return service.HyperExponential(tuple(args[0::2]), tuple(args[1::2]))
        if kind == "det" and len(args) == 1:
            return service.Deterministic(args[0])
        if kind == "pareto" and len(args) == 2:
            return service.Pareto(args[0], args[1])
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad service law {text!r}: {exc}") from exc
    raise UsageError(
        f"bad service law {text!r}; expected exp:RATE, erlang:SHAPE,RATE, "
        "hyperexp:W1,R1,W2,R2[,...], det:VALUE, or pareto:INDEX,SCALE"
    )


def parse_plan(text, m):
    """Parse 'const:1', 'prop:0.5', or 'general:r1,r2,...' (rates for the
    last arrival first)."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "const":
            return kernels.Constant(float(rest), m)
        if kind == "prop":
            return kernels.Proportional(float(rest), m)
        if kind == "general":
            rates = tuple(float(x) for x in rest.split(","))
            if len(rates) != m:
                raise UsageError(
                    f"general plan needs exactly m={m} rates, got {len(rates)}"
                )
            return kernels.General(rates)
    except ValueError as exc:
        raise UsageError(f"bad rate plan {text!r}: {exc}") from exc
    raise UsageError(
        f"bad rate plan {text!r}; expected const:RATE, prop:RATE, or general:R1,R2,..."
    )


# ---------------------------------------------------------------------------
# config handling

_SCHEMA = {
    "model": {"k", "m", "plan", "service"},
    "query": {"gamma", "z", "alpha", "t", "j", "orders", "p", "r", "lam", "mu"},
    "execution": {"seed", "replications", "output", "format"},
}


def load_config(path):
    """Read the YAML config file and reject unknown blocks or keys."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must contain a mapping")
    flat = {}
    for block, content in data.items():
        if block not in _SCHEMA:
            raise UsageError(f"unknown config block {block!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise UsageError(f"config block {block!r} must be a mapping")
        for key, value in content.items():
            if key not in _SCHEMA[block]:
                raise UsageError(f"unknown key {key!r} in config block {block!r}")
            flat[key] = value
    return flat


def _floats(text):
    if isinstance(text, (list, tuple)):
        return [float(x) for x in text]
    return [float(x) for x in str(text).split(",")]


def _ints(text):
    if isinstance(text, (list, tuple)):
        return [int(x) for x in text]
    return [int(x) for x in str(text).split(",")]


class Settings:
    """Effective settings: config-file values overridden by flags."""

    def __init__(self, args):
        base = load_config(args.config) if args.config else {}
        for key, value in vars(args).items():
            if key in ("command", "config"):
                continue
            if value is not None:
                base[key] = value
        self._values = base

    def get(self, key, default=None):
        return self._values.get(key, default)

    def require(self, key):
        if key not in self._values:
            raise UsageError(f"missing required parameter --{key}")
        return self._values[key]

    def model(self):
        k = int(self.require("k"))
        m = int(self.require("m"))
        law = parse_service(str(self.require("service")))
        if m == 0 and "plan" not in self._values:
            plan = kernels.Constant(1.0, 0)
        else:
            plan = parse_plan(str(self.require("plan")), m)
        return k, m, plan, law

    def killing_rate(self):
        """The required --gamma, finite and nonnegative."""
        gamma = float(self.require("gamma"))
        if not 0 <= gamma < inf:
            raise UsageError(f"--gamma must be finite and nonnegative, got {gamma}")
        return gamma

    def echo(self):
        out = dict(self._values)
        out.pop("output", None)
        return {str(key): _scalar(value) for key, value in sorted(out.items())}


def _scalar(value):
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# output

def format_number(x):
    """12 significant digits; scientific notation below 1e-4."""
    x = float(x)
    if x != 0.0 and abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return format_number(value)
    return str(value)


def emit(settings, header, rows):
    fmt = str(settings.get("format", "csv"))
    echoed = settings.echo()
    if fmt == "json":
        payload = {
            "config": echoed,
            "columns": list(header),
            "rows": [[_cell(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, value in echoed.items():
            writer.writerow(["config", key, value])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    else:
        raise UsageError(f"unknown output format {fmt!r}; use csv or json")
    out_path = settings.get("output")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_pgf(settings):
    k, m, plan, law = settings.model()
    gamma = settings.killing_rate()
    z_grid = _floats(settings.get("z", "0.25,0.5,0.75,1"))
    poly = transient.pgf(k, m, plan, law, gamma)
    rows = [(format_number(z), poly(z)) for z in z_grid]
    emit(settings, ["z", "pgf"], rows)


def cmd_pmf(settings):
    k, m, plan, law = settings.model()
    gamma = settings.killing_rate()
    probs = transient.pmf(k, m, plan, law, gamma)
    rows = [(level, p) for level, p in enumerate(probs)]
    emit(settings, ["level", "probability"], rows)


def cmd_moments(settings):
    k, m, plan, law = settings.model()
    gamma = settings.killing_rate()
    orders = _ints(settings.get("orders", "1,2"))
    values = transient.factorial_moments(k, m, plan, law, gamma, max(orders))
    rows = [(order, values[order]) for order in orders]
    emit(settings, ["order", "factorial_moment"], rows)


def cmd_workload(settings):
    k, m, plan, law = settings.model()
    gamma = settings.killing_rate()
    alphas = _floats(settings.require("alpha"))
    rows = [
        (format_number(a), transient.workload_lst(k, m, plan, law, gamma, a))
        for a in alphas
    ]
    emit(settings, ["alpha", "workload_lst"], rows)


def cmd_waiting(settings):
    k, m, plan, law = settings.model()
    js = _ints(settings.get("j", ",".join(str(j) for j in range(1, k + m + 1))))
    alphas = _floats(settings.get("alpha", "")) if settings.get("alpha") else []
    rhos = waiting.emptiness_probs(k, m, plan, law)
    header = ["j", "mean"] + [f"lst_alpha_{format_number(a)}" for a in alphas]
    rows = []
    for j in js:
        row = [j, waiting.waiting_mean(j, k, m, plan, law, rhos=rhos)]
        row += [waiting.waiting_lst(j, a, k, m, plan, law, rhos=rhos) for a in alphas]
        rows.append(row)
    emit(settings, header, rows)


def cmd_at_time(settings):
    k, m, plan, law = settings.model()
    t_grid = _floats(settings.require("t"))
    rows = []
    for t in t_grid:
        probs = inversion.pmf_at_time(k, m, plan, law, t)
        rows += [(format_number(t), level, p) for level, p in enumerate(probs)]
    emit(settings, ["t", "level", "probability"], rows)


def cmd_geometric(settings):
    params = geometric.GeometricPoolParams(
        lam=float(settings.require("lam")),
        mu=float(settings.require("mu")),
        gamma=float(settings.require("gamma")),
    )
    p = float(settings.get("p", 0.0))
    r = float(settings.require("r"))
    z_grid = _floats(settings.get("z", "0.25,0.5,0.75,1"))
    rows = [
        (
            format_number(z),
            geometric.m0(params, r, z),
            geometric.g(params, p, r, z),
        )
        for z in z_grid
    ]
    emit(settings, ["z", "m0", "g"], rows)


def cmd_simulate(settings):
    k, m, plan, law = settings.model()
    gamma = settings.get("gamma")
    config = simulate.SimConfig(
        k=k,
        m=m,
        plan=plan,
        law=law,
        gamma=float(gamma) if gamma is not None else None,
        times=tuple(_floats(settings.get("t", ""))) if settings.get("t") else (),
        z_grid=tuple(_floats(settings.get("z", ""))) if settings.get("z") else (),
        alpha_grid=tuple(_floats(settings.get("alpha", "")))
        if settings.get("alpha")
        else (),
        replications=int(settings.get("replications", 100_000)),
        seed=int(settings.get("seed", 0)),
    )
    report = simulate.simulate(config)
    rows = []
    for level, est in enumerate(report.kill_pmf):
        rows.append(("kill_pmf", str(level), est.value, est.stderr))
    for t, ests in report.time_pmf.items():
        for level, est in enumerate(ests):
            rows.append(("time_pmf", f"{format_number(t)}|{level}", est.value, est.stderr))
    for z, est in report.pgf_values.items():
        rows.append(("pgf", format_number(z), est.value, est.stderr))
    for a, est in report.workload_lst.items():
        rows.append(("workload_lst", format_number(a), est.value, est.stderr))
    for j, est in enumerate(report.waiting_means, start=1):
        rows.append(("waiting_mean", str(j), est.value, est.stderr))
    emit(settings, ["quantity", "key", "estimate", "stderr"], rows)


def frequency_deviate(value, p, n):
    """Anscombe's arcsine deviate of a Monte Carlo frequency from p.

    With c = round(value * n) hits in n replications,
    2 sqrt(n + 1/2) |asin sqrt((c + 3/8) / (n + 3/4)) - asin sqrt(p)| is
    close to |N(0, 1)| under the null, also for levels so rare that no
    replication hits them and the empirical standard error is zero.
    """
    c = round(value * n)
    p = min(max(float(p), 0.0), 1.0)
    return 2.0 * sqrt(n + 0.5) * abs(asin(sqrt((c + 0.375) / (n + 0.75))) - asin(sqrt(p)))


def sidak_deviate(z, count):
    """Sidak-adjust z, the largest of count |N(0, 1)| deviates: the single
    deviate whose two-sided p-value is 1 - (1 - 2 Phi(-z))^count, which is
    conservative for correlated Gaussian means.  NaN, or a z whose tail
    2 Phi(-z) underflows, is returned as it is."""
    tail = erfc(z / sqrt(2.0))  # 2 Phi(-z)
    if not tail > 0.0:
        return z
    family = -expm1(count * log1p(-tail)) if tail < 1.0 else 1.0
    return abs(NormalDist().inv_cdf(family / 2.0))


def cmd_validate(settings):
    """Cross-check the transform pipeline against the CTMC and Monte Carlo
    oracles for the supplied model; print a pass/fail table."""
    k, m, plan, law = settings.model()
    gamma = float(settings.get("gamma", 1.0))
    reps = int(settings.get("replications", 200_000))
    seed = int(settings.get("seed", 0))
    # Built first: its checks reject a bad gamma before any transform runs.
    config = simulate.SimConfig(
        k=k, m=m, plan=plan, law=law, gamma=gamma, replications=reps, seed=seed
    )
    checks = []

    exact = transient.pmf(k, m, plan, law, gamma)
    try:
        marginal = simulate.ctmc_resolvent(k, m, plan, law, gamma).sum(axis=1)
    except UnsupportedOracle:
        pass  # no finite chain for Deterministic service
    else:
        err = float(np.max(np.abs(exact - marginal)))
        checks.append(("pgf_vs_ctmc_resolvent", err, err <= 1e-10))

    report = simulate.simulate(config)
    worst = max(
        frequency_deviate(est.value, exact[level], reps)
        for level, est in enumerate(report.kill_pmf)
    )
    checks.append(("pmf_vs_monte_carlo_4se", worst, worst <= 4.0))

    if m:
        rhos = waiting.emptiness_probs(k, m, plan, law)
        worst = 0.0
        for j in range(1, k + m + 1):
            est = report.waiting_means[j - 1]
            mean_j = waiting.waiting_mean(j, k, m, plan, law, rhos=rhos)
            se = max(est.stderr, 1e-12)
            worst = max(worst, abs(est.value - mean_j) / se)
        worst = sidak_deviate(worst, k + m)
        checks.append(("waiting_means_vs_monte_carlo_4se", worst, worst <= 4.0))

    rows = [
        (name, value, "pass" if ok else "fail") for name, value, ok in checks
    ]
    emit(settings, ["check", "discrepancy", "status"], rows)
    return 0 if all(ok for _, _, ok in checks) else 2


_COMMANDS = {
    "pgf": cmd_pgf,
    "pmf": cmd_pmf,
    "moments": cmd_moments,
    "workload": cmd_workload,
    "waiting": cmd_waiting,
    "at-time": cmd_at_time,
    "geometric": cmd_geometric,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def build_parser():
    parser = _Parser(prog="poolqueue", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text, flags):
        p = sub.add_parser(name, help=help_text, parents=[], add_help=True)
        p.add_argument("--config", help="YAML config file; flags override its values")
        p.add_argument("--output", help="write the table to this path instead of stdout")
        p.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    model_flags = [
        ("--k", {"type": int, "help": "customers present at time zero"}),
        ("--m", {"type": int, "help": "customers still to arrive"}),
        ("--plan", {"help": "rate plan: const:RATE, prop:RATE, or general:R1,R2,..."}),
        ("--service", {"help": "service law: exp:R, erlang:C,R, hyperexp:W1,R1,..., det:D, pareto:I,S"}),
    ]
    gamma_flag = ("--gamma", {"type": float, "help": "killing rate of the Exp deadline"})

    add("pgf", "queue-length PGF at the deadline on a z grid",
        model_flags + [gamma_flag, ("--z", {"help": "comma-separated z values"})])
    add("pmf", "queue-length PMF at the deadline", model_flags + [gamma_flag])
    add("moments", "factorial moments of the queue length at the deadline",
        model_flags + [gamma_flag, ("--orders", {"help": "comma-separated moment orders"})])
    add("workload", "workload LST at the deadline on an alpha grid",
        model_flags + [gamma_flag, ("--alpha", {"help": "comma-separated alpha values"})])
    add("waiting", "waiting-time means and transforms per customer",
        model_flags + [
            ("--j", {"help": "comma-separated customer indices (default all)"}),
            ("--alpha", {"help": "comma-separated alpha values for the LST columns"}),
        ])
    add("at-time", "queue-length PMF at fixed times, by numerical inversion",
        model_flags + [("--t", {"help": "comma-separated time points"})])
    add("geometric", "closed-form generating functions for geometric initial conditions",
        [
            ("--lam", {"type": float, "help": "arrival rate"}),
            ("--mu", {"type": float, "help": "service rate"}),
            gamma_flag,
            ("--p", {"type": float, "help": "generating variable for the initial count"}),
            ("--r", {"type": float, "help": "generating variable for the pool size"}),
            ("--z", {"help": "comma-separated z values"}),
        ])
    add("simulate", "Monte Carlo estimates with standard errors",
        model_flags + [
            gamma_flag,
            ("--t", {"help": "comma-separated fixed observation times"}),
            ("--z", {"help": "comma-separated z values for E[z^Z]"}),
            ("--alpha", {"help": "comma-separated alpha values for the workload LST"}),
            ("--replications", {"type": int, "help": "number of replications"}),
            ("--seed", {"type": int, "help": "RNG seed"}),
        ])
    add("validate", "cross-check transforms against CTMC and simulation oracles",
        model_flags + [
            gamma_flag,
            ("--replications", {"type": int, "help": "Monte Carlo replications"}),
            ("--seed", {"type": int, "help": "RNG seed"}),
        ])
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("poolqueue: a subcommand is required (see --help)")
        settings = Settings(args)
        result = _COMMANDS[args.command](settings)
        return int(result or 0)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (PoolQueueError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
