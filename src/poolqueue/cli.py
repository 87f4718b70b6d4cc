"""Command-line front end.

Subcommands cover the transform pipeline (pgf, pmf, moments, workload,
waiting), time-domain answers (at-time), the geometric-pool closed form
(geometric), the Monte Carlo engine (simulate), and a cross-oracle check
(validate).  Parameters come from a YAML config file, command-line flags,
or both; flags win.  _PARAMS declares each parameter once, and a flag and
a YAML value follow its rule alike: a list may be a YAML list or a comma
string, a zero counts, and only an absent or null key takes the default.
The subcommand's effective configuration is echoed into every output so a
table can be reproduced from the file alone; a config key it does not read
is named on stderr and left out.

Exit codes: 0 success, 1 usage error, 2 validation failure.
"""

import argparse
import csv
import io
import json
import sys
from functools import cache
from math import asin, erfc, expm1, log1p, sqrt
from statistics import NormalDist

import numpy as np
import yaml

from . import geometric, inversion, kernels, service, simulate, transient, waiting
from .errors import PoolQueueError, UnsupportedTransform, check_counts

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
            return kernels.General(rest.split(","))
    except ValueError as exc:
        raise UsageError(f"bad rate plan {text!r}: {exc}") from exc
    raise UsageError(
        f"bad rate plan {text!r}; expected const:RATE, prop:RATE, or general:R1,R2,..."
    )


# ---------------------------------------------------------------------------
# parameters and config handling

def _comma_list(item):
    """Converter for a list given as a YAML list, one number, or a comma string."""
    def convert(value):
        items = value if isinstance(value, (list, tuple)) else str(value).split(",")
        return [item(x) for x in items]
    return convert


def _order(value):
    order = int(value)
    if order < 0:
        raise ValueError(f"moment orders must be nonnegative, got {order}")
    return order


_FLOATS, _INTS, _ORDERS = _comma_list(float), _comma_list(int), _comma_list(_order)


def _output_format(value):
    if value not in ("csv", "json"):
        raise UsageError(f"unknown output format {value!r}; use csv or json")
    return value


# Every parameter once: name -> (config block, converter, help).  The
# converter runs when the settings are built, before any work, so a flag and
# a YAML value follow the same rule.  argparse also converts scalar flags;
# list flags stay raw strings, which keeps the echoed config byte-identical
# to the input.
_PARAMS = {
    "k": ("model", int, "customers present at time zero"),
    "m": ("model", int, "customers still to arrive"),
    "plan": ("model", str, "rate plan: const:RATE, prop:RATE, or general:R1,R2,..."),
    "service": ("model", str,
                "service law: exp:R, erlang:C,R, hyperexp:W1,R1,..., det:D, pareto:I,S"),
    "gamma": ("query", float, "killing rate of the Exp deadline"),
    "z": ("query", _FLOATS, "comma-separated z values"),
    "alpha": ("query", _FLOATS, "comma-separated alpha values of the LSTs"),
    "t": ("query", _FLOATS, "comma-separated time points"),
    "j": ("query", _INTS, "comma-separated customer indices (default all)"),
    "orders": ("query", _ORDERS, "comma-separated nonnegative moment orders"),
    "p": ("query", float, "generating variable for the initial count"),
    "r": ("query", float, "generating variable for the pool size"),
    "lam": ("query", float, "arrival rate"),
    "mu": ("query", float, "service rate"),
    "seed": ("execution", int, "RNG seed"),
    "replications": ("execution", int, "Monte Carlo replications"),
    "output": ("execution", str, "write the table to this path instead of stdout"),
    "format": ("execution", _output_format, "output format: csv (default) or json"),
}


def load_config(path):
    """Read the YAML config file and reject unknown blocks or keys.  A null
    value counts as absent, like an omitted flag."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must contain a mapping")
    blocks = {block for block, _, _ in _PARAMS.values()}
    flat = {}
    for block, content in data.items():
        if block not in blocks:
            raise UsageError(f"unknown config block {block!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise UsageError(f"config block {block!r} must be a mapping")
        for key, value in content.items():
            if _PARAMS.get(key, (None,))[0] != block:
                raise UsageError(f"unknown key {key!r} in config block {block!r}")
            if value is not None:
                flat[key] = value
    return flat


class Settings:
    """Effective settings of one subcommand: config-file values overridden
    by flags, each converted by its _PARAMS entry once, when built, so a bad
    value fails before any work.  A config key the subcommand does not read
    is dropped with one note on stderr."""

    def __init__(self, args):
        used = ("output", "format") + _COMMANDS[args.command][2]
        values = load_config(args.config) if args.config else {}
        for key in sorted(set(values) - set(used)):
            print(f"poolqueue {args.command}: ignoring config key {key!r}, "
                  "which this subcommand does not read", file=sys.stderr)
        values.update(
            (key, value) for key, value in vars(args).items()
            if key in _PARAMS and value is not None
        )
        self._raw = {key: values[key] for key in used if key in values}
        self._values = {key: _PARAMS[key][1](value) for key, value in self._raw.items()}

    def get(self, key, default=None):
        return self._values.get(key, default)

    def require(self, key):
        if key not in self._values:
            raise UsageError(f"missing required parameter --{key}")
        return self.get(key)

    def model(self):
        k, m = self.require("k"), self.require("m")
        law = parse_service(self.require("service"))
        plan = self.get("plan", "const:1") if m == 0 else self.require("plan")
        return k, m, parse_plan(plan, m), law

    def echo(self):
        return {
            key: _scalar(value)
            for key, value in sorted(self._raw.items())
            if key != "output"
        }


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
    fmt = settings.get("format", "csv")
    echoed = settings.echo()
    if fmt == "json":
        payload = {
            "config": echoed,
            "columns": list(header),
            "rows": [[_cell(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, value in echoed.items():
            writer.writerow(["config", key, value])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    out_path = settings.get("output")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

_Z_GRID = [0.25, 0.5, 0.75, 1.0]


def cmd_pgf(settings):
    k, m, plan, law = settings.model()
    z_grid = settings.get("z", _Z_GRID)
    poly = transient.pgf(k, m, plan, law, settings.require("gamma"))
    rows = [(format_number(z), poly(z)) for z in z_grid]
    emit(settings, ["z", "pgf"], rows)


def cmd_pmf(settings):
    k, m, plan, law = settings.model()
    probs = transient.pmf(k, m, plan, law, settings.require("gamma"))
    rows = [(level, p) for level, p in enumerate(probs)]
    emit(settings, ["level", "probability"], rows)


def cmd_moments(settings):
    k, m, plan, law = settings.model()
    orders = settings.get("orders", [1, 2])
    values = transient.factorial_moments(
        k, m, plan, law, settings.require("gamma"), max(orders)
    )
    rows = [(order, values[order]) for order in orders]
    emit(settings, ["order", "factorial_moment"], rows)


def cmd_workload(settings):
    k, m, plan, law = settings.model()
    gamma, alphas = settings.require("gamma"), settings.require("alpha")
    rows = [
        (format_number(a), transient.workload_lst(k, m, plan, law, gamma, a))
        for a in alphas
    ]
    emit(settings, ["alpha", "workload_lst"], rows)


def cmd_waiting(settings):
    k, m, plan, law = settings.model()
    check_counts(k, m, plan)  # at k + m <= 0 the loop below never reaches the library
    js = settings.get("j", range(1, k + m + 1))
    alphas = settings.get("alpha", [])
    header = ["j", "mean"] + [f"lst_alpha_{format_number(a)}" for a in alphas]
    rows = []
    for j in js:
        row = [j, waiting.waiting_mean(j, k, m, plan, law)]
        row += [waiting.waiting_lst(j, a, k, m, plan, law) for a in alphas]
        rows.append(row)
    emit(settings, header, rows)


def cmd_at_time(settings):
    k, m, plan, law = settings.model()
    rows = []
    for t in settings.require("t"):
        probs = inversion.pmf_at_time(k, m, plan, law, t)
        rows += [(format_number(t), level, p) for level, p in enumerate(probs)]
    emit(settings, ["t", "level", "probability"], rows)


def cmd_geometric(settings):
    params = geometric.GeometricPoolParams(
        lam=settings.require("lam"),
        mu=settings.require("mu"),
        gamma=settings.require("gamma"),
    )
    p = settings.get("p", 0.0)
    r = settings.require("r")
    rows = [
        (
            format_number(z),
            geometric.m0(params, r, z),
            geometric.g(params, p, r, z),
        )
        for z in settings.get("z", _Z_GRID)
    ]
    emit(settings, ["z", "m0", "g"], rows)


def cmd_simulate(settings):
    k, m, plan, law = settings.model()
    config = simulate.SimConfig(
        k=k,
        m=m,
        plan=plan,
        law=law,
        gamma=settings.get("gamma"),
        times=tuple(settings.get("t", ())),
        z_grid=tuple(settings.get("z", ())),
        alpha_grid=tuple(settings.get("alpha", ())),
        replications=settings.get("replications", 100_000),
        seed=settings.get("seed", 0),
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
    gamma = settings.get("gamma", 1.0)
    reps = settings.get("replications", 200_000)
    seed = settings.get("seed", 0)
    # Built first: its checks reject a bad gamma before any transform runs.
    config = simulate.SimConfig(
        k=k, m=m, plan=plan, law=law, gamma=gamma, replications=reps, seed=seed
    )
    checks = []

    exact = transient.pmf(k, m, plan, law, gamma)
    try:
        marginal = simulate.ctmc_resolvent(k, m, plan, law, gamma).sum(axis=1)
    except UnsupportedTransform:
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
        worst = 0.0
        for j in range(1, k + m + 1):
            est = report.waiting_means[j - 1]
            mean_j = waiting.waiting_mean(j, k, m, plan, law)
            se = max(est.stderr, 1e-12)
            worst = max(worst, abs(est.value - mean_j) / se)
        worst = sidak_deviate(worst, k + m)
        checks.append(("waiting_means_vs_monte_carlo_4se", worst, worst <= 4.0))

    rows = [
        (name, value, "pass" if ok else "fail") for name, value, ok in checks
    ]
    emit(settings, ["check", "discrepancy", "status"], rows)
    return 0 if all(ok for _, _, ok in checks) else 2


_MODEL = ("k", "m", "plan", "service")

# name -> (handler, help, parameters besides --config, --output and --format)
_COMMANDS = {
    "pgf": (cmd_pgf, "queue-length PGF at the deadline on a z grid",
            _MODEL + ("gamma", "z")),
    "pmf": (cmd_pmf, "queue-length PMF at the deadline", _MODEL + ("gamma",)),
    "moments": (cmd_moments, "factorial moments of the queue length at the deadline",
                _MODEL + ("gamma", "orders")),
    "workload": (cmd_workload, "workload LST at the deadline on an alpha grid",
                 _MODEL + ("gamma", "alpha")),
    "waiting": (cmd_waiting, "waiting-time means and transforms per customer",
                _MODEL + ("j", "alpha")),
    "at-time": (cmd_at_time,
                "queue-length PMF at fixed times: uniformization for phase-type "
                "service, the reflection map for Deterministic", _MODEL + ("t",)),
    "geometric": (cmd_geometric,
                  "closed-form generating functions for geometric initial conditions",
                  ("lam", "mu", "gamma", "p", "r", "z")),
    "simulate": (cmd_simulate, "Monte Carlo estimates with standard errors",
                 _MODEL + ("gamma", "t", "z", "alpha", "replications", "seed")),
    "validate": (cmd_validate, "cross-check transforms against CTMC and simulation oracles",
                 _MODEL + ("gamma", "replications", "seed")),
}


@cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every run shares it."""
    parser = _Parser(prog="poolqueue", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, help_text, params) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML config file; flags override its values")
        for key in ("output", "format") + params:
            _, convert, flag_help = _PARAMS[key]
            kwargs = {} if convert in (_FLOATS, _INTS, _ORDERS) else {"type": convert}
            p.add_argument(f"--{key}", help=flag_help, **kwargs)
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("poolqueue: a subcommand is required (see --help)")
        settings = Settings(args)
        result = _COMMANDS[args.command][0](settings)
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
