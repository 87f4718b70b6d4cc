"""poolqueue benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload large-pool --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in.  With ``--trace 0`` the last line of standard output
is one JSON object holding the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Spans and a run record
(versions, BLAS thread cap, seed, commit, per-query outcomes) go to
``perfbench/out/``.  NOTES.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# BLAS threads are capped at the CPUs this process may use, before numpy
# is imported here or in any child interpreter.
BLAS_THREADS = len(os.sched_getaffinity(0))
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_RUNS = 9

SETUP_PARTS = ("numpy", "scipy.special", "yaml")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def time_import(importtime):
    """Wall time of a fresh interpreter running `import poolqueue.cli`."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", "import poolqueue.cli"]
    start = perf_counter()
    done = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"import poolqueue.cli failed:\n{done.stderr}")
    return elapsed, done.stderr


def import_breakdown(stderr):
    """setup.* seconds from `-X importtime` output (microsecond columns).

    numpy, scipy.special and yaml are their cumulative import times;
    poolqueue is the rest of `import poolqueue.cli`.
    """
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name not in cumulative and cum.strip().isdigit():
            cumulative[name] = int(cum) / 1e6
    parts = {f"setup.{name.replace('.', '_')}_s": cumulative[name] for name in SETUP_PARTS}
    parts["setup.poolqueue_s"] = cumulative["poolqueue.cli"] - sum(parts.values())
    return parts


def measure_setup(trace):
    """Median wall time of the import, or of its parts in a traced run.

    Set-up is not scaled by the speed probe: an import in a child
    interpreter, mostly loading shared libraries, does not track it.
    """
    time_import(False)  # compiles the package's bytecode once
    runs = [time_import(trace) for _ in range(SETUP_RUNS)]
    if not trace:
        return {"setup_s": statistics.median(t for t, _ in runs)}
    parts = [import_breakdown(err) for _, err in runs]
    return {key: statistics.median(p[key] for p in parts) for key in parts[0]}


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def run_query(query, tracer, convergence_warning):
    """Time one query, then check its answer outside the timed region."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer:
            tracer.query = query.name
        start = perf_counter()
        try:
            result, error = query.call(), None
        except Exception as exc:  # a failing query is counted, not fatal
            result, error = None, exc
        seconds = perf_counter() - start
    if tracer:
        tracer.query = None
    signalled, wrong = [], []
    if error is not None:
        signalled.append(f"raised {type(error).__name__}: {error}")
    n_conv = sum(issubclass(w.category, convergence_warning) for w in caught)
    if n_conv:
        signalled.append(f"ConvergenceWarning x{n_conv}")
    if error is None:
        more_signalled, wrong = query.check(result)
        signalled += more_signalled
    return {
        "name": query.name,
        "seconds": seconds,
        "failed": bool(signalled or wrong),
        "signalled": signalled,
        "wrong": wrong,
        "convergence_warnings": n_conv,
        "other_warnings": len(caught) - n_conv,
    }


def run_pass(workload, probes, tracer, convergence_warning):
    import calibration

    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        # The speed probe runs between queries, outside every timed region.
        outcomes, speed_probes = [], [calibration.probe()]
        for query in workload.queries:
            outcomes.append(run_query(query, tracer, convergence_warning))
            speed_probes.append(calibration.probe())
    finally:
        if tracer:
            tracer.uninstall()
    probe_outcomes = [run_query(p, None, convergence_warning) for p in probes]
    result = {
        "traced": tracer is not None,
        "wall_s": sum(o["seconds"] for o in outcomes),
        "speed_probe_s": speed_probes,
        "queries": outcomes,
        "probes": probe_outcomes,
    }
    if tracer:
        result["trace"] = tracer.summarize(first_span)
    return result


def layer_metrics(traced, untraced, setup):
    """Per-layer metrics from the traced passes (means over passes)."""
    import tracing

    n = len(traced)
    metrics = {}
    summaries = [p["trace"] for p in traced]
    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.calls"] = (summaries[0]["calls"][name], "count")
        metrics[f"{name}.self_s"] = (sum(s["self_s"][name] for s in summaries) / n, "s")
    counts = summaries[0]["counts"]
    for key in tracing.COMPUTED_COUNTS + tracing.MEASURED_COUNTS:
        metrics[key] = (counts[key], "bytes" if key.endswith("_bytes") else "count")
    sim_s = sum(s["simulate_s"] for s in summaries) / n
    reps = counts["simulate.replications"]
    metrics["simulate.reps_per_s"] = (reps / sim_s if sim_s > 0 else 0.0, "1/s")
    metrics["inversion.cross_check_warnings"] = (
        sum(o["convergence_warnings"] for o in traced[0]["queries"]),
        "count",
    )
    for key, value in setup.items():
        metrics[key] = (value, "s")
    traced_wall = sum(p["wall_s"] for p in traced) / n
    untraced_wall = sum(p["wall_s"] for p in untraced) / len(untraced)
    layer_self = sum(metrics[f"{name}.self_s"][0] for name in tracing.LAYER_NAMES)
    top_level = sum(s["top_level_s"] for s in summaries) / n
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["bench.self_s"] = (traced_wall - top_level, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    probe_totals = [sum(t) for p in traced + untraced for t in p["speed_probe_s"]]
    metrics["bench.probe_s"] = (statistics.median(probe_totals), "s")
    problems = []
    if abs(layer_self - top_level) > 1e-6 * traced_wall + 1e-9:
        problems.append(f"layer self times {layer_self} do not add up to top-level spans {top_level}")
    if traced_wall - top_level < 0:
        problems.append("top-level spans exceed the traced wall time")
    for s in summaries[1:]:
        if s["calls"] != summaries[0]["calls"] or s["counts"] != summaries[0]["counts"]:
            problems.append("call counts or exact counts differ between traced passes")
    return metrics, problems


def speed_factor(untraced):
    """Scale from this run's speed to the reference machine's (calibration.py)."""
    import calibration

    return calibration.speed_factor([t for p in untraced for t in p["speed_probe_s"]])


def end_to_end_metrics(untraced, setup, attempted, failed):
    """Timings on the reference scale.

    wall_s sums, over the queries of a pass, each query's median time over
    the timed untraced passes (the warm-up pass is not among them);
    query_p50_s is the median of every timed query time.
    Both are then scaled by the run's speed factor.
    """
    factor = speed_factor(untraced)
    durations = [o["seconds"] for p in untraced for o in p["queries"]]
    per_query = zip(*([o["seconds"] for o in p["queries"]] for p in untraced))
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (factor * sum(statistics.median(times) for times in per_query), "s"),
        "query_p50_s": (factor * statistics.median(durations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (failed / attempted, "fraction"),
    }


def failure_causes(passes):
    """{cause: number of failed queries or probes} over all passes."""
    causes = {}
    for p in passes:
        for o in p["queries"] + p["probes"]:
            for reason in o["signalled"] + o["wrong"]:
                cause = f"{o['name']}: {reason.split(':')[0]}"
                causes[cause] = causes.get(cause, 0) + 1
    return causes


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "poolqueue" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'poolqueue'}", file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import tracing
    import workloads
    from poolqueue.errors import ConvergenceWarning

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    setup = measure_setup(trace)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp_dir = OUT / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(exist_ok=True)
    try:
        rates = workloads.draw_rates(args.seed)
        workload = workloads.build(args.workload, rates, str(tmp_dir))
        probes = workloads.probes(rates)
        tracer = tracing.Tracer() if trace else None
        passes = []
        begin = perf_counter()
        while True:
            pass_start = perf_counter()
            use_tracer = tracer if trace and len(passes) % 2 == 1 else None
            passes.append(run_pass(workload, probes, use_tracer, ConvergenceWarning))
            now = perf_counter()
            # Pass 0 warms up; a traced run needs a traced and a timed
            # untraced pass after it.
            enough = len(passes) >= (3 if trace else 2)
            if enough and (now - begin) + (now - pass_start) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    # The first pass pays one-time costs (first-touch page faults of the
    # large arrays, cold CPU caches) that a sweep pays once, so it is
    # checked and counted but not timed.
    passes[0]["warm_up"] = True
    untraced = [p for p in passes[1:] if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["queries"]) + len(p["probes"]) for p in passes)
    failed = sum(o["failed"] for p in passes for o in p["queries"] + p["probes"])
    problems = [
        f"{o['name']}: {reason}"
        for p in passes
        for o in p["queries"]
        if o["wrong"] and not o["signalled"]
        for reason in o["wrong"]
    ]
    if trace:
        metrics, trace_problems = layer_metrics(traced, untraced, setup)
        problems += trace_problems
    else:
        metrics = end_to_end_metrics(untraced, setup, attempted, failed)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "run": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(),
        },
        "setup": setup,
        "rates": {"load": rates.load, "mu": rates.mu, "gamma": rates.gamma},
        "workload_context": workload.context,
        "count_kinds": {
            "computed": tracing.COMPUTED_COUNTS,
            "measured": tracing.MEASURED_COUNTS,
        },
        "queries_per_pass": len(workload.queries),
        "probes_per_pass": len(probes),
        "passes": passes,
        "failure_causes": failure_causes(passes),
        "problems": problems,
        "result": result,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if trace:
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.records():
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({"run": record["run"]}))
    print(f"{len(passes)} passes (the first warms up), {len(workload.queries)} timed queries and "
          f"{len(probes)} probes per pass; query_p50_s over "
          f"{len(workload.queries) * len(untraced)} query times")
    if untraced:
        print(f"raw (unscaled) wall time per pass: median "
              f"{statistics.median(p['wall_s'] for p in untraced):.6g} s; "
              f"speed factor {speed_factor(untraced):.4g}")
    for cause, count in sorted(record["failure_causes"].items()):
        print(f"failed x{count}: {cause}")
    for problem in problems:
        print(f"incorrect: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
