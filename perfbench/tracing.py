"""Layer spans recorded from outside the package.

A traced pass replaces each public function listed in ``LAYERS`` at its
module (or class) attribute with a wrapper that records one span per call:
name, start, end, parent span and query id.  The package resolves these
names through the module at call time (``kernels.build_tables(...)``,
``pgf(...)`` inside ``transient``), so nested calls are traced too and no
file under ``src/`` changes.  Spans stay in memory until the run writes
them out.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans of a pass add up to the time the
top-level spans cover; the rest of the traced wall time is the
benchmark's own.
"""

import functools
import inspect
from time import perf_counter

import numpy as np

from poolqueue import cli, inversion, kernels, simulate, transient, waiting


def _triangle(m):
    return (m + 1) * (m + 2) // 2


def _kernel_entries(args, _result):
    # u, v and w are each triangular with rows n = 0..m.
    return {"kernels.entries": 3 * _triangle(args["plan"].m)}


def _level_bytes(args, _result, complex_levels=False):
    # transient._recurse keeps one dense (k+m-n+1) x (k+m+1) level per
    # n = 0..m alive until it returns.
    k, m = args["k"], args["m"]
    rows = sum(k + m - n + 1 for n in range(m + 1))
    complex_levels = complex_levels or np.iscomplexobj(args["gamma"])
    itemsize = 16 if complex_levels else 8
    return {"transient.level_bytes": rows * (k + m + 1) * itemsize}


def _ctmc_states(args, _result):
    k, m = args["k"], args["m"]
    return {"simulate.ctmc_states": (k + m + 1) * (m + 1)}


def _replications(_args, report):
    return {"simulate.replications": report.config.replications}


# (metric prefix, owner object, attribute, count hook or None).  The hook
# sees the bound arguments and the return value of one call.
LAYERS = [
    ("kernels.build_tables", kernels, "build_tables", _kernel_entries),
    ("kernels.v_alpha", kernels.KernelTables, "v_alpha", None),
    ("transient.pgf", transient, "pgf", _level_bytes),
    ("transient.pmf", transient, "pmf", None),
    (
        "transient.joint_transform",
        transient,
        "joint_transform",
        lambda a, r: _level_bytes(a, r, complex_levels=True),
    ),
    ("transient.workload_lst", transient, "workload_lst", None),
    ("waiting.emptiness_probs", waiting, "emptiness_probs", None),
    ("waiting.waiting_mean", waiting, "waiting_mean", None),
    ("waiting.waiting_lst", waiting, "waiting_lst", None),
    ("inversion.pmf_at_time", inversion, "pmf_at_time", None),
    ("simulate.simulate", simulate, "simulate", _replications),
    ("simulate.ctmc_resolvent", simulate, "ctmc_resolvent", _ctmc_states),
    ("simulate.ctmc_at_time", simulate, "ctmc_at_time", _ctmc_states),
    ("cli.run", cli, "run", None),
]

LAYER_NAMES = [name for name, _, _, _ in LAYERS]

# Counts derived from call arguments (array sizes), and counts taken from
# what the layers did; the run record labels each kind.
COMPUTED_COUNTS = ["kernels.entries", "transient.level_bytes", "simulate.ctmc_states"]
MEASURED_COUNTS = ["inversion.transform_evals", "simulate.replications"]

# transient.level_bytes reports the largest single call (the levels that
# are alive at once); the other counts are summed over a pass.
_MAX_COUNTS = {"transient.level_bytes"}


class Tracer:
    """Span recorder for one run; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, query, child_time]
        self.counts = []  # (span index, {count name: value})
        self._stack = []
        self._originals = []
        self.query = None

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn) if hook else None
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, 0.0, 0.0, parent, self.query, 0.0]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += span[2] - span[1]
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.append((index, hook(bound.arguments, result)))
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        for name, owner, attr, hook in LAYERS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def summarize(self, first_span):
        """Per-layer calls, self time and counts for spans[first_span:]."""
        calls = dict.fromkeys(LAYER_NAMES, 0)
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        top_level_s = 0.0
        evals = 0
        for span in self.spans[first_span:]:
            name, start, end, parent, _query, child = span
            calls[name] += 1
            self_s[name] += (end - start) - child
            if parent is None:
                top_level_s += end - start
            elif name == "transient.pmf" and self.spans[parent][0] == "inversion.pmf_at_time":
                evals += 1
        counts = dict.fromkeys(COMPUTED_COUNTS + MEASURED_COUNTS, 0)
        counts["inversion.transform_evals"] = evals
        for index, values in self.counts:
            if index < first_span:
                continue
            for key, value in values.items():
                if key in _MAX_COUNTS:
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        return {
            "calls": calls,
            "self_s": self_s,
            "top_level_s": top_level_s,
            "counts": counts,
            "simulate_s": sum(
                s[2] - s[1] for s in self.spans[first_span:] if s[0] == "simulate.simulate"
            ),
        }

    def records(self):
        """Spans as dicts, for writing out at the end of the run."""
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "query": query,
            }
            for name, start, end, parent, query, _child in self.spans
        ]
