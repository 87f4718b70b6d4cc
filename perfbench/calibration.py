"""Machine-speed probe that puts query times on a steady scale.

The benchmark runs on shared virtual machines whose speed drifts: the same
query can take 1.5 times as long a few seconds later, and slow and fast
stretches last from a second to minutes.  Medians over one run cannot take
out drift that lasts longer than the run.  So the benchmark runs a fixed
probe before the first query of a pass and after every query, outside the
timed regions, and scales the run's timings by how much slower than on the
reference machine the probe ran over the run.

The probe never calls the package, so a change to the package moves the
scaled times exactly as it moves the raw ones.  It has four parts, one for
each kind of work the package's hot paths do:

* ``python``: an interpreted loop of scalar complex arithmetic;
* ``short_vectors``: numpy operations on short complex vectors;
* ``dense_rows``: shifted slice updates of a dense 2-D array, like the
  coefficient recursion's;
* ``streaming``: elementwise passes over arrays larger than the cache,
  like the simulator's.

Each part's slowdown is its median time over the run divided by its
reference time, and the run's slowdown is the mean of the four, so each
kind of work weighs the same whatever its length:

    scaled = seconds / mean over parts(median part time / REFERENCE_S[part])

Medians over the whole run are steadier than scaling each query by the
probes next to it: one short probe is itself noisy.  Raw times stay in the
run record next to the scale factor.
"""

import statistics
from time import perf_counter

import numpy as np

PARTS = ("python", "short_vectors", "dense_rows", "streaming")

# Median part times on the reference machine (2-vCPU Intel Xeon VM at
# 2.1 GHz, Python 3.11, numpy 2.4), so scaled and raw times are close there.
REFERENCE_S = {
    "python": 0.0020,
    "short_vectors": 0.0028,
    "dense_rows": 0.0035,
    "streaming": 0.0037,
}

_rng = np.random.default_rng(20_241_006)
_SHORT = _rng.standard_normal(48) + 1j * _rng.standard_normal(48)
_DENSE = _rng.standard_normal((160, 161))
_BIG = _rng.standard_normal(1_000_000)
_BIG_OUT = np.empty_like(_BIG)


def probe():
    """Seconds each part of the fixed probe work takes now, in PARTS order."""
    times = []
    start = perf_counter()
    z, acc = 0.3 + 0.1j, 0j
    for i in range(12000):
        acc = acc * z + (i % 7) / (1.0 + i)
    times.append(perf_counter() - start)

    start = perf_counter()
    x = _SHORT.copy()
    for i in range(400):
        x = x * _SHORT[i % 48] + x[::-1] * 0.25
        x /= np.abs(x).max()
    times.append(perf_counter() - start)

    start = perf_counter()
    dense = _DENSE.copy()
    for _ in range(200):
        dense[1:] += 0.001 * dense[:-1]
    times.append(perf_counter() - start)

    start = perf_counter()
    for _ in range(2):
        np.multiply(_BIG, 1.0001, out=_BIG_OUT)
        np.add(_BIG_OUT, _BIG, out=_BIG_OUT)
    times.append(perf_counter() - start)
    return times


def speed_factor(samples):
    """Factor that turns a run's times into reference-machine times.

    samples holds every probe() result of the run.
    """
    slowdown = statistics.fmean(
        statistics.median(s[i] for s in samples) / REFERENCE_S[part]
        for i, part in enumerate(PARTS)
    )
    return 1.0 / slowdown
