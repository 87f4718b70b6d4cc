"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

They run one traced pass of each workload per seed, about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from poolqueue import kernels  # noqa: E402
from poolqueue.errors import ConvergenceWarning  # noqa: E402


def traced_pass(name, seed, tmp_path):
    workload = workloads.build(name, workloads.draw_rates(seed), str(tmp_path))
    return run.run_pass(workload, [], tracing.Tracer(), ConvergenceWarning)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_exactly(name, tmp_path):
    first = traced_pass(name, 3, tmp_path)
    again = traced_pass(name, 3, tmp_path)
    other_seed = traced_pass(name, 4, tmp_path)
    # Same seed: every call count, exact count and outcome repeats.
    assert again["trace"]["calls"] == first["trace"]["calls"]
    assert again["trace"]["counts"] == first["trace"]["counts"]
    assert [q["failed"] for q in again["queries"]] == [q["failed"] for q in first["queries"]]
    # The seed draws rates only, so the amount of work does not move either.
    assert other_seed["trace"]["calls"] == first["trace"]["calls"]
    assert other_seed["trace"]["counts"] == first["trace"]["counts"]
    # Layer self times add up to the top-level spans, inside the wall time.
    summary = first["trace"]
    assert sum(summary["self_s"].values()) == pytest.approx(summary["top_level_s"], abs=1e-6)
    assert summary["top_level_s"] <= first["wall_s"]
    assert not hasattr(kernels.build_tables, "__wrapped__")
    # The metrics a run reports are exactly those BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = {f"setup.{part}_s": 0.1 for part in ("numpy", "scipy_special", "yaml", "poolqueue")}
    layer, problems = run.layer_metrics([first], [again], setup)
    assert not problems
    assert list(layer) == [m["name"] for m in declared["per_layer"]]
    end_to_end = run.end_to_end_metrics([first], {"setup_s": 0.5}, 1, 0)
    assert sorted(end_to_end) == sorted(m["name"] for m in declared["end_to_end"])


def test_speed_factor_weighs_every_probe_part_equally():
    reference = [calibration.REFERENCE_S[part] for part in calibration.PARTS]
    assert calibration.speed_factor([reference] * 3) == pytest.approx(1.0)
    # One part of four twice as slow: the mean slowdown is 1.25.
    slow_first = [2 * reference[0]] + reference[1:]
    assert calibration.speed_factor([slow_first, slow_first, reference]) == pytest.approx(0.8)
    assert len(calibration.probe()) == len(calibration.PARTS)


def test_import_breakdown_sums_to_the_import():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1000 |      80000 |       numpy",
            "import time:       500 |       9000 |             scipy",
            "import time:       600 |     180000 |           scipy.special",
            "import time:       450 |     290000 |   poolqueue",
            "import time:       500 |      10000 |   yaml",
            "import time:      5000 |     305000 | poolqueue.cli",
        ]
    )
    parts = run.import_breakdown(stderr)
    assert parts["setup.numpy_s"] == pytest.approx(0.08)
    assert parts["setup.scipy_special_s"] == pytest.approx(0.18)
    assert parts["setup.yaml_s"] == pytest.approx(0.01)
    assert sum(parts.values()) == pytest.approx(0.305)


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "large-pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
    assert not (tmp_path / HERE.name / "out").exists()
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == [HERE.name]
