"""Smoke tests of the benchmark itself, at a tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import Sizes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = Sizes(
    # Some worlds at 0.02 are too small for Table 5's CV; seed 5's is not.
    study_scale=0.02,
    serve_scale=0.01,
    serve_cycles=2,
    serve_steady_requests=40,
    serve_burst_requests=40,
    monitor_scale=0.01,
    monitor_epochs=2,
)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_match_the_spec(workload: str, trace: bool) -> None:
    result, info = run.measure(workload, seed=5, seconds=0, trace=trace,
                               sizes=TINY, inputs=1)
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
    assert info["nproc"] >= 1 and len(info["loadavg_start"]) == 3
    json.dumps(result)


def test_traced_monitor_collects_forked_workers() -> None:
    # Observations are appended only inside the forked epoch workers.
    result, _ = run.measure("monitor", seed=5, seconds=0, trace=True,
                            sizes=TINY, inputs=1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["crawler.append_calls"] > 0
    assert values["crawler.append_s"] > 0
    assert values["crawler.epoch_s"] > 0


def test_spec_is_well_formed() -> None:
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
