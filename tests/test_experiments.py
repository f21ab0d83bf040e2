"""Tests that every experiment module runs and reports sane values.

These exercise the tables/figures machinery on the shared small world;
the benchmark suite compares the actual numbers at a larger scale.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import (
    fig01_15,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig16,
    sec3,
    sec52,
    sec61,
    sec7,
    table1,
    table2,
    table3,
    table5,
    table6,
    table8,
    table9,
)
from repro.analysis.report import ExperimentReport

_SIMPLE_MODULES = [
    table1, table2, table3, table5, table6, table8, table9,
    fig03, fig04, fig05, fig06, fig07, fig08, fig09,
    fig10, fig11, fig12, fig16, sec3, sec52, sec7,
]
_COLLUSION_MODULES = [fig01_15, fig13, fig14, sec61]


@pytest.mark.parametrize(
    "module", _SIMPLE_MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_simple_experiment_runs(module, pipeline_result):
    report = module.run(pipeline_result)
    assert isinstance(report, ExperimentReport)
    assert report.rows
    assert report.render()


@pytest.mark.parametrize(
    "module", _COLLUSION_MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_collusion_experiment_runs(module, pipeline_result, collusion):
    report = module.run(pipeline_result, collusion)
    assert isinstance(report, ExperimentReport)
    assert report.rows


class TestExperimentSemantics:
    def test_fig05_separation(self, pipeline_result):
        fractions = fig05.field_fractions(pipeline_result)
        assert fractions["benign"]["description"] > 0.7
        assert fractions["malicious"]["description"] < 0.2

    def test_fig07_permission_gap(self, pipeline_result):
        counts = fig07.permission_counts(pipeline_result)
        malicious_single = sum(1 for c in counts["malicious"] if c == 1)
        assert malicious_single >= 0.85 * max(len(counts["malicious"]), 1)

    def test_fig12_external_gap(self, pipeline_result):
        ratios = fig12.external_ratios(pipeline_result)
        import numpy as np
        assert np.mean(ratios["malicious"]) > np.mean(ratios["benign"]) + 0.2

    def test_table2_ranked_by_volume(self, pipeline_result):
        top = table2.top_malicious_apps(pipeline_result, n=5)
        counts = [count for _id, _name, count in top]
        assert counts == sorted(counts, reverse=True)

    def test_table9_finds_piggybacked(self, pipeline_result):
        found = {a for a, *_ in table9.piggybacked_apps(pipeline_result)}
        targets = pipeline_result.world.piggybacked_ids()
        assert found & targets

    def test_table5_too_small_resample_renders_na(self, pipeline_result):
        # One malicious and three benign apps: every ratio resamples to
        # fewer apps than Table 5 has folds.
        records, labels = pipeline_result.complete_records()
        malicious = [r for r, y in zip(records, labels) if y][:1]
        benign = [r for r, y in zip(records, labels) if not y][:3]
        tiny = SimpleNamespace(
            extractor=pipeline_result.extractor,
            complete_records=lambda: (malicious + benign, [1, 0, 0, 0]),
        )
        measured = table5.run(tiny).measured_by_metric()
        assert measured["ratio 1:1"] == "n/a (2 apps < 5 folds)"
        for ratio in ("4:1", "7:1", "10:1"):
            assert measured[f"ratio {ratio}"] == "n/a (4 apps < 5 folds)"

    def test_fig03_clicks_nonnegative(self, pipeline_result):
        totals = fig03.clicks_per_malicious_app(pipeline_result)
        assert totals
        assert all(v >= 0 for v in totals.values())

    def test_fig13_roles_sum(self, pipeline_result, collusion):
        report = fig13.run(pipeline_result, collusion)
        measured = report.measured_by_metric()
        total = int(measured["colluding apps"])
        assert total == len(collusion.graph)


def test_table3_renders_identically_under_two_hash_seeds():
    """Table 3 ranks equal counts by domain, not by set iteration order.

    At scale 0.05, seed 2012, two domains host five malicious apps each;
    ranking them by the iteration order of the D-Inst malicious set
    swapped rows #3 and #4 between hash seeds 0 and 2.
    """
    script = (
        "from repro.config import ScaleConfig\n"
        "from repro.core.pipeline import FrappePipeline\n"
        "from repro.experiments import table3\n"
        "result = FrappePipeline(ScaleConfig(scale=0.05, master_seed=2012))"
        ".run(sweep_unlabelled=False)\n"
        "print(table3.run(result).render())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "2")
    ]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert "#5" in outputs[0]
    assert outputs[0] == outputs[1]
