"""Table 5 — FRAppE Lite 5-fold CV at several benign:malicious ratios."""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.config import PAPER
from repro.core.frappe import frappe_lite
from repro.core.pipeline import PipelineResult
from repro.ml.crossval import resampled_counts
from repro.ml.metrics import ClassificationReport

__all__ = ["run", "cv_at_ratios"]

RATIOS = {"1:1": 1.0, "4:1": 4.0, "7:1": 7.0, "10:1": 10.0}
FOLDS = 5


def cv_at_ratios(
    result: PipelineResult,
    ratios: dict[str, float] = RATIOS,
    seed: int = 5,
) -> dict[str, ClassificationReport]:
    """FRAppE Lite CV on D-Complete at each resampled ratio.

    A ratio whose resample holds fewer apps than :data:`FOLDS` cannot
    be cross-validated and is left out of the result.
    """
    records, labels = result.complete_records()
    out: dict[str, ClassificationReport] = {}
    for name, ratio in ratios.items():
        if _resampled_size(labels, ratio) < FOLDS:
            continue
        classifier = frappe_lite(result.extractor)
        capped = _cap_ratio(labels, ratio)
        out[name] = classifier.cross_validate(
            records,
            labels,
            k=FOLDS,
            benign_per_malicious=capped,
            rng=np.random.default_rng(seed),
        )
    return out


def _cap_ratio(labels: list[int], ratio: float) -> float:
    """Never request more benign apps than D-Complete holds."""
    n_malicious = sum(labels)
    n_benign = len(labels) - n_malicious
    if n_malicious == 0:
        return ratio
    return min(ratio, n_benign / n_malicious)


def _resampled_size(labels: list[int], ratio: float) -> int:
    """Apps in D-Complete once resampled to *ratio* (capped).

    Zero when a class is missing: no resample can be drawn at all.
    """
    n_malicious = sum(labels)
    n_benign = len(labels) - n_malicious
    if n_malicious == 0 or n_benign == 0:
        return 0
    return sum(resampled_counts(n_benign, n_malicious, _cap_ratio(labels, ratio)))


def run(result: PipelineResult) -> ExperimentReport:
    report = ExperimentReport(
        "table5", "FRAppE Lite cross-validation vs class ratio"
    )
    measured = cv_at_ratios(result)
    _records, labels = result.complete_records()
    for ratio_name, paper_acc, paper_fp, paper_fn in PAPER.frappe_lite_cv:
        rep = measured.get(ratio_name)
        if rep is None:
            size = _resampled_size(labels, RATIOS[ratio_name])
            cell = f"n/a ({size} apps < {FOLDS} folds)"
        else:
            acc, fp, fn = rep.as_percentages()
            cell = f"acc={acc:.1f}% FP={fp:.1f}% FN={fn:.1f}%"
        report.add(
            f"ratio {ratio_name}",
            f"acc={paper_acc}% FP={paper_fp}% FN={paper_fn}%",
            cell,
        )
    return report
