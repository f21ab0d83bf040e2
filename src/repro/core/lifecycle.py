"""The drift-resilient model lifecycle: detect → retrain → roll out.

This module closes the loop the paper's §7 leaves open.  Hackers adapt
(:mod:`repro.ecosystem.drift` simulates them adapting), so a FRAppE
deployment must notice the adaptation and respond without breaking the
service.  One :func:`run_lifecycle` call plays an entire trajectory:

* every epoch's cohort is scored by the **static** epoch-0 model (the
  paper's frozen classifier — the degradation baseline) and by the
  **online** loop's current champion;
* a :class:`~repro.ml.drift.DriftDetector` watches the champion's view
  of the feature and margin distributions; its reference window is the
  champion's own training epoch and is re-baselined on promotion;
* a drift flag triggers a warm-started sliding-window retrain
  (:class:`~repro.ml.online.SlidingWindowTrainer`); the challenger must
  pass the :class:`~repro.service.rollout.RolloutController`'s held-out
  promotion gate, then survive canary probation on the *next* epochs'
  traffic before it becomes champion;
* an injected bad canary (``inject_bad_canary_epoch``) skips the gate —
  simulating a gate fooled by an unlucky holdout — and must be caught
  by the canary health gate and rolled back automatically.

Labels arrive late: epoch *k* is scored with knowledge accumulated from
epochs ``< k`` (the malicious-name counter the aggregation features
need), and epoch *k*'s operator labels only enter the training window
afterwards.  Everything runs on simulated epoch days; the whole
trajectory is a pure function of ``DriftPlan.seed``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.features import ON_DEMAND_FEATURES, FeatureExtractor
from repro.ecosystem.drift import DriftPlan, EpochData, EpochGenerator
from repro.ml.drift import DriftConfig, DriftDetector, DriftReport
from repro.ml.online import SlidingWindowTrainer
from repro.obs import get_observer
from repro.rng import derive_seed
from repro.service.rollout import (
    ModelRegistry,
    RolloutConfig,
    RolloutController,
)

__all__ = [
    "LifecycleConfig",
    "EpochOutcome",
    "LifecycleResult",
    "BrokenModel",
    "run_lifecycle",
    "run_drift_sweep",
    "write_drift_metrics",
]


class BrokenModel:
    """A wrapper inverting every verdict of the wrapped model.

    The worst model that could leave a training pipeline: confidently
    wrong on everything.  Injected as a canary to prove the health gate
    catches what the promotion gate (here: deliberately skipped) missed.
    """

    def __init__(self, model: Any) -> None:
        self._model = model

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        return -np.asarray(self._model.decision_function(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return 1 - np.asarray(self._model.predict(x))


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the detect → retrain → roll out loop."""

    #: labelled epochs the sliding training window spans
    window_epochs: int = 3
    #: labelled fraction of each epoch held out for the promotion gate
    holdout_fraction: float = 0.3
    #: retrain only when the detector flags ("flag") or every epoch
    #: ("always") — "flag" is the production posture the study measures
    retrain_on: str = "flag"
    #: epoch at which a broken model is injected straight into canary
    #: probation (None = never); used by the rollback chaos scenario
    inject_bad_canary_epoch: int | None = None
    #: detector tuned for epoch-sized windows: the strongest reliable
    #: signal at a few hundred samples is the calibration shift (the
    #: frozen boundary flags fewer apps as hackers adapt), so the
    #: positive-rate gate is tightened; window is "flush per epoch"
    drift: DriftConfig = field(
        default_factory=lambda: DriftConfig(
            window=10_000, positive_rate_delta=0.08
        )
    )
    rollout: RolloutConfig = field(
        default_factory=lambda: RolloutConfig(
            canary_requests=24, min_canary_sample=8
        )
    )
    svm_c: float = 1.0
    svm_kernel: str = "rbf"
    svm_gamma: str | float = "auto"

    def __post_init__(self) -> None:
        if self.retrain_on not in ("flag", "always"):
            raise ValueError("retrain_on must be 'flag' or 'always'")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")


@dataclass
class EpochOutcome:
    """What the lifecycle saw and did during one epoch."""

    epoch: int
    day: int
    intensity: float
    #: adaptation intensity of the detector's reference window (0 until
    #: a promotion re-baselines it); ground truth for the drift flag is
    #: ``intensity != reference_intensity``
    reference_intensity: float
    n_apps: int
    n_labeled: int
    static_accuracy: float
    online_accuracy: float
    drift_flagged: bool
    max_psi: float
    score_psi: float
    retrained: bool
    #: None when no challenger was trained this epoch
    gate_passed: bool | None
    #: "" | "promoted" | "rolled_back" — canary transition this epoch
    transition: str
    champion_version: int
    #: canary still on probation at epoch end (0 = none)
    canary_version: int

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "day": self.day,
            "intensity": round(self.intensity, 6),
            "reference_intensity": round(self.reference_intensity, 6),
            "n_apps": self.n_apps,
            "n_labeled": self.n_labeled,
            "static_accuracy": round(self.static_accuracy, 6),
            "online_accuracy": round(self.online_accuracy, 6),
            "drift_flagged": self.drift_flagged,
            "max_psi": round(self.max_psi, 6),
            "score_psi": round(self.score_psi, 6),
            "retrained": self.retrained,
            "gate_passed": self.gate_passed,
            "transition": self.transition,
            "champion_version": self.champion_version,
            "canary_version": self.canary_version,
        }


@dataclass
class LifecycleResult:
    """One full trajectory, with every decision on the record."""

    plan: DriftPlan
    config: LifecycleConfig
    outcomes: list[EpochOutcome]
    drift_reports: list[DriftReport]
    controller: RolloutController

    @property
    def incidents(self):
        return self.controller.incidents

    @property
    def promotions(self):
        return self.controller.promotions

    def detection_accuracy(self) -> float:
        """Fraction of epochs whose drift flag matched the ground truth.

        Ground truth: an epoch is drifted iff its adaptation intensity
        differs from the detector's reference window's intensity — a
        promotion re-baselines the reference, after which the absorbed
        drift is the new normal and further flags would be false.
        """
        if not self.outcomes:
            return 0.0
        correct = sum(
            1
            for outcome in self.outcomes
            if outcome.drift_flagged
            == (abs(outcome.intensity - outcome.reference_intensity) > 1e-9)
        )
        return correct / len(self.outcomes)

    def mean_accuracy(self, which: str, from_epoch: int = 1) -> float:
        """Mean static/online accuracy over epochs ``>= from_epoch``."""
        values = [
            outcome.static_accuracy if which == "static" else outcome.online_accuracy
            for outcome in self.outcomes
            if outcome.epoch >= from_epoch
        ]
        return float(np.mean(values)) if values else 0.0


def _holdout_split(
    plan: DriftPlan, epoch: int, n: int, fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (train_idx, holdout_idx) split of n labelled rows."""
    rng = np.random.default_rng(
        derive_seed(plan.seed, f"lifecycle-holdout-{epoch:04d}")
    )
    order = rng.permutation(n)
    n_hold = max(1, int(round(n * fraction))) if n > 1 else 0
    return np.sort(order[n_hold:]), np.sort(order[:n_hold])


def _extractor_for(
    epoch_data: EpochData, knowledge: Counter[str]
) -> FeatureExtractor:
    """Epoch-local extractor carrying only *prior* malicious knowledge."""
    return FeatureExtractor(
        epoch_data.services.wot,
        epoch_data.services.post_log,
        malicious_names=Counter(knowledge),
        id_to_name={r.app_id: r.name or "" for r in epoch_data.records},
    )


def run_lifecycle(
    plan: DriftPlan, config: LifecycleConfig | None = None
) -> LifecycleResult:
    """Play one drift trajectory through the full lifecycle loop."""
    config = config or LifecycleConfig()
    generator = EpochGenerator(plan)
    obs = get_observer()

    registry = ModelRegistry()
    trainer = SlidingWindowTrainer(
        window_epochs=config.window_epochs,
        c=config.svm_c,
        kernel=config.svm_kernel,
        gamma=config.svm_gamma,
    )
    knowledge: Counter[str] = Counter()
    outcomes: list[EpochOutcome] = []

    # -- epoch 0: train the first champion, baseline the detector --------
    epoch0 = generator.epoch(0)
    extractor = _extractor_for(epoch0, knowledge)
    x0 = extractor.matrix(epoch0.records)
    y0 = epoch0.labels
    lab_records, lab_y = epoch0.labeled()
    lab_x = x0[epoch0.labeled_mask]
    train_idx, hold_idx = _holdout_split(
        plan, 0, len(lab_y), config.holdout_fraction
    )
    trainer.push(lab_x[train_idx], lab_y[train_idx])
    champion_model = trainer.train()
    holdout_acc = (
        champion_model.accuracy(lab_x[hold_idx], lab_y[hold_idx])
        if len(hold_idx)
        else float("nan")
    )
    registry.register(
        champion_model,
        trained_day=plan.day_of(0),
        holdout_accuracy=holdout_acc,
        note="epoch-0 initial champion",
    )
    controller = RolloutController(registry, 1, config=config.rollout)
    static_model = champion_model

    # The detector watches only the environment-derived (on-demand)
    # columns: the aggregation features shift by construction as the
    # operator's name knowledge grows, which is learning, not drift.
    n_watched = len(ON_DEMAND_FEATURES)
    margins0 = champion_model.decision_function(x0)
    detector = DriftDetector(
        x0[:, :n_watched], margins0, ON_DEMAND_FEATURES, config.drift
    )
    accuracy0 = champion_model.accuracy(x0, y0)
    outcomes.append(
        EpochOutcome(
            epoch=0,
            day=epoch0.day,
            intensity=0.0,
            reference_intensity=0.0,
            n_apps=len(epoch0.records),
            n_labeled=len(lab_y),
            static_accuracy=accuracy0,
            online_accuracy=accuracy0,
            drift_flagged=False,
            max_psi=0.0,
            score_psi=0.0,
            retrained=True,
            gate_passed=None,
            transition="",
            champion_version=1,
            canary_version=0,
        )
    )
    _learn_names(knowledge, lab_records, lab_y)

    # -- epochs 1..n-1: score, detect, respond ---------------------------
    reference_intensity = 0.0
    for epoch in range(1, plan.n_epochs):
        epoch_data = generator.epoch(epoch)
        day = epoch_data.day
        extractor = _extractor_for(epoch_data, knowledge)
        x = extractor.matrix(epoch_data.records)
        y = epoch_data.labels
        # The static baseline is frozen *end to end*: epoch-0 weights
        # AND epoch-0 (empty) name knowledge.  The online loop's
        # features keep learning names even between retrains.
        x_static = _extractor_for(epoch_data, Counter()).matrix(
            epoch_data.records
        )

        champion_model = controller.champion.model
        champion_version = controller.champion.version
        margins = champion_model.decision_function(x)
        champion_pred = (margins >= 0.0).astype(int)
        static_accuracy = static_model.accuracy(x_static, y)
        online_accuracy = float((champion_pred == y).mean())

        # Canary probation rides the epoch's traffic: the canary scores
        # its deterministic slice, the champion shadow-scores the same
        # rows, and the health gate advances row by row.
        transition = ""
        if controller.canary is not None:
            canary_pred = controller.model_for(
                controller.canary.version
            ).predict(x)
            for row, record in enumerate(epoch_data.records):
                if controller.canary is None:
                    break
                version = controller.assign(record.app_id)
                if version != controller.canary.version:
                    continue
                step = controller.record_canary(
                    bool(canary_pred[row]),
                    bool(champion_pred[row]),
                    t=float(day),
                )
                if step != "canary":
                    transition = step
            controller.consume_flush()  # no verdict cache in this loop

        # Feed the detector and evaluate the epoch as one window.
        reports = detector.update(x[:, :n_watched], margins, t=float(day))
        tail = detector.flush(t=float(day))
        if tail is not None:
            reports.append(tail)
        flagged = any(report.drifted for report in reports)
        # The flag is judged against the reference as it stood while
        # this epoch was scored, even if a promotion moves it below.
        epoch_reference = reference_intensity
        max_psi = max((report.max_psi for report in reports), default=0.0)
        score_psi = max((report.score_psi for report in reports), default=0.0)

        # Labels for this epoch arrive after scoring; push the training
        # slice into the window regardless of whether we retrain now.
        lab_records, lab_y = epoch_data.labeled()
        lab_x = x[epoch_data.labeled_mask]
        train_idx, hold_idx = _holdout_split(
            plan, epoch, len(lab_y), config.holdout_fraction
        )
        trainer.push(lab_x[train_idx], lab_y[train_idx])

        retrain = (
            config.retrain_on == "always" or flagged
        ) and controller.canary is None
        gate_passed: bool | None = None
        if retrain and len(hold_idx):
            challenger_model = trainer.train()
            entry = registry.register(
                challenger_model,
                trained_day=day,
                holdout_accuracy=challenger_model.accuracy(
                    lab_x[hold_idx], lab_y[hold_idx]
                ),
                note=f"epoch-{epoch} window retrain"
                + (" (warm start)" if trainer.last_warm_start else ""),
            )
            gate_passed = controller.evaluate_challenger(
                entry.version, lab_x[hold_idx], lab_y[hold_idx]
            )
            if gate_passed:
                controller.start_canary(entry.version, t=float(day))

        if (
            config.inject_bad_canary_epoch == epoch
            and controller.canary is None
        ):
            bad = registry.register(
                BrokenModel(controller.champion.model),
                trained_day=day,
                note="injected bad canary (gate bypassed)",
            )
            controller.start_canary(bad.version, t=float(day))

        # A promotion changes the deployed model: the detector's
        # reference must follow it, or every later window would be
        # compared against a world the champion no longer lives in.
        if transition == "promoted":
            detector.rebaseline(
                x[:, :n_watched],
                controller.champion.model.decision_function(x),
            )
            reference_intensity = epoch_data.intensity

        _learn_names(knowledge, lab_records, lab_y)
        outcome = EpochOutcome(
            epoch=epoch,
            day=day,
            intensity=epoch_data.intensity,
            reference_intensity=epoch_reference,
            n_apps=len(epoch_data.records),
            n_labeled=len(lab_y),
            static_accuracy=static_accuracy,
            online_accuracy=online_accuracy,
            drift_flagged=flagged,
            max_psi=max_psi,
            score_psi=score_psi,
            retrained=bool(retrain and gate_passed is not None),
            gate_passed=gate_passed,
            transition=transition,
            champion_version=controller.champion.version,
            canary_version=(
                controller.canary.version if controller.canary else 0
            ),
        )
        outcomes.append(outcome)
        if obs.enabled:
            obs.event(
                "lifecycle.epoch",
                t=float(day),
                category="lifecycle",
                epoch=epoch,
                intensity=round(epoch_data.intensity, 4),
                static_accuracy=round(static_accuracy, 4),
                online_accuracy=round(online_accuracy, 4),
                drift_flagged=flagged,
                champion=champion_version,
                transition=transition or "none",
            )
            obs.gauge("lifecycle_static_accuracy", static_accuracy)
            obs.gauge("lifecycle_online_accuracy", online_accuracy)

    return LifecycleResult(
        plan=plan,
        config=config,
        outcomes=outcomes,
        drift_reports=list(detector.reports),
        controller=controller,
    )


def _learn_names(
    knowledge: Counter[str], records: list, labels: np.ndarray
) -> None:
    """Fold an epoch's labelled malicious names into the knowledge base."""
    for record, label in zip(records, labels):
        if label and record.name:
            knowledge[record.name] += 1


# -- the sweep ---------------------------------------------------------------


@dataclass
class SweepRow:
    """One drift rate's end-to-end summary."""

    drift_rate: float
    detection_accuracy: float
    static_accuracy: float
    online_accuracy: float
    promotions: int
    rollbacks: int
    result: LifecycleResult

    def as_dict(self) -> dict:
        return {
            "drift_rate": round(self.drift_rate, 6),
            "detection_accuracy": round(self.detection_accuracy, 6),
            "static_accuracy": round(self.static_accuracy, 6),
            "online_accuracy": round(self.online_accuracy, 6),
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
        }


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def table(self) -> str:
        """The deterministic detection-accuracy-vs-drift-rate table."""
        lines = [
            "drift_rate  detect_acc  static_acc  online_acc  promoted  rolled_back",
        ]
        for row in self.rows:
            lines.append(
                f"{row.drift_rate:>10.2f}  "
                f"{row.detection_accuracy:>10.3f}  "
                f"{row.static_accuracy:>10.3f}  "
                f"{row.online_accuracy:>10.3f}  "
                f"{row.promotions:>8d}  "
                f"{row.rollbacks:>11d}"
            )
        return "\n".join(lines)


def run_drift_sweep(
    drift_rates: list[float],
    plan: DriftPlan | None = None,
    config: LifecycleConfig | None = None,
) -> SweepResult:
    """Run one lifecycle per drift rate over otherwise identical plans."""
    base = plan or DriftPlan()
    rows = []
    for rate in drift_rates:
        swept = DriftPlan(
            seed=base.seed,
            n_epochs=base.n_epochs,
            drift_rate=rate,
            epoch_days=base.epoch_days,
            apps_per_epoch=base.apps_per_epoch,
            malicious_fraction=base.malicious_fraction,
            labeled_fraction=base.labeled_fraction,
            posts_per_app=base.posts_per_app,
            n_users=base.n_users,
            scale=base.scale,
        )
        result = run_lifecycle(swept, config)
        rows.append(
            SweepRow(
                drift_rate=rate,
                detection_accuracy=result.detection_accuracy(),
                static_accuracy=result.mean_accuracy("static"),
                online_accuracy=result.mean_accuracy("online"),
                promotions=len(result.promotions),
                rollbacks=len(result.incidents),
                result=result,
            )
        )
    return SweepResult(rows=rows)


def write_drift_metrics(path: str | Path, sweep: SweepResult) -> int:
    """Dump a sweep as JSONL (one row per epoch, window, and rate)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w", encoding="utf-8") as handle:
        for row in sweep.rows:
            for outcome in row.result.outcomes:
                record = {"kind": "epoch", "drift_rate": row.drift_rate}
                record.update(outcome.as_dict())
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                n += 1
            for report in row.result.drift_reports:
                record = {"kind": "window", "drift_rate": row.drift_rate}
                record.update(report.as_dict())
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                n += 1
            summary = {"kind": "summary"}
            summary.update(row.as_dict())
            handle.write(json.dumps(summary, sort_keys=True) + "\n")
            n += 1
    return n
