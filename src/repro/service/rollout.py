"""Champion–challenger model rollout with a health-gated canary.

The drift loop (``core/lifecycle``) retrains continuously, but a freshly
trained model must *earn* production traffic.  This module is the
gatekeeper:

* a :class:`ModelRegistry` keeps every model version ever registered
  (the payload is opaque — any object with the classifier interface),
  so rollback is always a pointer move, never a retrain;
* :meth:`RolloutController.evaluate_challenger` is the **promotion
  gate**: the challenger must beat the champion on a held-out window by
  at least ``min_accuracy_gain`` before it is allowed near traffic;
* a promoted challenger first runs as a **canary**: a deterministic
  fraction of requests (hash-split on the app id, no wall clock, no
  RNG shared with anything else) is scored by the canary while the
  champion shadow-scores the same evidence.  Excess disagreement with
  the champion, or an excess positive rate, trips the health gate;
* a tripped gate triggers **automatic rollback**: the champion is
  restored, the incident is recorded on the trace (`rollout.rollback`
  event) and in :attr:`RolloutController.incidents`, and the caller is
  told to flush every cache entry the bad model touched.

Determinism contract: given the same registered models and the same
request stream, every assignment, promotion, and rollback decision is
bit-identical across runs — assignment uses :func:`derive_seed` on the
app id, and all gates compare counters accumulated from the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs import get_observer
from repro.rng import derive_seed

__all__ = [
    "ModelVersion",
    "ModelRegistry",
    "RolloutConfig",
    "RolloutIncident",
    "CanaryStats",
    "RolloutController",
]


@dataclass
class ModelVersion:
    """One immutable registered model and its provenance."""

    version: int
    model: Any
    #: simulated day the model's training window ended
    trained_day: int = 0
    #: held-out accuracy measured at registration time
    holdout_accuracy: float = float("nan")
    note: str = ""


class ModelRegistry:
    """Append-only store of model versions.

    Versions start at 1; version 0 is reserved for "the static model",
    i.e. a service running without any rollout controller attached.
    """

    def __init__(self) -> None:
        self._versions: dict[int, ModelVersion] = {}
        self._next = 1

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, version: int) -> bool:
        return version in self._versions

    def register(
        self,
        model: Any,
        trained_day: int = 0,
        holdout_accuracy: float = float("nan"),
        note: str = "",
    ) -> ModelVersion:
        entry = ModelVersion(
            version=self._next,
            model=model,
            trained_day=trained_day,
            holdout_accuracy=holdout_accuracy,
            note=note,
        )
        self._versions[entry.version] = entry
        self._next += 1
        return entry

    def get(self, version: int) -> ModelVersion:
        try:
            return self._versions[version]
        except KeyError:
            raise KeyError(f"unknown model version {version}") from None

    def versions(self) -> list[int]:
        return sorted(self._versions)


@dataclass(frozen=True)
class RolloutConfig:
    """Gates and knobs of the champion–challenger state machine."""

    #: fraction of traffic the canary scores while on probation
    canary_fraction: float = 0.2
    #: requests the canary must survive before it becomes champion
    canary_requests: int = 50
    #: disagreement rate with the champion's shadow score that trips
    #: the health gate (measured over the probation window so far)
    max_disagreement: float = 0.25
    #: canary positive (malicious) rate in excess of the champion's
    #: shadow rate that is presumed pathological even below the
    #: disagreement gate — a trigger-happy canary on a benign-heavy
    #: stream must not survive probation on agreement alone
    max_positive_excess: float = 0.5
    #: minimum canary verdicts before the health gate can trip (one
    #: early disagreement must not kill an otherwise healthy canary)
    min_canary_sample: int = 10
    #: held-out accuracy edge a challenger needs over the champion
    min_accuracy_gain: float = 0.0
    #: salt for the deterministic traffic split
    assignment_seed: int = 2012

    def __post_init__(self) -> None:
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in (0, 1]")
        if self.canary_requests < 1:
            raise ValueError("canary_requests must be >= 1")
        if self.min_canary_sample < 1:
            raise ValueError("min_canary_sample must be >= 1")


@dataclass
class RolloutIncident:
    """One automatic rollback, kept for the post-mortem."""

    t: float
    canary_version: int
    restored_version: int
    reason: str
    disagreements: int
    canary_scored: int

    def jsonable(self) -> dict:
        """The incident as analytics-store / JSONL-export material."""
        return {
            "t": float(self.t),
            "canary_version": int(self.canary_version),
            "restored_version": int(self.restored_version),
            "reason": str(self.reason),
            "disagreements": int(self.disagreements),
            "canary_scored": int(self.canary_scored),
        }


@dataclass
class CanaryStats:
    """Probation counters for the canary now on trial."""

    version: int
    started_t: float = 0.0
    scored: int = 0
    positives: int = 0
    #: the champion's shadow positives on the same requests
    champion_positives: int = 0
    disagreements: int = 0

    def disagreement_rate(self) -> float:
        return self.disagreements / self.scored if self.scored else 0.0

    def positive_rate(self) -> float:
        return self.positives / self.scored if self.scored else 0.0

    def positive_excess(self) -> float:
        """Canary positive rate minus the champion shadow's."""
        if not self.scored:
            return 0.0
        return (self.positives - self.champion_positives) / self.scored


class RolloutController:
    """The champion–challenger state machine.

    States: *steady* (champion only) → *canary* (champion + canary
    splitting traffic) → back to *steady* by **promotion** (canary
    survived probation) or **rollback** (health gate tripped).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        champion_version: int,
        config: RolloutConfig | None = None,
    ) -> None:
        self.registry = registry
        self.config = config or RolloutConfig()
        self.champion = registry.get(champion_version)
        self.canary: CanaryStats | None = None
        self.incidents: list[RolloutIncident] = []
        self.promotions: list[tuple[float, int]] = []
        #: set by promote/rollback; the service consumes it to flush
        #: stale-model cache entries exactly once per transition
        self._flush_pending = False

    # -- promotion gate ----------------------------------------------------

    def evaluate_challenger(
        self,
        challenger_version: int,
        holdout_x: np.ndarray,
        holdout_y: np.ndarray,
    ) -> bool:
        """Promotion gate: challenger must beat the champion held out.

        Returns True (and starts the canary probation) only when the
        challenger's held-out accuracy exceeds the champion's by at
        least ``min_accuracy_gain``.  A rejected challenger stays in the
        registry but never touches traffic.
        """
        challenger = self.registry.get(challenger_version)
        champion_acc = _accuracy(self.champion.model, holdout_x, holdout_y)
        challenger_acc = _accuracy(challenger.model, holdout_x, holdout_y)
        passed = (
            challenger_acc >= champion_acc + self.config.min_accuracy_gain
        )
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "rollout.gate",
                category="rollout",
                champion=self.champion.version,
                challenger=challenger_version,
                champion_accuracy=round(champion_acc, 6),
                challenger_accuracy=round(challenger_acc, 6),
                passed=passed,
            )
        return passed

    def start_canary(self, version: int, t: float = 0.0) -> None:
        """Put *version* on probation for the canary traffic slice."""
        if self.canary is not None:
            raise RuntimeError(
                f"canary v{self.canary.version} already on probation"
            )
        self.registry.get(version)  # validate
        self.canary = CanaryStats(version=version, started_t=t)

    # -- traffic split -----------------------------------------------------

    def assign(self, app_id: str) -> int:
        """Model version that scores *app_id*'s request right now.

        Deterministic hash split: the same app id lands on the same
        side of the canary fraction for the whole probation, across
        runs and processes.  No RNG stream is consumed.
        """
        if self.canary is None:
            return self.champion.version
        bucket = derive_seed(
            self.config.assignment_seed, f"rollout:{app_id}"
        ) % 10_000
        if bucket < self.config.canary_fraction * 10_000:
            return self.canary.version
        return self.champion.version

    def model_for(self, version: int) -> Any:
        return self.registry.get(version).model

    # -- canary health gate ------------------------------------------------

    def record_canary(
        self,
        verdict: bool | None,
        champion_verdict: bool | None,
        t: float,
    ) -> str:
        """Account one canary-scored request; advance the state machine.

        *champion_verdict* is the champion's shadow score on the same
        evidence.  Returns ``"canary"`` (probation continues),
        ``"promoted"``, or ``"rolled_back"``.
        """
        stats = self.canary
        if stats is None:
            raise RuntimeError("no canary on probation")
        stats.scored += 1
        if verdict:
            stats.positives += 1
        if champion_verdict:
            stats.champion_positives += 1
        if verdict != champion_verdict:
            stats.disagreements += 1

        cfg = self.config
        if stats.scored >= cfg.min_canary_sample and (
            stats.disagreement_rate() >= cfg.max_disagreement
            or stats.positive_excess() >= cfg.max_positive_excess
        ):
            self._rollback(t)
            return "rolled_back"
        if stats.scored >= cfg.canary_requests:
            self._promote(t)
            return "promoted"
        return "canary"

    def _promote(self, t: float) -> None:
        stats = self.canary
        assert stats is not None
        self.champion = self.registry.get(stats.version)
        self.canary = None
        self.promotions.append((t, stats.version))
        self._flush_pending = True
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "rollout.promote",
                t=t,
                category="rollout",
                version=stats.version,
                scored=stats.scored,
                disagreement_rate=round(stats.disagreement_rate(), 6),
            )
            obs.count("rollout_promotions_total")

    def _rollback(self, t: float) -> None:
        stats = self.canary
        assert stats is not None
        if stats.disagreement_rate() >= self.config.max_disagreement:
            reason = (
                f"disagreement {stats.disagreement_rate():.2f} >= "
                f"{self.config.max_disagreement:.2f}"
            )
        else:
            reason = (
                f"positive excess {stats.positive_excess():.2f} >= "
                f"{self.config.max_positive_excess:.2f}"
            )
        incident = RolloutIncident(
            t=t,
            canary_version=stats.version,
            restored_version=self.champion.version,
            reason=reason,
            disagreements=stats.disagreements,
            canary_scored=stats.scored,
        )
        self.incidents.append(incident)
        self.canary = None
        self._flush_pending = True
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "rollout.rollback",
                t=t,
                category="rollout",
                canary=incident.canary_version,
                restored=incident.restored_version,
                reason=incident.reason,
                scored=incident.canary_scored,
            )
            obs.count("rollout_rollbacks_total")

    # -- cache-coherence handshake ----------------------------------------

    def consume_flush(self) -> bool:
        """True exactly once after each promotion/rollback transition."""
        pending = self._flush_pending
        self._flush_pending = False
        return pending

    def snapshot(self) -> dict:
        return {
            "champion": self.champion.version,
            "canary": self.canary.version if self.canary else 0,
            "registered": len(self.registry),
            "promotions": len(self.promotions),
            "rollbacks": len(self.incidents),
        }


def _accuracy(model: Any, x: np.ndarray, y: np.ndarray) -> float:
    """Held-out accuracy of *model* (anything with ``predict``)."""
    if len(y) == 0:
        return 0.0
    predicted = np.asarray(model.predict(x))
    return float(np.mean(predicted == np.asarray(y)))
