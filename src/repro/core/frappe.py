"""The FRAppE classifiers (Secs 5.1, 5.2, 7).

All variants are the same machine — an RBF SVM with libsvm-default
parameters (C = 1) over standardised features — differing only in which
feature group they consume:

* :func:`frappe_lite` — on-demand features only (Table 4),
* :func:`frappe` — on-demand + aggregation-based features (Table 7),
* :func:`frappe_robust` — only the features Sec 7 argues hackers cannot
  cheaply obfuscate,
* ``FrappeClassifier(extractor, features=("has_description",))`` — the
  single-feature classifiers of Table 6.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import (
    ALL_FEATURES,
    ON_DEMAND_FEATURES,
    ROBUST_FEATURES,
    TIER_FEATURES,
    FeatureExtractor,
    classification_tier,
)
from repro.crawler.crawler import CrawlRecord
from repro.ml.crossval import cross_validate, subsample_to_ratio
from repro.ml.metrics import ClassificationReport
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVC

__all__ = [
    "FrappeClassifier",
    "FrappeCascade",
    "frappe_lite",
    "frappe",
    "frappe_robust",
]


class FrappeClassifier:
    """SVM over a configurable feature group."""

    def __init__(
        self,
        extractor: FeatureExtractor,
        features: tuple[str, ...] = ALL_FEATURES,
        c: float = 1.0,
        kernel: str = "rbf",
        gamma: str | float = "auto",
    ) -> None:
        if not features:
            raise ValueError("need at least one feature")
        self.features = tuple(features)
        self._extractor = extractor
        self._svm_params = {"c": c, "kernel": kernel, "gamma": gamma}
        self._scaler: StandardScaler | None = None
        self._svm: SVC | None = None

    def _matrix(self, records: list[CrawlRecord]) -> np.ndarray:
        return self._extractor.matrix(records, self.features)

    # -- training / inference ----------------------------------------------

    def fit(
        self,
        records: list[CrawlRecord],
        labels: np.ndarray | list[int],
        init_alphas: np.ndarray | None = None,
    ) -> "FrappeClassifier":
        """Fit; ``init_alphas`` warm-starts SMO from a previous model's
        dual vector (aligned with ``records``; ``None`` is the exact
        historical cold-start path)."""
        x = self._matrix(records)
        y = np.asarray(labels).astype(int)
        self._scaler = StandardScaler().fit(x)
        self._svm = SVC(**self._svm_params).fit(
            self._scaler.transform(x), y, init_alphas=init_alphas
        )
        return self

    @property
    def svm(self) -> SVC:
        """The fitted SVM (exposes ``alphas_`` for warm-started retrains)."""
        if self._svm is None:
            raise RuntimeError("classifier is not fitted")
        return self._svm

    def predict(self, records: list[CrawlRecord]) -> np.ndarray:
        if self._svm is None or self._scaler is None:
            raise RuntimeError("classifier is not fitted")
        x = self._scaler.transform(self._matrix(records))
        return self._svm.predict(x)

    def predict_one(self, record: CrawlRecord) -> bool:
        """Evaluate a single app — the FRAppE Lite on-demand use case."""
        return bool(self.predict([record])[0])

    def decision_function(self, records: list[CrawlRecord]) -> np.ndarray:
        if self._svm is None or self._scaler is None:
            raise RuntimeError("classifier is not fitted")
        return self._svm.decision_function(
            self._scaler.transform(self._matrix(records))
        )

    def margins_from_raw(self, x_raw: np.ndarray) -> np.ndarray:
        """Decision margins over an already extracted (unscaled) matrix.

        The batched service extracts one ``ALL_FEATURES`` matrix per
        tick and hands each tier model its row/column slice; scaling
        and the support-vector Gram happen here exactly as in
        :meth:`decision_function`, so the margins are bit-identical to
        extracting this model's features directly (the column builders
        are per-record functions, making any slice of the shared matrix
        equal to a direct extraction).
        """
        if self._svm is None or self._scaler is None:
            raise RuntimeError("classifier is not fitted")
        return self._svm.decision_function(self._scaler.transform(x_raw))

    # -- evaluation ------------------------------------------------------------

    def cross_validate(
        self,
        records: list[CrawlRecord],
        labels: np.ndarray | list[int],
        k: int = 5,
        benign_per_malicious: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> ClassificationReport:
        """Stratified k-fold CV, optionally resampled to a class ratio.

        This is the paper's Table 5 protocol: subsample D-Complete to a
        benign:malicious ratio, then 5-fold cross-validate.
        """
        rng = rng or np.random.default_rng(5)
        x = self._matrix(records)
        y = np.asarray(labels).astype(int)
        if benign_per_malicious is not None:
            x, y = subsample_to_ratio(x, y, benign_per_malicious, rng)
        return cross_validate(
            lambda: SVC(**self._svm_params), x, y, k=k, rng=rng
        )


class FrappeCascade:
    """FRAppE with graceful degradation over partially failed crawls.

    Holds one :class:`FrappeClassifier` per tier — full FRAppE, FRAppE
    Lite, and a summary-only last resort — all trained on the same
    labelled records, and routes each record to the best tier its crawl
    outcomes support (:func:`~repro.core.features.classification_tier`).
    Records whose summary crawl gave up transiently carry no trustworthy
    evidence at all; the cascade declines to condemn them (prediction 0,
    tier ``"none"``) and lets the caller surface the missing confidence.

    On records with no transient failures the cascade is exactly the
    full FRAppE classifier, so it is a drop-in replacement under a
    fault-free transport.
    """

    def __init__(self, extractor: FeatureExtractor, **svm_params) -> None:
        self._extractor = extractor
        self._models = {
            tier: FrappeClassifier(extractor, features, **svm_params)
            for tier, features in TIER_FEATURES.items()
        }

    @property
    def full(self) -> FrappeClassifier:
        """The all-features FRAppE model (the fault-free behaviour)."""
        return self._models["frappe"]

    def model(self, tier: str) -> FrappeClassifier:
        return self._models[tier]

    def fit(
        self, records: list[CrawlRecord], labels: np.ndarray | list[int]
    ) -> "FrappeCascade":
        for model in self._models.values():
            model.fit(records, labels)
        return self

    def tier_of(self, record: CrawlRecord) -> str:
        return classification_tier(record)

    def _tier_groups(
        self, records: list[CrawlRecord]
    ) -> dict[str, tuple[list[int], list[CrawlRecord]]]:
        """``tier -> (indices, sub-list)`` in first-seen tier order.

        Shared by :meth:`predict` and :meth:`score_batch`, so the tier
        of each record is computed once per batch and each tier's
        sub-list is allocated once, not once per consumer.
        """
        by_tier: dict[str, tuple[list[int], list[CrawlRecord]]] = {}
        for index, record in enumerate(records):
            tier = self.tier_of(record)
            group = by_tier.get(tier)
            if group is None:
                group = by_tier[tier] = ([], [])
            group[0].append(index)
            group[1].append(record)
        return by_tier

    def predict(self, records: list[CrawlRecord]) -> np.ndarray:
        """Per-record predictions, each routed through its tier's model."""
        predictions = np.zeros(len(records), dtype=int)
        for tier, (indices, subrecords) in self._tier_groups(records).items():
            if tier == "none":
                continue  # no trustworthy evidence: leave the 0
            predictions[indices] = self._models[tier].predict(subrecords)
        return predictions

    def predict_one(self, record: CrawlRecord) -> bool:
        return bool(self.predict([record])[0])

    def decision_function_one(self, record: CrawlRecord) -> tuple[float, str]:
        """(SVM margin, tier) for one record; margin 0 for tier ``none``."""
        tier = self.tier_of(record)
        if tier == "none":
            return 0.0, tier
        margin = float(self._models[tier].decision_function([record])[0])
        return margin, tier

    def score_batch(
        self, records: list[CrawlRecord]
    ) -> list[tuple[int, float, str]]:
        """(prediction, margin, tier) per record, one model pass per tier.

        Routes records exactly like :meth:`score_record` — same tier
        choice, same ``margin >= 0`` rule — but amortises the cost:
        one feature extraction over the whole batch (every tier's
        feature tuple is a prefix of ``ALL_FEATURES``, so a tier model
        scores a row/column slice of the shared matrix), one scaler
        transform and one support-vector Gram per *tier group*.  The
        column builders are per-record functions, so the slice holds
        the very same floats a direct per-tier extraction would — on a
        single record this reduces to the same arithmetic as
        :meth:`score_record`, and the two are bit-identical at batch
        size 1.
        """
        results: list[tuple[int, float, str]] = [(0, 0.0, "none")] * len(records)
        groups = [
            (self._models[tier], indices, subrecords, tier)
            for tier, (indices, subrecords) in self._tier_groups(records).items()
            if tier != "none"
        ]
        matrix = self._extractor.matrix(
            [record for _, _, subrecords, _ in groups for record in subrecords],
            ALL_FEATURES,
        )
        offset = 0
        for model, indices, _, tier in groups:
            rows = matrix[offset : offset + len(indices), : len(model.features)]
            offset += len(indices)
            margins = model.margins_from_raw(rows)
            for index, margin in zip(indices, margins):
                value = float(margin)
                results[index] = (int(value >= 0.0), value, tier)
        return results

    def score_record(self, record: CrawlRecord) -> tuple[int, float, str]:
        """(prediction, margin, tier) for one record, in one pass.

        The prediction is derived from the margin with the same
        ``margin >= 0`` rule :meth:`FrappeClassifier.predict` applies,
        so it is bit-identical to ``predict([record])[0]`` — the online
        service leans on that equivalence for its fault-free contract.
        Tier ``none`` declines to condemn: prediction 0, margin 0.
        """
        margin, tier = self.decision_function_one(record)
        if tier == "none":
            return 0, 0.0, tier
        return int(margin >= 0.0), margin, tier


def frappe_lite(extractor: FeatureExtractor, **svm_params) -> FrappeClassifier:
    """FRAppE Lite: the on-demand-features-only variant (Sec 5.1)."""
    return FrappeClassifier(extractor, ON_DEMAND_FEATURES, **svm_params)


def frappe(extractor: FeatureExtractor, **svm_params) -> FrappeClassifier:
    """Full FRAppE: on-demand + aggregation features (Sec 5.2)."""
    return FrappeClassifier(extractor, ALL_FEATURES, **svm_params)


def frappe_robust(extractor: FeatureExtractor, **svm_params) -> FrappeClassifier:
    """The robust-features-only variant discussed in Sec 7."""
    return FrappeClassifier(extractor, ROBUST_FEATURES, **svm_params)
