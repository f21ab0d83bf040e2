"""Cross-validation and class-ratio resampling (Sec 5.1, Table 5).

The paper evaluates with 5-fold cross-validation, repeated at several
benign:malicious ratios obtained by random subsampling of D-Complete.
Folds are stratified so each fold preserves the class ratio.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.ml.metrics import ClassificationReport, confusion_report
from repro.ml.scaling import StandardScaler

__all__ = [
    "stratified_kfold_indices",
    "cross_validate",
    "resampled_counts",
    "subsample_to_ratio",
]


class _Classifier(Protocol):  # pragma: no cover - typing helper
    def fit(self, x: np.ndarray, y: np.ndarray) -> "_Classifier": ...
    def predict(self, x: np.ndarray) -> np.ndarray: ...


def stratified_kfold_indices(
    y: np.ndarray, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Split ``range(len(y))`` into *k* stratified folds.

    Each class's indices are shuffled and dealt round-robin, so every
    fold holds roughly ``1/k`` of each class.
    """
    y = np.asarray(y).ravel()
    if k < 2:
        raise ValueError("need at least 2 folds")
    if len(y) < k:
        raise ValueError(f"cannot make {k} folds from {len(y)} samples")
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in np.unique(y):
        indices = np.flatnonzero(y == label)
        rng.shuffle(indices)
        for position, index in enumerate(indices):
            folds[position % k].append(int(index))
    return [np.sort(np.asarray(fold, dtype=int)) for fold in folds]


def cross_validate(
    model_factory: Callable[[], _Classifier],
    x: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    rng: np.random.Generator | None = None,
    scale: bool = True,
) -> ClassificationReport:
    """k-fold stratified CV; returns the pooled confusion report.

    A fresh model from *model_factory* is trained per fold.  When
    *scale* is set, a :class:`StandardScaler` is fitted on each training
    split only (no leakage) and applied to its test split.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y).astype(int).ravel()
    rng = rng or np.random.default_rng(0)
    folds = stratified_kfold_indices(y, k, rng)
    pooled = ClassificationReport(0, 0, 0, 0)
    for fold in folds:
        test_mask = np.zeros(len(y), dtype=bool)
        test_mask[fold] = True
        x_train, y_train = x[~test_mask], y[~test_mask]
        x_test, y_test = x[test_mask], y[test_mask]
        if scale:
            scaler = StandardScaler().fit(x_train)
            x_train = scaler.transform(x_train)
            x_test = scaler.transform(x_test)
        model = model_factory().fit(x_train, y_train)
        pooled = pooled + confusion_report(y_test, model.predict(x_test))
    return pooled


def resampled_counts(
    n_benign: int, n_malicious: int, benign_per_malicious: float
) -> tuple[int, int]:
    """The (benign, malicious) counts :func:`subsample_to_ratio` keeps.

    Whichever class is the binding constraint is used in full.
    """
    n_kept_malicious = max(
        min(n_malicious, int(n_benign / benign_per_malicious)), 1
    )
    n_kept_benign = min(
        n_benign, int(round(n_kept_malicious * benign_per_malicious))
    )
    return n_kept_benign, n_kept_malicious


def subsample_to_ratio(
    x: np.ndarray,
    y: np.ndarray,
    benign_per_malicious: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Subsample to a benign:malicious ratio (Table 5's 1:1 ... 10:1).

    Keeps as many samples as the ratio allows: whichever class is the
    binding constraint is used in full.
    """
    if benign_per_malicious <= 0:
        raise ValueError("ratio must be positive")
    y = np.asarray(y).astype(int).ravel()
    benign_idx = np.flatnonzero(y == 0)
    malicious_idx = np.flatnonzero(y == 1)
    if len(benign_idx) == 0 or len(malicious_idx) == 0:
        raise ValueError("need both classes to resample")
    n_benign, n_malicious = resampled_counts(
        len(benign_idx), len(malicious_idx), benign_per_malicious
    )
    chosen_benign = rng.choice(benign_idx, size=n_benign, replace=False)
    chosen_malicious = rng.choice(malicious_idx, size=n_malicious, replace=False)
    chosen = np.concatenate([chosen_benign, chosen_malicious])
    rng.shuffle(chosen)
    return np.asarray(x, dtype=float)[chosen], y[chosen]
