"""A C-SVC trained with Platt's Sequential Minimal Optimization.

The paper uses libsvm with default parameters (RBF kernel, C = 1).  This
implementation follows Platt's original SMO with the standard two-level
working-set heuristics and a full error cache; the kernel matrix is
precomputed, which is exact and fast for the dataset sizes involved
(thousands of apps).

Labels are 0/1 (1 = malicious, matching :mod:`repro.ml.metrics`).
"""

from __future__ import annotations

import numpy as np

from repro.ml.kernels import polynomial_kernel, rbf_kernel, linear_kernel
from repro.obs.observer import get_observer

__all__ = ["SVC", "project_feasible_alphas"]


class SVC:
    """Support-vector classifier (binary, labels in {0, 1}).

    Parameters mirror libsvm: ``C`` (soft margin), ``kernel`` in
    {'rbf', 'linear', 'poly'}, ``gamma`` ('auto' = 1/n_features,
    'scale' = 1/(n_features * var(X)), or a float), ``coef0`` and
    ``degree`` for the polynomial kernel, ``tol`` for the KKT tolerance.
    """

    def __init__(
        self,
        c: float = 1.0,
        kernel: str = "rbf",
        gamma: str | float = "auto",
        coef0: float = 0.0,
        degree: int = 3,
        tol: float = 1e-3,
        max_passes: int = 200,
    ) -> None:
        if c <= 0:
            raise ValueError("C must be positive")
        if kernel not in ("rbf", "linear", "poly"):
            raise ValueError(f"unknown kernel: {kernel!r}")
        self.c = float(c)
        self.kernel = kernel
        self.gamma = gamma
        self.coef0 = float(coef0)
        self.degree = int(degree)
        self.tol = float(tol)
        self.max_passes = int(max_passes)
        # fitted state
        self._gamma_value: float = 1.0
        self._support_x: np.ndarray | None = None
        self._support_coef: np.ndarray | None = None  # alpha_i * y_i
        #: squared row norms of the support vectors, computed once at
        #: fit time so the RBF Gram of every decision_function call
        #: reuses them (bit-identical to recomputing per call)
        self._support_sq: np.ndarray | None = None
        self._bias: float = 0.0
        self._constant_label: int | None = None
        self.n_iterations_: int = 0
        #: full dual vector aligned with the training rows (None before
        #: fit and for the degenerate single-class case) — the handle a
        #: warm-started retrain passes back in as ``init_alphas``.
        self.alphas_: np.ndarray | None = None

    # -- kernel helpers -----------------------------------------------------

    def _resolve_gamma(self, x: np.ndarray) -> float:
        if isinstance(self.gamma, (int, float)):
            return float(self.gamma)
        n_features = x.shape[1]
        if self.gamma == "auto":
            return 1.0 / max(n_features, 1)
        if self.gamma == "scale":
            var = float(x.var())
            return 1.0 / (max(n_features, 1) * var) if var > 0 else 1.0
        raise ValueError(f"unknown gamma spec: {self.gamma!r}")

    def _gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return linear_kernel(x, y)
        if self.kernel == "rbf":
            return rbf_kernel(x, y, gamma=self._gamma_value)
        return polynomial_kernel(
            x, y, gamma=self._gamma_value, coef0=self.coef0, degree=self.degree
        )

    # -- training ---------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        init_alphas: np.ndarray | None = None,
        init_bias: float = 0.0,
    ) -> "SVC":
        """Fit by SMO; ``init_alphas`` warm-starts the dual solve.

        ``init_alphas=None`` is the exact historical code path.  A
        warm start seeds the solver with a previous model's dual vector
        (aligned with the rows of ``x``; new samples get 0) — the
        problem is a convex QP, so the optimum reached is the same one
        a cold start converges to, just from a closer starting point.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y).astype(int).ravel()
        if x.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(x) != len(y):
            raise ValueError("X and y length mismatch")
        if len(x) == 0:
            raise ValueError("cannot fit on zero samples")
        if init_alphas is not None and len(init_alphas) != len(x):
            raise ValueError("init_alphas length must match X")
        labels = np.unique(y)
        if not np.all(np.isin(labels, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        if len(labels) == 1:
            # Degenerate single-class training set: predict the constant.
            self._constant_label = int(labels[0])
            self._support_x = None
            self._support_sq = None
            self.alphas_ = None
            return self
        self._constant_label = None
        self._gamma_value = self._resolve_gamma(x)

        signs = np.where(y == 1, 1.0, -1.0)
        obs = get_observer()
        # Training has no simulated clock; span/event times are the
        # SMO outer-iteration index (0 at open, n_iterations at close).
        with obs.span(
            "svm.fit",
            category="train",
            t=0.0,
            kernel=self.kernel,
            n_samples=len(x),
        ) as span, obs.profile("train"):
            kernel_matrix = self._gram(x, x)
            alphas, bias, iterations = _smo(
                kernel_matrix,
                signs,
                self.c,
                self.tol,
                self.max_passes,
                init_alphas=init_alphas,
                init_bias=init_bias,
            )
            self.n_iterations_ = iterations
            self.alphas_ = alphas
            support = alphas > 1e-12
            self._support_x = x[support]
            self._support_coef = (alphas * signs)[support]
            self._support_sq = np.sum(self._support_x * self._support_x, axis=1)
            self._bias = bias
            if obs.enabled:
                span.end(float(iterations))
                span.note(
                    n_iterations=int(iterations),
                    n_support=int(self.n_support_),
                )
                obs.count("svm_fits_total", kernel=self.kernel)
                obs.observe(
                    "svm_fit_iterations",
                    float(iterations),
                    edges=(5.0, 10.0, 25.0, 50.0, 100.0, 200.0),
                )
        return self

    @property
    def n_support_(self) -> int:
        return 0 if self._support_x is None else len(self._support_x)

    # -- inference ----------------------------------------------------------

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._constant_label is not None:
            return np.full(len(x), 1.0 if self._constant_label == 1 else -1.0)
        if self._support_x is None or self._support_coef is None:
            raise RuntimeError("classifier is not fitted")
        if self.n_support_ == 0:
            return np.full(len(x), self._bias)
        if self.kernel == "rbf":
            gram = rbf_kernel(
                x,
                self._support_x,
                gamma=self._gamma_value,
                y_sq=self._support_sq,
            )
        else:
            gram = self._gram(x, self._support_x)
        return gram @ self._support_coef + self._bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.decision_function(x) >= 0.0).astype(int)


def project_feasible_alphas(
    init_alphas: np.ndarray, signs: np.ndarray, c: float
) -> np.ndarray:
    """Project a warm-start dual vector onto SMO's feasible set.

    Every SMO step preserves ``sum(alpha_i * y_i)`` exactly, so a seed
    that violates the equality constraint would confine the solver to
    the wrong affine slice forever.  Clip to the box [0, C], then scale
    down whichever class carries the excess mass until the constraint
    holds — scaling down never leaves the box.
    """
    alphas = np.clip(np.asarray(init_alphas, dtype=float), 0.0, c)
    gap = float(alphas @ signs)
    if gap > 0.0:
        positive = signs > 0
        mass = float(alphas[positive].sum())
        alphas[positive] *= 0.0 if mass <= gap else (mass - gap) / mass
    elif gap < 0.0:
        negative = signs < 0
        mass = float(alphas[negative].sum())
        alphas[negative] *= 0.0 if mass <= -gap else (mass + gap) / mass
    return alphas


def _smo(
    kernel_matrix: np.ndarray,
    signs: np.ndarray,
    c: float,
    tol: float,
    max_passes: int,
    init_alphas: np.ndarray | None = None,
    init_bias: float = 0.0,
) -> tuple[np.ndarray, float, int]:
    """Platt SMO over a precomputed Gram matrix.

    Returns ``(alphas, bias, outer_iterations)``.  ``signs`` holds the
    +/-1 labels.  The loop keeps no cache beyond Platt's error cache:
    caching ``alphas * signs``, the non-bound mask or the fallback
    scan's offset leaves every fit bit-for-bit the same and saves under
    1% of a study.
    """
    n = len(signs)
    eps = 1e-12
    if init_alphas is None:
        alphas = np.zeros(n)
        bias = 0.0
        # Error cache: E_i = f(x_i) - y_i; with alphas = 0, f = 0.
        errors = -signs.copy()
    else:
        alphas = project_feasible_alphas(init_alphas, signs, c)
        bias = float(init_bias)
        errors = kernel_matrix @ (alphas * signs) + bias - signs

    def _non_bound() -> np.ndarray:
        return np.flatnonzero((alphas > eps) & (alphas < c - eps))

    def take_step(i1: int, i2: int) -> bool:
        nonlocal bias
        if i1 == i2:
            return False
        alpha1, alpha2 = alphas[i1], alphas[i2]
        y1, y2 = signs[i1], signs[i2]
        e1, e2 = errors[i1], errors[i2]
        s = y1 * y2
        if s > 0:
            low, high = max(0.0, alpha1 + alpha2 - c), min(c, alpha1 + alpha2)
        else:
            low, high = max(0.0, alpha2 - alpha1), min(c, c + alpha2 - alpha1)
        if high - low < eps:
            return False
        k11 = kernel_matrix[i1, i1]
        k12 = kernel_matrix[i1, i2]
        k22 = kernel_matrix[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > eps:
            a2 = alpha2 + y2 * (e1 - e2) / eta
            a2 = min(max(a2, low), high)
        else:
            # Objective at the two clip ends (Platt's fallback).
            f1 = y1 * e1 - alpha1 * k11 - s * alpha2 * k12
            f2 = y2 * e2 - s * alpha1 * k12 - alpha2 * k22
            l1 = alpha1 + s * (alpha2 - low)
            h1 = alpha1 + s * (alpha2 - high)
            obj_low = (
                l1 * f1 + low * f2 + 0.5 * l1 * l1 * k11
                + 0.5 * low * low * k22 + s * low * l1 * k12
            )
            obj_high = (
                h1 * f1 + high * f2 + 0.5 * h1 * h1 * k11
                + 0.5 * high * high * k22 + s * high * h1 * k12
            )
            if obj_low < obj_high - eps:
                a2 = low
            elif obj_low > obj_high + eps:
                a2 = high
            else:
                a2 = alpha2
        if abs(a2 - alpha2) < eps * (a2 + alpha2 + eps):
            return False
        a1 = alpha1 + s * (alpha2 - a2)
        # Bias update keeping KKT on the changed points.
        b1 = bias - e1 - y1 * (a1 - alpha1) * k11 - y2 * (a2 - alpha2) * k12
        b2 = bias - e2 - y1 * (a1 - alpha1) * k12 - y2 * (a2 - alpha2) * k22
        if 0 < a1 < c:
            new_bias = b1
        elif 0 < a2 < c:
            new_bias = b2
        else:
            new_bias = 0.5 * (b1 + b2)
        delta_bias = new_bias - bias
        bias = new_bias
        # Vectorised error-cache update.
        errors[:] += (
            y1 * (a1 - alpha1) * kernel_matrix[i1]
            + y2 * (a2 - alpha2) * kernel_matrix[i2]
            + delta_bias
        )
        alphas[i1], alphas[i2] = a1, a2
        errors[i1] = _f_of(i1) - y1
        errors[i2] = _f_of(i2) - y2
        return True

    def _f_of(i: int) -> float:
        return float((alphas * signs) @ kernel_matrix[:, i] + bias)

    def examine(i2: int) -> bool:
        y2 = signs[i2]
        alpha2 = alphas[i2]
        e2 = errors[i2]
        r2 = e2 * y2
        if (r2 < -tol and alpha2 < c) or (r2 > tol and alpha2 > 0):
            non_bound = _non_bound()
            if len(non_bound) > 1:
                # Second-choice heuristic: maximise |E1 - E2|.
                i1 = int(non_bound[np.argmax(np.abs(errors[non_bound] - e2))])
                if take_step(i1, i2):
                    return True
            # Fall back to scanning non-bound, then all, points, from a
            # seeded random offset.
            roll = int(
                np.random.default_rng(i2).integers(0, max(len(non_bound), 1))
            )
            for i1 in np.roll(non_bound, roll):
                if take_step(int(i1), i2):
                    return True
            for i1 in range(n):
                if take_step(i1, i2):
                    return True
        return False

    iterations = 0
    examine_all = True
    num_changed = 0
    obs = get_observer()
    while (num_changed > 0 or examine_all) and iterations < max_passes:
        iterations += 1
        sweep = "all" if examine_all else "non_bound"
        num_changed = 0
        if examine_all:
            for i in range(n):
                num_changed += examine(i)
        else:
            for i in _non_bound():
                num_changed += examine(int(i))
        if obs.enabled:
            obs.event(
                "svm.iteration",
                t=float(iterations),
                category="train",
                sweep=sweep,
                num_changed=int(num_changed),
            )
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True
    return alphas, bias, iterations
