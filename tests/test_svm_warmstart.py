"""Warm-started SMO converges where a cold start does.

The dual problem is a convex QP: seeding the solver with a projected
previous dual vector changes the path, never the destination.  The
hypothesis property below drives random windows and class ratios
through warm and cold fits and demands matching decision functions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml.online import SlidingWindowTrainer, WindowModel, carry_alphas
from repro.ml.svm import SVC, project_feasible_alphas

#: SMO stops at KKT-within-tol, not the exact optimum, so two solves
#: from different starts agree to solver tolerance, not machine eps.
DECISION_ATOL = 0.15


def make_window(rng, n, positive_fraction, n_features=4, separation=2.0):
    """A labelled 2-class window with the requested class ratio."""
    y = (rng.random(n) < positive_fraction).astype(int)
    y[0], y[1] = 0, 1  # both classes always present
    x = rng.normal(size=(n, n_features)) + separation * y[:, None]
    return x, y


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(12, 60),
    positive_fraction=st.floats(0.15, 0.85),
)
# A training point sits at cold margin -0.0003: the two solves agree to
# 9e-4 yet label it differently, which is within solver tolerance.
@example(seed=102, n=12, positive_fraction=0.1875)
def test_warm_start_reaches_the_cold_start_decision_function(
    seed, n, positive_fraction
):
    rng = np.random.default_rng(seed)
    x, y = make_window(rng, n, positive_fraction)
    cold = WindowModel().fit(x, y)
    # An arbitrary (infeasible) seed: fit() must project it and still
    # land on the same optimum.
    seed_alphas = rng.uniform(-0.5, 2.5, size=n)
    warm = WindowModel().fit(x, y, init_alphas=seed_alphas)
    probe = np.vstack([x, rng.normal(size=(20, x.shape[1]))])
    np.testing.assert_allclose(
        warm.decision_function(probe),
        cold.decision_function(probe),
        atol=DECISION_ATOL,
    )
    # Labels must agree exactly wherever the cold margin is clear of
    # the solver tolerance; a point closer to the boundary than that
    # may fall on either side.
    clear = np.abs(cold.decision_function(x)) > DECISION_ATOL
    np.testing.assert_array_equal(warm.predict(x)[clear], cold.predict(x)[clear])


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(6, 40),
    c=st.floats(0.5, 4.0),
)
def test_projected_seed_is_always_smo_feasible(seed, n, c):
    """Box [0, C] and the equality constraint sum(alpha_i y_i) = 0."""
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    signs[0], signs[1] = 1.0, -1.0
    raw = rng.uniform(-2.0 * c, 3.0 * c, size=n)
    projected = project_feasible_alphas(raw, signs, c)
    assert np.all(projected >= 0.0) and np.all(projected <= c)
    assert abs(float(projected @ signs)) < 1e-9


def test_sliding_trainer_warm_start_matches_cold_fit():
    """The realistic path: epoch pushes, carried alphas, same model."""
    rng = np.random.default_rng(7)
    trainer = SlidingWindowTrainer(window_epochs=3)
    for _ in range(2):
        trainer.push(*make_window(rng, 30, 0.4))
    trainer.train()
    assert not trainer.last_warm_start  # nothing trained before
    trainer.push(*make_window(rng, 30, 0.4))
    warm = trainer.train()
    assert trainer.last_warm_start
    x, y = trainer.window()
    cold = WindowModel().fit(x, y)
    probe = rng.normal(size=(50, x.shape[1])) + 1.0
    np.testing.assert_allclose(
        warm.decision_function(probe),
        cold.decision_function(probe),
        atol=DECISION_ATOL,
    )


def test_sliding_trainer_window_semantics():
    trainer = SlidingWindowTrainer(window_epochs=2)
    with pytest.raises(RuntimeError):
        trainer.window()
    rng = np.random.default_rng(3)
    for size in (10, 12, 14):
        trainer.push(*make_window(rng, size, 0.5))
    assert trainer.window_size == 12 + 14  # oldest epoch aged out
    with pytest.raises(ValueError):
        trainer.push(np.zeros((3, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        SlidingWindowTrainer(window_epochs=0)


def test_carry_alphas_maps_the_shared_tail():
    previous = np.arange(12, dtype=float)  # batches of 3, 4, 5
    seed = carry_alphas(previous, [3, 4, 5], [4, 5, 6], carried_batches=2)
    assert seed is not None and len(seed) == 15
    np.testing.assert_array_equal(seed[:9], previous[3:])
    np.testing.assert_array_equal(seed[9:], np.zeros(6))
    assert carry_alphas(None, [3], [3, 4], 1) is None
    assert carry_alphas(previous, [12], [4], carried_batches=0) is None
    # A carried tail longer than the new window cannot be mapped.
    assert carry_alphas(previous, [12], [4], carried_batches=1) is None


def test_svc_rejects_misaligned_seed():
    rng = np.random.default_rng(11)
    x, y = make_window(rng, 20, 0.5)
    with pytest.raises(ValueError):
        SVC().fit(x, y, init_alphas=np.zeros(7))
