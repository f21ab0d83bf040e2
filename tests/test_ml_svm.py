"""Tests for the from-scratch SMO SVM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.kernels import linear_kernel, polynomial_kernel, rbf_kernel
from repro.ml.svm import SVC


def _blobs(rng, n=120, separation=3.0, d=4):
    x = np.vstack(
        [rng.normal(0, 1, (n // 2, d)), rng.normal(separation, 1, (n // 2, d))]
    )
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


class TestKernels:
    def test_rbf_diagonal_is_one(self, rng):
        x = rng.normal(size=(10, 3))
        gram = rbf_kernel(x, x, gamma=0.5)
        assert np.allclose(np.diag(gram), 1.0)

    def test_rbf_symmetry_and_range(self, rng):
        x = rng.normal(size=(12, 3))
        gram = rbf_kernel(x, x, gamma=1.0)
        assert np.allclose(gram, gram.T)
        assert np.all(gram > 0) and np.all(gram <= 1.0 + 1e-12)

    def test_rbf_gram_is_psd(self, rng):
        x = rng.normal(size=(20, 4))
        gram = rbf_kernel(x, x, gamma=0.7)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-8

    def test_linear_matches_dot(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(4, 3))
        assert np.allclose(linear_kernel(x, y), x @ y.T)

    def test_polynomial_degree_one_is_affine_linear(self, rng):
        x = rng.normal(size=(5, 3))
        assert np.allclose(
            polynomial_kernel(x, x, gamma=1.0, coef0=0.0, degree=1),
            linear_kernel(x, x),
        )


class TestSvc:
    def test_separable_blobs_perfect(self, rng):
        x, y = _blobs(rng)
        model = SVC().fit(x, y)
        assert (model.predict(x) == y).mean() == 1.0

    def test_linear_kernel_on_blobs(self, rng):
        x, y = _blobs(rng)
        model = SVC(kernel="linear").fit(x, y)
        assert (model.predict(x) == y).mean() >= 0.99

    def test_poly_kernel_on_blobs(self, rng):
        x, y = _blobs(rng, separation=4.0)
        model = SVC(kernel="poly", coef0=1.0).fit(x, y)
        assert (model.predict(x) == y).mean() >= 0.95

    def test_xor_needs_nonlinearity(self, rng):
        x = rng.uniform(-1, 1, (300, 2))
        y = ((x[:, 0] * x[:, 1]) > 0).astype(int)
        rbf = SVC(c=5.0, gamma=2.0).fit(x, y)
        linear = SVC(kernel="linear", c=5.0).fit(x, y)
        assert (rbf.predict(x) == y).mean() >= 0.95
        assert (linear.predict(x) == y).mean() <= 0.7

    def test_decision_function_sign_matches_predictions(self, rng):
        x, y = _blobs(rng)
        model = SVC().fit(x, y)
        decisions = model.decision_function(x)
        assert np.array_equal((decisions >= 0).astype(int), model.predict(x))

    def test_single_class_training(self, rng):
        x = rng.normal(size=(10, 2))
        model = SVC().fit(x, np.ones(10, dtype=int))
        assert np.all(model.predict(rng.normal(size=(5, 2))) == 1)
        model0 = SVC().fit(x, np.zeros(10, dtype=int))
        assert np.all(model0.predict(x) == 0)

    def test_support_vectors_are_a_subset(self, rng):
        x, y = _blobs(rng)
        model = SVC().fit(x, y)
        assert 0 < model.n_support_ <= len(x)

    def test_label_validation(self, rng):
        x = rng.normal(size=(4, 2))
        with pytest.raises(ValueError):
            SVC().fit(x, np.array([0, 1, 2, 1]))

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            SVC().fit(rng.normal(size=(4,)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError):
            SVC().fit(rng.normal(size=(4, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            SVC().fit(np.zeros((0, 2)), np.zeros(0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SVC(c=0.0)
        with pytest.raises(ValueError):
            SVC(kernel="sigmoid")

    def test_unfitted_predict_raises(self, rng):
        with pytest.raises(RuntimeError):
            SVC().predict(rng.normal(size=(3, 2)))

    def test_gamma_specs(self, rng):
        x, y = _blobs(rng)
        for gamma in ("auto", "scale", 0.5):
            model = SVC(gamma=gamma).fit(x, y)
            assert (model.predict(x) == y).mean() >= 0.99
        with pytest.raises(ValueError):
            SVC(gamma="bogus").fit(x, y)

    def test_deterministic_given_same_data(self, rng):
        x, y = _blobs(rng)
        a = SVC().fit(x, y).decision_function(x)
        b = SVC().fit(x, y).decision_function(x)
        assert np.array_equal(a, b)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 1000))
    def test_margin_property_on_random_separable_data(self, seed):
        """Training accuracy on well-separated data is always perfect."""
        local = np.random.default_rng(seed)
        x, y = _blobs(local, n=60, separation=6.0, d=3)
        model = SVC(c=10.0).fit(x, y)
        assert (model.predict(x) == y).mean() == 1.0

    def test_duplicate_points_do_not_crash(self, rng):
        x = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        y = np.array([0] * 5 + [1] * 5)
        model = SVC().fit(x, y)
        assert (model.predict(x) == y).all()

