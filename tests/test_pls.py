"""SIMPLS factorization, DA encoding, and the regression-coefficient and
prediction oracle of ``pls_oracle``."""

from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest

from spectral_sift.pls import (
    DaEncoding,
    PlsModel,
    decode_da,
    dominant_eigenvector,
    encode_da,
    fit_simpls,
)
from spectral_sift.preprocess import ScaleModel, apply_scale, fit_scale

from pls_oracle import predict, regression_coefficients


class Autoscaled(NamedTuple):
    """A SIMPLS fit on autoscaled X and Y, with the two scalings."""

    model: PlsModel
    x_scale: ScaleModel
    y_scale: ScaleModel


def fit_autoscaled(X, Y, a):
    """Autoscale X and Y (a 1-D Y as one column), then fit SIMPLS on them."""
    Y = Y[:, None] if Y.ndim == 1 else Y
    x_scale, y_scale = fit_scale(X), fit_scale(Y)
    return Autoscaled(fit_simpls(apply_scale(x_scale, X), apply_scale(y_scale, Y), a),
                      x_scale, y_scale)


def predict_autoscaled(fit, X):
    """Predictions of an autoscaled fit for raw rows, in Y's units (2-D)."""
    Ys = predict(fit.model, apply_scale(fit.x_scale, X))
    return Ys * fit.y_scale.stds + fit.y_scale.means


def r_squared(fit, X, Y):
    """Training R^2 = 1 - RSS/TSS, pooled over the response columns."""
    rss = float(np.sum((Y - predict_autoscaled(fit, X)) ** 2))
    return 1.0 - rss / float(np.sum((Y - Y.mean(axis=0)) ** 2))


def random_problem(rng, n=40, p=8, q=1, noise=0.0):
    X = rng.normal(size=(n, p)) @ np.diag(rng.uniform(0.5, 3.0, size=p))
    B = rng.normal(size=(p, q))
    Y = X @ B + noise * rng.normal(size=(n, q))
    return X, Y


class TestFitSimpls:
    def test_exact_linear_relation_recovered(self):
        rng = np.random.default_rng(0)
        X, y = random_problem(rng, n=30, p=6, q=1)
        fit = fit_autoscaled(X, y[:, 0], a=6)
        np.testing.assert_allclose(predict_autoscaled(fit, X)[:, 0], y[:, 0], atol=1e-8)

    def test_first_weight_is_covariance_direction(self):
        rng = np.random.default_rng(1)
        X, y = random_problem(rng, n=50, p=10, q=1, noise=0.5)
        model = fit_autoscaled(X, y[:, 0], a=1).model
        xs = apply_scale(fit_scale(X), X)
        ys = apply_scale(fit_scale(y), y)[:, 0]
        direction = xs.T @ ys
        direction /= np.linalg.norm(direction)
        w = model.weights[:, 0] / np.linalg.norm(model.weights[:, 0])
        np.testing.assert_allclose(np.abs(w @ direction), 1.0, atol=1e-10)

    def test_orthogonal_columns_pick_the_right_one(self):
        # y exactly equals column 3, so one factor exhausts the cross-product
        # and already reproduces the least-squares unit coefficient vector
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(40, 5))
        Q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        y = Q[:, 2]
        model = fit_simpls(Q, y, a=1)
        b = regression_coefficients(model)[:, 0]
        oracle = np.linalg.lstsq(apply_scale(fit_scale(Q), Q),
                                 apply_scale(fit_scale(y[:, None]), y[:, None])[:, 0],
                                 rcond=None)[0]
        np.testing.assert_allclose(b, oracle, atol=1e-8)
        expected = np.zeros(5)
        expected[2] = 1.0
        np.testing.assert_allclose(b, expected, atol=1e-8)

    def test_exhausted_cross_product_reported(self):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(40, 5))
        Q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        from spectral_sift.pls import DegenerateDataError

        # in any units of Y: the exhausted factor's score norm scales with Y, as
        # its bound must (a bound of 1e-12 max(||X|| / max(1, ||Y||), 1) missed
        # it at 1e6)
        for units in (1.0, 1e-6, 1e6):
            with pytest.raises(DegenerateDataError, match="exhausted at factor 2"):
                fit_simpls(Q, units * Q[:, 2], a=2)

    def test_factors_do_not_depend_on_the_eigenvector_sign_lapack_picks(self, monkeypatch):
        # an eigensolver may return either sign of the dominant eigenvector;
        # with its largest entry made positive, every build fits one factor sign
        rng = np.random.default_rng(8)
        X, Y = random_problem(rng, n=30, p=6, q=2, noise=1.0)
        A = rng.normal(size=(6, 6))
        M = A @ A.T
        q = dominant_eigenvector(M)
        np.testing.assert_allclose(M @ q, np.linalg.eigvalsh(M)[-1] * q, rtol=1e-12, atol=1e-12)
        model = fit_simpls(X, Y, a=3)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: (lambda w, v: (w, -v))(*eigh(M)))
        assert dominant_eigenvector(M).tobytes() == q.tobytes()
        flipped = fit_simpls(X, Y, a=3)
        for f in fields(PlsModel):
            assert getattr(flipped, f.name).tobytes() == getattr(model, f.name).tobytes()

    def test_score_orthogonality(self):
        rng = np.random.default_rng(3)
        for q in (1, 3):
            X, Y = random_problem(rng, n=35, p=9, q=q, noise=1.0)
            model = fit_simpls(X, Y, a=6)
            gram = model.x_scores.T @ model.x_scores
            np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_r2_non_decreasing_in_a(self):
        rng = np.random.default_rng(4)
        X, Y = random_problem(rng, n=45, p=10, q=2, noise=2.0)
        r2s = [r_squared(fit_autoscaled(X, Y, a=a), X, Y) for a in range(1, 11)]
        assert np.all(np.diff(r2s) >= -1e-12)

    def test_matches_least_squares_at_full_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X, Y = random_problem(rng, n=40, p=7, q=2, noise=1.0)
            model = fit_autoscaled(X, Y, a=7).model
            xs_model, ys_model = fit_scale(X), fit_scale(Y)
            Xs, Ys = apply_scale(xs_model, X), apply_scale(ys_model, Y)
            b_ols = np.linalg.solve(Xs.T @ Xs, Xs.T @ Ys)
            np.testing.assert_allclose(regression_coefficients(model), b_ols, atol=1e-6)

    def test_a_too_large_rejected(self):
        rng = np.random.default_rng(6)
        X, Y = random_problem(rng, n=10, p=4)
        with pytest.raises(ValueError, match="a must be"):
            fit_simpls(X, Y, a=5)

    def test_zero_variance_y_rejected(self):
        rng = np.random.default_rng(7)
        X, _ = random_problem(rng, n=10, p=4)
        with pytest.raises(ValueError, match="zero variance"):
            fit_simpls(X, np.ones(10), a=2)

    def test_fits_data_as_given(self):
        rng = np.random.default_rng(8)
        X, Y = random_problem(rng, n=30, p=5, q=1)
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        model = fit_simpls(Xc, Yc, a=3)
        # the model stores no scaling of its own
        assert [f.name for f in fields(model)] == ["weights", "x_loadings", "y_loadings",
                                                   "x_scores"]
        # prediction path is plain X @ b
        b = regression_coefficients(model)
        np.testing.assert_allclose(predict(model, Xc), Xc @ b, atol=1e-12)
        # a 1-D Y is one response column, and predictions stay 2-D
        one_d = fit_simpls(Xc, Yc[:, 0], a=3)
        assert np.array_equal(predict(one_d, Xc), predict(model, Xc))


class TestRegressionCoefficients:
    def test_single_factor_formula_collapses(self):
        rng = np.random.default_rng(9)
        X, y = random_problem(rng, n=30, p=6, q=1, noise=0.3)
        model = fit_simpls(X, y[:, 0], a=1)
        # with one factor: b = w (p'w)^-1 q
        w = model.weights[:, 0]
        expected = w / (model.x_loadings[:, 0] @ w) * model.y_loadings[0, 0]
        np.testing.assert_allclose(regression_coefficients(model)[:, 0], expected, atol=1e-12)

    def test_prediction_paths_agree(self):
        rng = np.random.default_rng(10)
        X, Y = random_problem(rng, n=40, p=8, q=2, noise=1.0)
        fit = fit_autoscaled(X, Y, a=5)
        model = fit.model
        # factor-space path: scores of new data times Y-loadings
        X_new = rng.normal(size=(15, 8)) @ np.diag(rng.uniform(0.5, 2.0, size=8))
        Xs = apply_scale(fit.x_scale, X_new)
        factor_path = (Xs @ model.weights) @ model.y_loadings.T
        coef_path = Xs @ regression_coefficients(model)
        np.testing.assert_allclose(coef_path, factor_path, atol=1e-10)

    def test_singular_ptw_guard(self):
        rng = np.random.default_rng(11)
        X, Y = random_problem(rng, n=20, p=5, q=1)
        model = fit_simpls(X, Y, a=2)
        broken = PlsModel(
            weights=np.repeat(model.weights[:, :1], 2, axis=1),
            x_loadings=np.repeat(model.x_loadings[:, :1], 2, axis=1),
            y_loadings=np.repeat(model.y_loadings[:, :1], 2, axis=1),
            x_scores=model.x_scores,
        )
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            regression_coefficients(broken)


class TestPredict:
    def test_training_predictions_match_residual_definition(self):
        rng = np.random.default_rng(12)
        X, Y = random_problem(rng, n=30, p=6, q=2, noise=1.5)
        fit = fit_autoscaled(X, Y, a=4)
        Ys = apply_scale(fit.y_scale, Y)
        fitted = fit.model.x_scores @ fit.model.y_loadings.T  # T Q' in scaled space
        residual_path = Ys - (Ys - fitted)
        np.testing.assert_allclose(
            apply_scale(fit.y_scale, predict_autoscaled(fit, X)), residual_path, atol=1e-10
        )

    def test_row_at_training_means_predicts_y_mean(self):
        rng = np.random.default_rng(13)
        X, Y = random_problem(rng, n=25, p=5, q=2, noise=1.0)
        fit = fit_autoscaled(X, Y, a=3)
        out = predict_autoscaled(fit, fit.x_scale.means[None, :])
        np.testing.assert_allclose(out, Y.mean(axis=0)[None, :], atol=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(14)
        X, Y = random_problem(rng, n=25, p=5)
        model = fit_simpls(X, Y, a=2)
        with pytest.raises(ValueError, match="columns"):
            predict(model, np.zeros((3, 6)))


class TestDaEncoding:
    def test_indicator_matrix(self):
        enc = encode_da(np.array(["A", "B", "A"]))
        np.testing.assert_array_equal(enc.classes, ["A", "B"])
        np.testing.assert_array_equal(enc.indicators, [[1, 0], [0, 1], [1, 0]])

    def test_decode_argmax(self):
        enc = encode_da(np.array(["A", "B"]))
        out = decode_da(enc.classes, np.array([[0.2, 0.9], [0.7, 0.1]]))
        np.testing.assert_array_equal(out, ["B", "A"])

    def test_decode_tie_goes_to_lowest_class(self):
        enc = encode_da(np.array([1, 2]))
        out = decode_da(enc.classes, np.array([[0.5, 0.5]]))
        assert out[0] == 1

    def test_roundtrip_identity(self):
        labels = np.array([3, 1, 0, 3, 1, 1, 0])
        enc = encode_da(labels)
        np.testing.assert_array_equal(decode_da(enc.classes, enc.indicators), labels)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            encode_da(np.array(["A", "A"]))


def test_plsda_end_to_end_separable():
    rng = np.random.default_rng(15)
    n = 60
    labels = np.repeat([0, 1, 2], n // 3)
    centers = np.array([[0, 0, 0, 0], [4, 0, 0, 0], [0, 4, 0, 0]], dtype=float)
    X = centers[labels] + 0.2 * rng.normal(size=(n, 4))
    enc = encode_da(labels)
    fit = fit_autoscaled(X, enc.indicators, a=3)
    decoded = decode_da(enc.classes, predict_autoscaled(fit, X))
    assert np.mean(decoded == labels) == 1.0
