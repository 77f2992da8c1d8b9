"""PCA decomposition, correlation gating, reconstruction, projection."""

import numpy as np
import pytest

from spectral_sift.pca import (
    correlate_scores,
    fit_pca,
    project,
    reconstruct,
    select_components,
)
from spectral_sift.preprocess import apply_scale, fit_scale


def centered(rng, n, p, scale=1.0):
    X = rng.normal(scale=scale, size=(n, p))
    return X - X.mean(axis=0)


class TestFitPca:
    def test_rank_one_explains_everything(self):
        rng = np.random.default_rng(0)
        direction = rng.normal(size=6)
        coeffs = rng.normal(size=20)
        X = np.outer(coeffs - coeffs.mean(), direction)
        model, T = fit_pca(X, k=1)
        np.testing.assert_allclose(model.explained_variance_ratio, [1.0], atol=1e-10)
        np.testing.assert_allclose(T @ model.loadings.T, X, atol=1e-10)

    def test_full_rank_reconstruction_is_identity(self):
        rng = np.random.default_rng(1)
        X = centered(rng, 30, 8)
        model, T = fit_pca(X, k=8)
        np.testing.assert_allclose(T @ model.loadings.T, X, atol=1e-8)

    def test_variances_match_covariance_eigendecomposition(self):
        rng = np.random.default_rng(2)
        X = centered(rng, 50, 10, scale=3.0)
        model, T = fit_pca(X, k=10)
        eigvals = np.sort(np.linalg.eigvalsh(np.cov(X, rowvar=False)))[::-1]
        total_variance = np.trace(np.cov(X, rowvar=False))
        per_component = model.explained_variance_ratio * total_variance
        np.testing.assert_allclose(per_component, eigvals, atol=1e-8)

    def test_orthonormal_loadings_and_orthogonal_scores(self):
        rng = np.random.default_rng(3)
        X = centered(rng, 40, 12)
        model, T = fit_pca(X, k=10)
        np.testing.assert_allclose(model.loadings.T @ model.loadings, np.eye(10), atol=1e-8)
        gram = T.T @ T
        np.testing.assert_allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        X = centered(rng, 25, 6)
        model, _ = fit_pca(X, k=5)
        peaks = model.loadings[np.argmax(np.abs(model.loadings), axis=0), np.arange(5)]
        assert np.all(peaks > 0)

    def test_evr_non_increasing_and_bounded(self):
        rng = np.random.default_rng(5)
        X = centered(rng, 60, 15)
        model, _ = fit_pca(X, k=12)
        assert np.all(np.diff(model.explained_variance_ratio) <= 1e-12)
        assert model.explained_variance_ratio.sum() <= 1.0 + 1e-8

    def test_reconstruction_error_monotone_in_k(self):
        rng = np.random.default_rng(6)
        X = centered(rng, 40, 10)
        model, T = fit_pca(X, k=10)
        errors = []
        for k in range(1, 11):
            approx = T[:, :k] @ model.loadings[:, :k].T
            errors.append(np.linalg.norm(X - approx))
        assert np.all(np.diff(errors) <= 1e-10)

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="not centered"):
            fit_pca(np.ones((5, 3)) + np.arange(3), k=1)

    def test_rejects_oversized_k(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="k must be"):
            fit_pca(centered(rng, 5, 3), k=5)


def svd_oracle(X, k):
    """Sign-fixed loadings and variance ratios from numpy's thin SVD."""
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    loadings = vt[:k].T
    loadings = loadings * np.sign(loadings[np.argmax(np.abs(loadings), axis=0), np.arange(k)])
    return loadings, s[:k] ** 2 / np.sum(s**2)


def rank_deficient(rng, n, p, rank):
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, p))
    return X - X.mean(axis=0)


def with_constant_column(rng, n, p):
    X = rng.normal(size=(n, p))
    X[:, 2] = 3.0  # exact in binary, so its mean is exact and centering leaves 0
    return X - X.mean(axis=0)


class TestFitPcaMatchesSvd:
    """The cross-product eigendecomposition against a thin SVD of the matrix itself.

    Tolerance: loadings within 1e-12 and variance ratios within 1e-14, absolute.
    """

    @pytest.mark.parametrize("X, k", [
        (centered(np.random.default_rng(20), 300, 15, scale=2.0), 15),  # tall
        (rank_deficient(np.random.default_rng(21), 60, 12, 4), 4),  # k equal to the rank
        (centered(np.random.default_rng(22), 10, 30), 9),  # wide: n < p, k = n - 1
        (with_constant_column(np.random.default_rng(23), 40, 8), 7),  # one all-zero column
    ], ids=["tall", "rank-deficient", "wide", "constant-column"])
    def test_loadings_and_ratios_match(self, X, k):
        model, T = fit_pca(X, k=k)
        loadings, ratio = svd_oracle(X, k)
        np.testing.assert_allclose(model.loadings, loadings, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.explained_variance_ratio, ratio, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(T, X @ model.loadings)

    def test_ratio_stays_nonnegative_past_the_rank(self):
        X = rank_deficient(np.random.default_rng(21), 60, 12, 4)
        # rounding leaves some eigenvalues of the cross-product below 0
        assert np.linalg.eigvalsh(X.T @ X).min() < 0
        model, _ = fit_pca(X, k=12)
        ratio = model.explained_variance_ratio
        assert np.all(ratio >= 0)
        np.testing.assert_allclose(ratio[4:], 0.0, atol=1e-12)
        np.testing.assert_allclose(ratio.sum(), 1.0, rtol=1e-12)


class TestCorrelateScores:
    def test_affine_map_gives_unit_correlation(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=50).astype(float)
        T = np.column_stack([2.0 * y + 3.0, rng.normal(size=50)])
        rho = correlate_scores(T, y)
        np.testing.assert_allclose(rho[0], 1.0, atol=1e-12)

    def test_negation_absorbed_by_absolute_value(self):
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        rho = correlate_scores((-y)[:, None], y)
        np.testing.assert_allclose(rho, [1.0], atol=1e-12)

    def test_independent_scores_have_small_correlation(self):
        rng = np.random.default_rng(1234)
        n = 10_000
        y = np.repeat([0.0, 1.0], n // 2)
        T = rng.normal(size=(n, 3))
        assert np.all(correlate_scores(T, y) < 0.05)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            correlate_scores(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10))


class TestSelectComponents:
    def test_top_n_ordering(self):
        sel = select_components(np.array([0.1, 0.9, 0.8]), top_n=2)
        np.testing.assert_array_equal(sel.selected, [1, 2])

    def test_threshold(self):
        sel = select_components(np.array([0.1, 0.9, 0.8]), threshold=0.5)
        np.testing.assert_array_equal(sel.selected, [1, 2])

    def test_tie_breaks_to_lower_index(self):
        sel = select_components(np.array([0.5, 0.9, 0.9, 0.2]), top_n=3)
        np.testing.assert_array_equal(sel.selected, [1, 2, 0])

    def test_empty_threshold_selection_rejected(self):
        with pytest.raises(ValueError, match="no component"):
            select_components(np.array([0.1, 0.2]), threshold=0.9)

    def test_exactly_one_rule(self):
        with pytest.raises(ValueError, match="exactly one"):
            select_components(np.array([0.5]), top_n=1, threshold=0.5)
        with pytest.raises(ValueError, match="exactly one"):
            select_components(np.array([0.5]))

    def test_discriminant_pcs_on_background_dominated_scene(self):
        # background variance owns PC1; the class contrast lives in a 2-D
        # plane whose within-class noise is anisotropic, which splits the
        # class signal over the 2nd and 3rd components
        rng = np.random.default_rng(99)
        n, p = 600, 16
        background_dir = np.zeros(p)
        background_dir[:8] = 1.0
        class_dir_a = np.zeros(p)
        class_dir_a[8:12] = 1.0
        class_dir_b = np.zeros(p)
        class_dir_b[12:] = 1.0
        y = rng.integers(0, 2, size=n).astype(float)
        z = y - 0.5
        coeff_a = np.sqrt(2.0) * z + rng.normal(scale=1.2, size=n)
        coeff_b = np.sqrt(2.0) * z + rng.normal(scale=0.25, size=n)
        X = (
            np.outer(rng.normal(scale=10.0, size=n), background_dir)
            + np.outer(coeff_a, class_dir_a)
            + np.outer(coeff_b, class_dir_b)
            + rng.normal(scale=0.05, size=(n, p))
        )
        X = X - X.mean(axis=0)
        model, T = fit_pca(X, k=6)
        rho = correlate_scores(T, y)
        assert np.argmax(model.explained_variance_ratio) == 0 and rho[0] < 0.1
        sel = select_components(rho, top_n=2)
        assert set(sel.selected) == {1, 2}  # 0-based: the 2nd and 3rd components


class TestReconstructProject:
    def test_full_selection_identity(self):
        rng = np.random.default_rng(8)
        X = centered(rng, 25, 6)
        model, T = fit_pca(X, k=6)
        sel = select_components(np.linspace(0.9, 0.4, 6), top_n=6)
        np.testing.assert_allclose(reconstruct(model, T, sel), X, atol=1e-8)

    def test_rank_one_single_component(self):
        rng = np.random.default_rng(9)
        direction = rng.normal(size=5)
        coeffs = rng.normal(size=15)
        X = np.outer(coeffs - coeffs.mean(), direction)
        model, T = fit_pca(X, k=1)
        sel = select_components(np.array([1.0]), top_n=1)
        np.testing.assert_allclose(reconstruct(model, T, sel), X, atol=1e-10)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_components(np.array([]), top_n=1)

    def test_projection_reproduces_training_scores(self):
        rng = np.random.default_rng(10)
        X = centered(rng, 30, 7)
        model, T = fit_pca(X, k=5)
        np.testing.assert_allclose(project(model, X), T, atol=1e-8)

    def test_projection_of_zero_row(self):
        rng = np.random.default_rng(11)
        model, _ = fit_pca(centered(rng, 20, 5), k=3)
        np.testing.assert_array_equal(project(model, np.zeros((1, 5))), np.zeros((1, 3)))

    def test_projection_linearity(self):
        rng = np.random.default_rng(12)
        X = centered(rng, 20, 6)
        model, T = fit_pca(X, k=4)
        combo = 0.3 * X[2] - 1.7 * X[11]
        np.testing.assert_allclose(
            project(model, combo[None, :]), (0.3 * T[2] - 1.7 * T[11])[None, :], atol=1e-8
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        model, T = fit_pca(centered(rng, 20, 6), k=3)
        with pytest.raises(ValueError, match="columns"):
            project(model, np.zeros((2, 7)))


def test_selected_reconstruction_improves_class_contrast():
    # the operational claim: reconstruction from the discriminant components
    # gives a better between/within distance ratio than the full spectrum
    rng = np.random.default_rng(77)
    n, p = 400, 12
    y = rng.integers(0, 2, size=n).astype(float)
    background = np.outer(rng.normal(scale=8.0, size=n), np.ones(p))
    signal_dir = np.zeros(p)
    signal_dir[5] = 1.0
    signal = np.outer(1.0 * (y - 0.5), signal_dir)
    X_raw = 1.0 + background + signal + rng.normal(scale=0.2, size=(n, p))

    scale = fit_scale(X_raw)
    X = apply_scale(scale, X_raw)
    model, T = fit_pca(X, k=6)
    rho = correlate_scores(T, y)
    sel = select_components(rho, top_n=1)
    X_recon = reconstruct(model, T, sel)

    def contrast(M):
        a, b = M[y == 0], M[y == 1]
        between = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
        within = 0.5 * (
            np.mean(np.linalg.norm(a - a.mean(axis=0), axis=1))
            + np.mean(np.linalg.norm(b - b.mean(axis=0), axis=1))
        )
        return between / within

    assert contrast(X_recon) > contrast(X)
