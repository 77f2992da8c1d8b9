"""Autoscaling: fit statistics, application, degenerate columns."""

import math

import numpy as np
import pytest

from spectral_sift.preprocess import (
    ScaleModel,
    apply_scale,
    fit_scale,
    scaled_cross_product,
)


def test_hand_computed_statistics():
    model = fit_scale(np.array([[0.0, 2.0], [2.0, 4.0]]))
    np.testing.assert_allclose(model.means, [1.0, 3.0])
    np.testing.assert_allclose(model.stds, [np.sqrt(2.0), np.sqrt(2.0)])
    assert not model.flagged.any()


def test_sample_denominator():
    # n-1 denominator, not n
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    model = fit_scale(X)
    np.testing.assert_allclose(model.stds, X.std(axis=0, ddof=1))
    assert not np.allclose(model.stds, X.std(axis=0, ddof=0))


def test_constant_column_flagged_and_centered():
    X = np.array([[5.0, 1.0], [5.0, 3.0], [5.0, 2.0]])
    model = fit_scale(X)
    assert model.flagged[0] and not model.flagged[1]
    assert model.stds[0] == 1.0
    out = apply_scale(model, X)
    np.testing.assert_allclose(out[:, 0], 0.0)


def test_idempotent_on_standardized_input():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 5))
    Xs = apply_scale(fit_scale(X), X)
    model = fit_scale(Xs)
    np.testing.assert_allclose(model.means, 0.0, atol=1e-12)
    np.testing.assert_allclose(model.stds, 1.0, atol=1e-12)


def test_training_data_becomes_standardized():
    rng = np.random.default_rng(1)
    X = rng.uniform(-3, 9, size=(50, 7))
    out = apply_scale(fit_scale(X), X)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_row_at_means_maps_to_zero():
    X = np.array([[0.0, 2.0], [2.0, 4.0]])
    model = fit_scale(X)
    np.testing.assert_allclose(apply_scale(model, model.means[None, :]), 0.0)


def test_stored_model_differs_from_self_fitting():
    rng = np.random.default_rng(3)
    calib = rng.normal(0.0, 1.0, size=(100, 4))
    shifted = rng.normal(2.0, 3.0, size=(100, 4))
    stored = apply_scale(fit_scale(calib), shifted)
    self_fit = apply_scale(fit_scale(shifted), shifted)
    assert not np.allclose(stored, self_fit)
    # the stored-model output keeps the distribution shift visible
    assert abs(stored.mean()) > 0.5


def test_errors():
    with pytest.raises(ValueError, match="at least 2 rows"):
        fit_scale(np.ones((1, 3)))
    model = fit_scale(np.random.default_rng(0).normal(size=(5, 3)))
    with pytest.raises(ValueError, match="3 columns"):
        apply_scale(model, np.ones((2, 4)))


def test_model_is_immutable():
    model = fit_scale(np.array([[0.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(AttributeError):
        model.means = np.zeros(2)


def row_tiles(X, rows):
    """Fresh copies of X's row tiles of ``rows`` rows, top to bottom."""
    return (X[r0:r0 + rows].copy() for r0 in range(0, X.shape[0], rows))


def assert_near_numpy(model, X):
    """Means and stds within 1e-13 of each column's std of numpy's whole-matrix
    ``mean`` and ``std(ddof=1)``: the one-pass merge keeps no bits of theirs."""
    sigma = X.std(axis=0, ddof=1)
    np.testing.assert_array_less(np.abs(model.means - X.mean(axis=0)), 1e-13 * sigma)
    np.testing.assert_array_less(np.abs(model.stds - sigma), 1e-13 * sigma)


@pytest.mark.parametrize("p", [2, 3, 24, 204])
@pytest.mark.parametrize("rows", [1, 7, 40, 1000])
def test_tiled_statistics_have_the_bits_of_the_whole_matrix(p, rows):
    # numpy's whole-matrix mean, std and autoscaled cross-product are the
    # oracle, to rounding, whatever the tiles
    rng = np.random.default_rng(p)
    X = rng.normal(size=(1203, p)) * rng.uniform(0.01, 100.0, size=p) + rng.normal(size=p)
    model, cross = scaled_cross_product(row_tiles(X, rows))
    assert_near_numpy(model, X)
    Xs = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
    np.testing.assert_allclose(cross, Xs.T @ Xs, rtol=0, atol=1e-12 * X.shape[0])
    assert_near_numpy(fit_scale(X), X)


def test_one_column_keeps_its_bits_in_one_tile():
    X = np.random.default_rng(3).normal(size=(5000, 1))
    assert_near_numpy(fit_scale(X), X)


def test_tiles_far_from_zero_keep_the_std():
    # a column of mean 1e6 and std 1e-3 in 7-row tiles: merged about zero, the
    # tile means lose 9 of the std's digits to the mean's; shifted by the first
    # tile's means they keep them. The oracle is a two-pass over exact sums.
    x = 1e6 + 1e-3 * np.random.default_rng(5).normal(size=5000)
    mean = math.fsum(x) / x.size
    std = math.sqrt(math.fsum((x - mean) ** 2) / (x.size - 1))
    model, _ = scaled_cross_product(row_tiles(x[:, None], 7))
    assert abs(model.stds[0] - std) <= 1e-12 * std
    assert abs(model.means[0] - mean) <= 1e-13 * std


def test_tiled_statistics_need_two_rows_and_flag_constant_columns():
    with pytest.raises(ValueError, match="at least 2 rows"):
        scaled_cross_product(row_tiles(np.ones((1, 3)), 1))
    X = np.column_stack([np.full(9, 5.0), np.arange(9.0)])
    model, _ = scaled_cross_product(row_tiles(X, 2))
    assert model.flagged.tolist() == [True, False] and model.stds[0] == 1.0


def test_apply_scale_in_place_matches_the_new_array():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 6))
    model = fit_scale(X)
    expected = apply_scale(model, X)
    out = X.copy()
    assert apply_scale(model, out, out=out) is out
    np.testing.assert_array_equal(out, expected)
