"""Kernel functions, centering, dual PLS-DA, and Kernel Flows tuning."""

import gc
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from spectral_sift import cluster, kernel, pls
from spectral_sift.preprocess import apply_scale, fit_scale
from spectral_sift.kernel import (
    KERNEL_FAMILIES,
    LENGTHSCALE_BOUNDS,
    KernelConfig,
    KernelSpec,
    KfConfig,
    KfConvergenceError,
    center_kernel,
    classify,
    draw_kf_batches,
    fit_kernel_center,
    fit_kernel_pls,
    kernel_matrix,
    kf_gradient,
    kf_loss,
    kf_optimize,
    predict_indicators,
    save_loss_trace,
)

from pls_oracle import predict


def checkerboard(rng, cells=6, n_per=5, sigma=0.12):
    pts, labs = [], []
    for i in range(cells):
        for j in range(cells):
            center = np.array([i + 0.5, j + 0.5])
            pts.append(center + sigma * rng.normal(size=(n_per, 2)))
            labs.append(np.full(n_per, (i + j) % 2))
    return np.vstack(pts), np.concatenate(labs)


def xor_data(rng, n_per=40, noise=0.15):
    centers = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
    X = np.vstack([c + noise * rng.normal(size=(n_per, 2)) for c in centers])
    return X, np.repeat([0, 0, 1, 1], n_per)


def three_blobs(rng, n_per=14, dims=4):
    centers = rng.normal(scale=3.0, size=(3, dims))
    X = np.vstack([c + 0.4 * rng.normal(size=(n_per, dims)) for c in centers])
    return X, np.repeat([0, 1, 2], n_per)


def reference_kf_loss(X, labels, spec, a, batches, events=None):
    """Kernel Flows loss from the spectra themselves, batch by batch: fit on
    X[full] and X[half], stepping the factor count down while the fit
    degenerates, and predict both on X[full] by the plain chain
    (:func:`plain_indicators`), whose sums run in the order of ``kf_loss``'s.
    ``events`` collects "step-down" and "inf" as they happen."""
    events = set() if events is None else events
    rhos = []
    for full, half in batches:
        a_fit = min(a, half.size - 1)
        models = []
        for rows in (full, half):
            model = None
            for a_try in range(a_fit, 0, -1):
                try:
                    model = fit_kernel_pls(X[rows], labels[rows], spec, a_try)
                    break
                except pls.DegenerateDataError:
                    events.add("step-down")
                except ValueError:
                    break
            if model is None:
                events.add("inf")
                return float("inf")
            models.append(model)
        yhat_full = plain_indicators(models[0], X[full])
        yhat_half = plain_indicators(models[1], X[full])
        denom = float(np.sum(yhat_full**2))
        if denom <= 0:
            events.add("inf")
            return float("inf")
        rhos.append(float(np.sum((yhat_full - yhat_half) ** 2)) / denom)
    return float(np.mean(rhos))


def fit_gram(K, labels, a):
    """Kernel PLS-DA on a Gram matrix at exactly ``a`` live factors: the
    nested fit and its dual coefficients at ``a``. The fit centers a copy of
    ``K``, which callers go on to use."""
    nested = kernel._fit_nested(K.copy(), labels, a)
    assert nested.live == a
    return nested, nested.dual_coef(a)


def predict_gram(K_new, nested, dual_coef):
    """Indicator scores from a cross-kernel against the training rows."""
    return center_kernel(K_new, nested.center_stats) @ dual_coef + nested.y_means


def batch_losses(D, labels, spec, a, batches):
    """``kf_loss`` of each batch, on its block of the training distances D."""
    return [kf_loss(D[np.ix_(full, full)], labels, spec, a, full, half)
            for full, half in batches]


def plain_kernel(family, r, ell):
    """A stationary kernel from distances ``r`` by its plain expression, each
    step a new array."""
    if family == "gaussian":
        return np.exp(-(r**2) / (2.0 * ell**2))
    if family == "laplacian":
        return np.exp(-r / ell)
    if family == "matern52":  # (1 + u + u**2 / 3) exp(-u), u = sqrt(5) r / ell, in v = -u
        v = r * (-np.sqrt(5.0) / ell)
        return ((v / 3.0 - 1.0) * v + 1.0) * np.exp(v)
    return 1.0 / (1.0 + (r / ell) ** 2)


def reference_dual_simpls(Kc, Yc, a):
    """The dual SIMPLS loop as it was before it kept Kc @ G for the
    deflation: Kc @ G is evaluated twice per factor."""
    n = Kc.shape[0]
    G = Yc.copy()
    A, Q, C = np.empty((n, a)), np.empty((Yc.shape[1], a)), np.zeros((n, a))
    for i in range(a):
        M = G.T @ (Kc @ G)
        _, vecs = np.linalg.eigh(M)
        q_dom = vecs[:, -1]
        if q_dom[np.argmax(np.abs(q_dom))] < 0:
            q_dom = -q_dom
        alpha = G @ q_dom
        t = Kc @ alpha
        normt = float(np.linalg.norm(t))
        t /= normt
        alpha /= normt
        A[:, i] = alpha
        Q[:, i] = Yc.T @ t
        c = t.copy()
        if i > 0:
            c -= C[:, :i] @ (C[:, :i].T @ (Kc @ t))
        c /= np.sqrt(float(c @ (Kc @ c)))
        C[:, i] = c
        G = G - c[:, None] @ (c[None, :] @ (Kc @ G))
    return A, Q


class TestCdist:
    """kernel.cdist against scipy's cdist, which sums squared differences.

    Tolerance: a squared distance of the expanded formula is within
    cluster.MARGIN·reach² of the exact one, reach being the largest row norm
    of A plus that of B (the bound MARGIN's comment derives), so the squared
    distances of the two may differ by that much and no more.
    """

    @staticmethod
    def assert_matches_scipy(A, B):
        got = kernel.cdist(A, B)
        want = cdist(A, B)
        assert got.shape == want.shape
        reach = np.linalg.norm(A, axis=1).max() + np.linalg.norm(B, axis=1).max()
        assert np.all(np.abs(got**2 - want**2) <= cluster.MARGIN * reach**2)
        return got, want

    def test_random_data(self):
        rng = np.random.default_rng(30)
        got, want = self.assert_matches_scipy(rng.normal(size=(40, 9)), rng.normal(size=(25, 9)))
        # well-separated rows keep nearly every bit of their distance
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_large_common_offset(self):
        # ‖a‖² and ‖b‖² dwarf the distance: the expanded formula cancels
        rng = np.random.default_rng(31)
        offset = 1e3 * rng.uniform(size=8)
        A, B = offset + rng.normal(size=(30, 8)), offset + rng.normal(size=(20, 8))
        got, _ = self.assert_matches_scipy(A, B)
        assert np.all(got > 0)

    def test_copy_sits_at_exact_zero(self):
        rng = np.random.default_rng(32)
        A = 50.0 + rng.normal(size=(12, 6))
        np.testing.assert_array_equal(np.diag(kernel.cdist(A, A.copy())), np.zeros(12))
        np.testing.assert_array_equal(np.diag(kernel.cdist(A, A)), np.zeros(12))
        for family in KERNEL_FAMILIES:
            K = kernel_matrix(KernelSpec(family, 0.7), A, A.copy())
            np.testing.assert_array_equal(np.diag(K), np.ones(12))

    def test_duplicate_rows_give_exact_zeros(self):
        rng = np.random.default_rng(35)
        rows = 3.0 + rng.normal(size=(8, 24))
        ia, ib = rng.integers(0, 8, size=16), rng.integers(0, 8, size=12)
        got, want = self.assert_matches_scipy(rows[ia], rows[ib])
        np.testing.assert_array_equal(got == 0, ia[:, None] == ib[None, :])
        np.testing.assert_array_equal(got == 0, want == 0)

    @pytest.mark.parametrize("shapes", [((1, 6), (9, 6)), ((9, 6), (1, 6)),
                                        ((1, 6), (1, 6)), ((9, 1), (4, 1))])
    def test_single_row_and_single_column_shapes(self, shapes):
        rng = np.random.default_rng(34)
        self.assert_matches_scipy(rng.normal(size=shapes[0]), rng.normal(size=shapes[1]))


class TestKernelMatrix:
    def test_self_similarity_is_variance(self):
        # every family has unit variance: kernel PLS ignores a constant factor
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 4))
        for family in KERNEL_FAMILIES:
            K = kernel_matrix(KernelSpec(family, 0.7), X, X)
            np.testing.assert_array_equal(np.diag(K), np.ones(10))

    def test_known_values(self):
        a = np.array([[0.0]])
        b = np.array([[1.0]])  # r = 1
        assert kernel_matrix(KernelSpec("gaussian", 1.0), a, b)[0, 0] == pytest.approx(
            np.exp(-0.5), abs=1e-15
        )
        assert kernel_matrix(KernelSpec("laplacian", 2.0), a, b)[0, 0] == pytest.approx(
            np.exp(-0.5), abs=1e-15
        )
        u = np.sqrt(5.0) / 2.0
        assert kernel_matrix(KernelSpec("matern52", 2.0), a, b)[0, 0] == pytest.approx(
            (1 + u + u**2 / 3) * np.exp(-u), abs=1e-15
        )
        assert kernel_matrix(KernelSpec("cauchy", 2.0), a, b)[0, 0] == pytest.approx(
            1.0 / 1.25, abs=1e-15
        )

    def test_gram_matrices_psd_and_symmetric(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            X = rng.normal(scale=rng.uniform(0.1, 5.0), size=(rng.integers(3, 25), 3))
            for family in KERNEL_FAMILIES:
                K = kernel_matrix(KernelSpec(family, rng.uniform(0.2, 3.0)), X, X)
                np.testing.assert_allclose(K, K.T, atol=1e-12)
                assert np.linalg.eigvalsh(K).min() >= -1e-8

    def test_positive_parameters_enforced(self):
        with pytest.raises(ValueError, match="strictly positive"):
            KernelSpec("gaussian", 0.0)
        with pytest.raises(ValueError, match="strictly positive"):
            KernelSpec("gaussian", -1.0)
        with pytest.raises(ValueError, match="unknown kernel family"):
            KernelSpec("sigmoid", 1.0)
        with pytest.raises(ValueError, match="unknown kernel family"):
            KernelSpec("linear", 1.0)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_in_place_formulas_keep_every_bit(self, family):
        # the plain expressions, each step a new array; distances left as they are
        r = kernel.cdist(*np.random.default_rng(25).normal(size=(2, 30, 5)))
        r_before, ell = r.copy(), 0.9
        want = plain_kernel(family, r, ell)
        np.testing.assert_array_equal(kernel.distance_kernel(KernelSpec(family, ell), r), want)
        np.testing.assert_array_equal(r, r_before)
        out = kernel.distance_kernel(KernelSpec(family, ell), r, out=r)
        assert out is r
        np.testing.assert_array_equal(r, want)

    BLOCK_ROWS = kernel.BLOCK_CELLS // 300  # rows per block of a 300-column r

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("shape", [(3 * BLOCK_ROWS + 7, 300), (3, kernel.BLOCK_CELLS + 5)],
                             ids=["several-blocks", "rows-wider-than-a-block"])
    @pytest.mark.parametrize("out", ["new", "r", "separate"])
    def test_blocked_formulas_keep_every_bit(self, family, shape, out):
        rng = np.random.default_rng(shape[1])
        A, B = rng.normal(size=(shape[0], 5)), rng.normal(size=(shape[1], 5))
        B[-1] = A[-1]  # at distance exactly 0
        r = kernel.cdist(A, B)
        assert r.size > kernel.BLOCK_CELLS
        r_before, spec = r.copy(), KernelSpec(family, 0.9)
        want = plain_kernel(family, r, 0.9)
        target = {"new": None, "r": r, "separate": np.empty_like(r)}[out]
        got = kernel.distance_kernel(spec, r, out=target)
        assert target is None or got is target
        assert got.tobytes() == want.tobytes()
        if out != "r":
            assert r.tobytes() == r_before.tobytes()

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_blocked_temporaries_stay_within_a_few_blocks(self, family):
        rng = np.random.default_rng(43)
        r = kernel.cdist(rng.normal(size=(17 * self.BLOCK_ROWS, 5)), rng.normal(size=(300, 5)))
        spec, few_blocks = KernelSpec(family, 0.9), 3 * 8 * kernel.BLOCK_CELLS + (1 << 16)
        peaks = []
        for out in (None, r):  # a new array, then in place
            tracemalloc.start()
            try:
                kernel.distance_kernel(spec, r, out=out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= r.nbytes + few_blocks, (peaks, r.nbytes)
        assert peaks[1] <= few_blocks, (peaks, r.nbytes)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_matrix(KernelSpec("gaussian", 1.0), np.zeros((2, 3)), np.zeros((2, 4)))


class TestCenterKernel:
    def test_training_kernel_centered_means(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        K = kernel_matrix(KernelSpec("gaussian", 1.0), X, X)
        Kc = center_kernel(K, fit_kernel_center(K))
        np.testing.assert_allclose(Kc.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Kc.mean(axis=1), 0.0, atol=1e-10)

    def test_in_place_centering_keeps_every_bit(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(20, 3))
        K = kernel_matrix(KernelSpec("matern52", 1.0), rng.normal(size=(7, 3)), X)
        K_before, stats = K.copy(), fit_kernel_center(kernel_matrix(KernelSpec("matern52", 1.0), X, X))
        want = K - K.mean(axis=1, keepdims=True) - stats.col_means[None, :] + stats.mean_all
        np.testing.assert_array_equal(center_kernel(K, stats), want)
        np.testing.assert_array_equal(K, K_before)
        assert center_kernel(K, stats, out=K) is K
        np.testing.assert_array_equal(K, want)

    def test_single_training_point_gives_zero(self):
        K = np.array([[2.5]])
        np.testing.assert_allclose(center_kernel(K, fit_kernel_center(K)), [[0.0]])

    def test_cross_centering_matches_explicit_feature_map(self):
        # degree-2 polynomial kernel via an explicit lift: k(x,y) = x.y + (x.y)^2
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 3))
        X_new = rng.normal(size=(6, 3))

        def lift(M):
            quad = np.einsum("ni,nj->nij", M, M).reshape(len(M), -1)
            return np.hstack([M, quad])

        Z, Z_new = lift(X), lift(X_new)
        K = Z @ Z.T
        K_new = Z_new @ Z.T
        stats = fit_kernel_center(K)
        Zc = Z - Z.mean(axis=0)
        Zc_new = Z_new - Z.mean(axis=0)
        np.testing.assert_allclose(center_kernel(K, stats), Zc @ Zc.T, atol=1e-10)
        np.testing.assert_allclose(center_kernel(K_new, stats), Zc_new @ Zc.T, atol=1e-10)


def random_coefficient_model(rng, family, n_support, bands, n_classes=3):
    """A kernel PLS model with random support, centering statistics and
    coefficients: prediction reads nothing else, and a fit on a support this
    large would need its whole Gram matrix."""
    return kernel.KernelPlsModel(
        kernel=KernelSpec(family, 0.7),
        support=rng.uniform(0.05, 0.8, size=(n_support, bands)),
        center_stats=kernel.KernelCenterStats(col_means=rng.uniform(0.2, 0.6, n_support),
                                              mean_all=0.4),
        dual_coef=rng.normal(size=(n_support, n_classes)),
        y_means=np.full(n_classes, 1.0 / n_classes),
        classes=np.arange(n_classes),
        a=2,
    )


def plain_indicators(model, X):
    """Indicator scores by the plain chain: the cross-kernel of ``X`` and the
    support, centered, times the dual coefficients, each step on all rows."""
    K = kernel_matrix(model.kernel, X, model.support)
    return center_kernel(K, model.center_stats) @ model.dual_coef + model.y_means


#: unit roundoff of float64
UNIT_ROUNDOFF = 2.0**-53


def score_bound(model, X):
    """A first-order bound on |predict_indicators - plain_indicators|, per
    score, from the data; ``u`` is the unit roundoff, d the bands, n the
    support spectra, B the dual coefficients.

    - Squared distances: each chain's lie within (2d + 2)·u·reach² of the
      exact ones (the d + 2 terms of the expanded formula, see
      ``cluster.MARGIN``, and the d of a squared norm), so the two differ by
      at most e = 2(2d + 2)·u·reach².
    - Distances: a plain distance r > 0 moves by at most e/r, since
      |√a − √b| = |a − b|/(√a + √b), plus a rounding of each square root. At
      r = 0 both chains hold exactly 0.
    - Kernel: every family has values in [0, 1] and slope at most 1/ℓ
      (e^{-1/2}/ℓ gaussian, 1/ℓ laplacian, 0.63/ℓ matern52, 0.65/ℓ cauchy),
      and its passes round by at most 8u in each chain: an entry moves by
      ΔK ≤ Δr/ℓ + 16u, and not at all at r = 0.
    - Scores: centering adds a row's mean ΔK to each of its entries, so a
      score moves by Σ_j ΔK_ij·|B_jc| + mean_j ΔK_ij·Σ_j |B_jc|. Kernel,
      centered kernel and training means are at most 2 in size, so the
      products, sums and corrections of the two chains round by at most
      (8n + 32)·u·Σ_j |B_jc|, and the last additions by 4u·(|score| + |ȳ|).
    """
    u, (n, d) = UNIT_ROUNDOFF, model.support.shape
    reach = np.linalg.norm(X, axis=1).max() + np.linalg.norm(model.support, axis=1).max()
    r = kernel.cdist(X, model.support)
    nonzero = r > 0
    e = 2 * (2 * d + 2) * u * reach**2
    dr = e / np.where(nonzero, r, 1.0) + 2 * u * r
    dK = np.where(nonzero, dr / model.kernel.lengthscale + 16 * u, 0.0)
    B = np.abs(model.dual_coef)
    rounding = (8 * n + 32) * u * B.sum(axis=0)
    scores = np.abs(plain_indicators(model, X))
    return dK @ B + dK.mean(axis=1, keepdims=True) * B.sum(axis=0) + rounding \
        + 4 * u * (scores + np.abs(model.y_means))


def assert_within_bound(got, model, X):
    """``got`` agrees with the plain chain on X within :func:`score_bound`."""
    diff = np.abs(got - plain_indicators(model, X))
    bound = score_bound(model, X)
    assert np.all(diff <= bound), (diff.max(), (diff / bound).max())


def spy_on_kernel(monkeypatch):
    """(distances, kernel) of every call ``predict_indicators`` makes to
    ``distance_kernel``, as copies."""
    seen, original = [], kernel.distance_kernel

    def spy(spec, r, out=None):
        before = r.copy()
        got = original(spec, r, out=out)
        seen.append((before, got.copy()))
        return got

    monkeypatch.setattr(kernel, "distance_kernel", spy)
    return seen


class TestBlockedPrediction:
    """``predict_indicators`` against the plain chain, within :func:`score_bound`:
    its products fold in the norms and the centering, so its sums run in
    another order."""

    N_SUPPORT = 300
    BLOCK = kernel.BLOCK_CELLS // N_SUPPORT  # rows per chunk of classify

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("rows", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_equals_the_whole_tile_chain_bit_for_bit(self, family, rows, monkeypatch):
        # the name predates the folded products: the scores agree within the bound
        rng = np.random.default_rng(rows)
        model = random_coefficient_model(rng, family, self.N_SUPPORT, 6)
        assert np.all(np.abs(model.dual_coef.sum(axis=0)) > 1e-3)  # the row means count
        X = rng.uniform(0.05, 0.8, size=(rows, 6))
        X[-1] = model.support[7]  # at distance exactly 0: the margin's zeroing
        seen = spy_on_kernel(monkeypatch)
        got = predict_indicators(model, X)
        (r, K), = seen
        assert r[-1, 7] == 0.0 and K[-1, 7] == 1.0
        assert np.count_nonzero(r) == r.size - 1
        assert_within_bound(got, model, X)

    @pytest.mark.parametrize("n_support", [kernel.BLOCK_CELLS // 2 + 1, kernel.BLOCK_CELLS + 1])
    def test_one_row_blocks(self, n_support):
        assert kernel.BLOCK_CELLS // n_support <= 1
        rng = np.random.default_rng(n_support)
        model = random_coefficient_model(rng, "matern52", n_support, 2)
        X = rng.uniform(0.05, 0.8, size=(3, 2))
        assert_within_bound(predict_indicators(model, X), model, X)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_peak_memory_is_one_cross_kernel_and_a_few_blocks(self, family):
        rng = np.random.default_rng(41)
        n_support, bands = 654, 24
        rows = 16 * (kernel.BLOCK_CELLS // n_support) + 5  # 17 blocks
        model = random_coefficient_model(rng, family, n_support, bands)
        X = rng.uniform(0.05, 0.8, size=(rows, bands))
        classify(model, X)  # first call: the model side of the products is derived once, and kept
        tracemalloc.start()
        try:
            classify(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cross_kernel = rows * n_support * 8
        # the product's left operand, 4 blocks, and per-row scores, norms and ids
        allowed = cross_kernel + X.nbytes + 4 * 8 * kernel.BLOCK_CELLS + 64 * rows + (1 << 16)
        assert peak <= allowed, (peak, cross_kernel)


class TestChunkedClassify:
    """``classify`` is ``predict_indicators`` on each chunk, bit for bit, and
    so within :func:`score_bound` of the plain chain."""

    N_SUPPORT = 300
    CHUNK = kernel.BLOCK_CELLS // N_SUPPORT  # rows per chunk

    @staticmethod
    def chunk_sizes(monkeypatch):
        """The row count of every call ``classify`` makes to ``predict_indicators``."""
        sizes, original = [], kernel.predict_indicators

        def spy(model, X):
            sizes.append(X.shape[0])
            return original(model, X)

        monkeypatch.setattr(kernel, "predict_indicators", spy)
        return sizes

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("chunks", [[2], [CHUNK - 1], [CHUNK], [CHUNK + 1],
                                        [CHUNK, CHUNK, CHUNK + 1]],
                             ids=["2", "chunk-1", "chunk", "chunk+1", "3chunk+1"])
    def test_scores_are_the_chain_on_each_chunk_bit_for_bit(self, family, chunks, monkeypatch):
        # a lone last row joins the chunk before it: chunk + 1 rows are one chunk
        rows = sum(chunks)
        rng = np.random.default_rng(rows)
        model = random_coefficient_model(rng, family, self.N_SUPPORT, 6)
        X = rng.uniform(0.05, 0.8, size=(rows, 6))
        X[rows // 2] = model.support[7]  # at distance exactly 0: the margin's zeroing
        sizes = self.chunk_sizes(monkeypatch)
        predicted, scores = classify(model, X)
        assert sizes == chunks
        bounds = np.cumsum([0] + chunks)
        # predict_indicators as imported, not the spy
        expected = np.concatenate([predict_indicators(model, X[a:b])
                                   for a, b in zip(bounds[:-1], bounds[1:])])
        assert scores.tobytes() == expected.tobytes()
        assert predicted.tobytes() == pls.decode_da(model.classes, expected).tobytes()
        for a, b in zip(bounds[:-1], bounds[1:]):
            assert_within_bound(scores[a:b], model, X[a:b])

    def test_a_support_wider_than_a_chunk_takes_two_rows_a_chunk(self, monkeypatch):
        rng = np.random.default_rng(5)
        model = random_coefficient_model(rng, "matern52", kernel.BLOCK_CELLS // 2 + 1, 2)
        X = rng.uniform(0.05, 0.8, size=(5, 2))
        sizes = self.chunk_sizes(monkeypatch)
        _, scores = classify(model, X)
        assert sizes == [2, 3]
        expected = np.concatenate([predict_indicators(model, X[:2]),
                                   predict_indicators(model, X[2:])])
        assert scores.tobytes() == expected.tobytes()
        assert_within_bound(scores, model, X)


class TestKernelPls:
    def test_separable_blobs_any_family(self):
        rng = np.random.default_rng(4)
        centers = np.array([[0, 0], [5, 0]], dtype=float)
        X = np.vstack([c + 0.3 * rng.normal(size=(20, 2)) for c in centers])
        labels = np.repeat([0, 1], 20)
        for family in KERNEL_FAMILIES:
            model = fit_kernel_pls(X, labels, KernelSpec(family, 2.0), a=2)
            predicted, _ = classify(model, X)
            assert np.mean(predicted == labels) == 1.0

    def test_xor_needs_the_kernel(self):
        rng = np.random.default_rng(3)
        X, labels = xor_data(rng)
        enc = pls.encode_da(labels)
        x_scale, y_scale = fit_scale(X), fit_scale(enc.indicators)
        linear = pls.fit_simpls(apply_scale(x_scale, X), apply_scale(y_scale, enc.indicators), a=2)
        yhat = predict(linear, apply_scale(x_scale, X)) * y_scale.stds + y_scale.means
        linear_acc = np.mean(pls.decode_da(enc.classes, yhat) == labels)
        assert linear_acc < 1.0
        model = fit_kernel_pls(X, labels, KernelSpec("gaussian", 0.7), a=4)
        predicted, _ = classify(model, X)
        assert np.mean(predicted == labels) == 1.0

    def test_linear_kernel_reproduces_primal_simpls(self):
        # the dual fit on the linear Gram matrix Xc Xc' is primal SIMPLS on Xc
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 6))
        labels = rng.integers(0, 3, size=30)
        enc = pls.encode_da(labels)
        Xc = X - X.mean(axis=0)
        Yc = enc.indicators - enc.indicators.mean(axis=0)
        K = Xc @ Xc.T
        for a in (1, 2, 4):
            primal = pls.fit_simpls(Xc, Yc, a=a)
            yhat_primal = predict(primal, Xc) + enc.indicators.mean(axis=0)
            np.testing.assert_allclose(predict_gram(K, *fit_gram(K, labels, a)), yhat_primal,
                                       atol=1e-6)

    @pytest.mark.parametrize("factor", [0.02, 3.7])
    def test_scaled_kernel_predicts_the_same(self, factor):
        # why a kernel needs no variance: a constant factor cancels in the fit
        rng = np.random.default_rng(23)
        X, labels = three_blobs(rng)
        X_new = rng.normal(scale=3.0, size=(50, 4))
        K = kernel_matrix(KernelSpec("matern52", 2.0), X, X)
        K_new = kernel_matrix(KernelSpec("matern52", 2.0), X_new, X)
        for a in (1, 3, 6):
            plain = predict_gram(K_new, *fit_gram(K, labels, a))
            scaled = predict_gram(factor * K_new, *fit_gram(factor * K, labels, a))
            np.testing.assert_allclose(scaled, plain, rtol=1e-9, atol=1e-12)

    def test_support_is_held_once(self):
        # the predictor's [S | 1 | ‖s‖²] holds the support spectra; the model's
        # support is a view of its first columns, not the array passed in
        X, labels = three_blobs(np.random.default_rng(25))
        model = fit_kernel_pls(X, labels, KernelSpec("gaussian", 2.0), a=2)
        augmented = model._predictor.support
        assert model.support.base is augmented
        assert model.support.tobytes() == X.tobytes()
        assert not np.shares_memory(model.support, X)
        assert augmented[:, -1].tobytes() == np.sum(X**2, axis=1).tobytes()

    def test_one_support_point_per_class(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        model = fit_kernel_pls(X, np.array([5, 9]), KernelSpec("gaussian", 1.0), a=1)
        predicted, scores = classify(
            model, np.array([[1.0, 0.0], [0.4, 0.0], [1.6, 0.0]])
        )
        assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-12)
        np.testing.assert_array_equal(predicted, [5, 5, 9])  # midpoint tie -> lower class

    def test_far_point_decodes_by_tie_rule(self):
        # mirror-symmetric training set: a vanishing kernel row leaves the
        # class scores exactly tied, so the lowest class wins
        X = np.array([[-1.0, 0.0], [-1.0, 0.5], [1.0, 0.0], [1.0, 0.5]])
        model = fit_kernel_pls(X, np.array([0, 0, 1, 1]), KernelSpec("gaussian", 1.0), a=1)
        predicted, scores = classify(model, np.array([[1e8, 1e8]]))
        assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-12)
        assert predicted[0] == 0

    def test_training_reclassification_matches_fit(self):
        rng = np.random.default_rng(6)
        X, labels = xor_data(rng, n_per=20)
        model = fit_kernel_pls(X, labels, KernelSpec("matern52", 0.8), a=3)
        pred_fit, _ = classify(model, X)
        pred_again, _ = classify(model, X.copy())
        np.testing.assert_array_equal(pred_fit, pred_again)

    @staticmethod
    def assert_dual_simpls_matches_reference(Kc, Yc, rtol):
        """The sign-invariant coefficients A Q' and predictions Kc A Q' of the
        live factors against the reference loop, each within ``rtol`` of the
        reference's largest entry. A and Q alone may flip a factor's sign."""
        for a in (1, 2, 4, 7):
            A, Q = kernel._dual_simpls(Kc, Yc, a)
            live = A.shape[1]
            assert 1 <= live <= a
            A_ref, Q_ref = reference_dual_simpls(Kc, Yc, live)
            for got, want in ((A @ Q.T, A_ref @ Q_ref.T), (Kc @ A @ Q.T, Kc @ A_ref @ Q_ref.T)):
                assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_dual_simpls_equals_loop_with_repeated_products(self, n_classes):
        # deflating Kc G instead of recomputing it rounds differently: 1.2e-14 seen
        rng = np.random.default_rng(40 + n_classes)
        X = rng.normal(size=(45, 6))
        labels = np.arange(45) % n_classes
        Y = pls.encode_da(labels).indicators
        Yc = Y - Y.mean(axis=0)
        K = kernel_matrix(KernelSpec("matern52", 2.0), X, X)
        Kc = center_kernel(K, fit_kernel_center(K))
        self.assert_dual_simpls_matches_reference(Kc, Yc, rtol=1e-12)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("scale", LENGTHSCALE_BOUNDS)
    @pytest.mark.parametrize("sizes", [(20, 25), (10, 15, 20), (5, 7, 9, 11, 13)])
    def test_dual_simpls_at_the_lengthscale_clamp_ends(self, sizes, scale, family):
        # Near 1e-4 x the median distance Kc is I - 11'/n, and equal class sizes
        # would tie the eigenvalues of G'KG, leaving the dominant direction to
        # rounding; hence unequal sizes. Near 1e4 x the median Kc is
        # ill-conditioned and the factors keep fewer bits: 3.5e-7 on A Q' and
        # 2.7e-8 on the predictions seen over 20 draws of these shapes.
        rng = np.random.default_rng(40 + len(sizes))
        X = rng.normal(size=(45, 6))
        labels = np.repeat(np.arange(len(sizes)), sizes)
        Y = pls.encode_da(labels).indicators
        Yc = Y - Y.mean(axis=0)
        K = kernel_matrix(KernelSpec(family, scale * float(np.median(pdist(X)))), X, X)
        Kc = center_kernel(K, fit_kernel_center(K))
        self.assert_dual_simpls_matches_reference(Kc, Yc, rtol=1e-6)

    def test_nested_fit_prefixes_equal_separate_fits(self):
        # one fit at the largest count holds, bit for bit, the fit at every smaller one
        X, labels = three_blobs(np.random.default_rng(24))
        for scale in (LENGTHSCALE_BOUNDS[0], 1.0, LENGTHSCALE_BOUNDS[1]):
            spec = KernelSpec("matern52", scale * float(np.median(pdist(X))))
            nested = kernel._fit_nested(kernel_matrix(spec, X, X), labels, 10)
            for a in range(1, 11):
                if a > nested.live:
                    with pytest.raises(pls.DegenerateDataError, match="exhausted"):
                        fit_kernel_pls(X, labels, spec, a)
                    continue
                separate = fit_kernel_pls(X, labels, spec, a)
                assert np.array_equal(nested.dual_coef(a), separate.dual_coef)

    def test_nested_fit_centers_its_gram_matrix_in_place(self):
        X, labels = three_blobs(np.random.default_rng(27))
        K = kernel_matrix(KernelSpec("matern52", 2.0), X, X)
        want = center_kernel(K.copy(), fit_kernel_center(K))
        nested = kernel._fit_nested(K, labels, 3)
        assert nested.Kc is K
        assert K.tobytes() == want.tobytes()

    def test_degenerate_kernel_rejected(self):
        X = np.ones((8, 3))
        with pytest.raises(ValueError, match="degenerate kernel"):
            fit_kernel_pls(X, np.array([0, 0, 0, 0, 1, 1, 1, 1]), KernelSpec("gaussian", 1.0), a=1)

    def test_hand_rolled_oracle_on_toy_set(self):
        # independent re-derivation: projection-matrix centering, explicit loops
        X = np.array([[0.0, 0.0], [1.0, 0.2], [0.2, 1.1], [2.0, 2.0], [2.2, 1.8]])
        labels = np.array([0, 0, 0, 1, 1])
        X_new = np.array([[0.5, 0.5], [2.1, 1.9], [1.0, 1.0]])
        ell, a = 1.3, 2

        n = len(X)
        K = np.exp(-cdist(X, X) ** 2 / (2 * ell**2))
        J = np.eye(n) - np.ones((n, n)) / n
        Kc = J @ K @ J
        classes = np.unique(labels)
        Y = (labels[:, None] == classes).astype(float)
        y_means = Y.mean(axis=0)
        G = Y - y_means
        A_cols, Q_cols, C_cols = [], [], []
        for _ in range(a):
            M = G.T @ Kc @ G
            vals, vecs = np.linalg.eigh(M)
            q = vecs[:, -1]
            if q[np.argmax(np.abs(q))] < 0:
                q = -q
            alpha = G @ q
            t = Kc @ alpha
            norm_t = np.linalg.norm(t)
            t, alpha = t / norm_t, alpha / norm_t
            Q_cols.append((Y - y_means).T @ t)
            c = t.copy()
            for cj in C_cols:
                c = c - cj * float(cj @ Kc @ t)
            c = c / np.sqrt(float(c @ Kc @ c))
            A_cols.append(alpha)
            C_cols.append(c)
            G = G - np.outer(c, c @ Kc @ G)
        A = np.column_stack(A_cols)
        Q = np.column_stack(Q_cols)
        K_new = np.exp(-cdist(X_new, X) ** 2 / (2 * ell**2))
        Kc_new = K_new - K_new.mean(axis=1, keepdims=True) - K.mean(axis=0) + K.mean()
        oracle_scores = Kc_new @ (A @ Q.T) + y_means

        model = fit_kernel_pls(X, labels, KernelSpec("gaussian", ell), a=a)
        np.testing.assert_allclose(predict_indicators(model, X_new), oracle_scores, atol=1e-10)


class TestKfBatches:
    def test_batches_contain_every_class(self):
        rng = np.random.default_rng(7)
        labels = np.repeat([0, 1, 2], [50, 30, 20])
        batches = draw_kf_batches(rng, labels, 25, 0.5)
        assert len(batches) == 25
        for full, half in batches:
            assert set(labels[full]) == {0, 1, 2}
            assert set(labels[half]) == {0, 1, 2}
            assert set(half).issubset(set(full))
            assert half.size == full.size // 2

    def test_labels_may_be_a_list(self):
        labels = np.repeat([0, 1, 2], [50, 30, 20])
        drawn = draw_kf_batches(np.random.default_rng(9), labels, 5, 0.5)
        from_list = draw_kf_batches(np.random.default_rng(9), labels.tolist(), 5, 0.5)
        for (full, half), (full_l, half_l) in zip(drawn, from_list, strict=True):
            assert np.array_equal(full, full_l) and np.array_equal(half, half_l)

    def test_draws_that_keep_missing_a_class_raise(self, monkeypatch):
        # one row of class 1 in 100: a half-batch of 25 holds it one time in 4
        monkeypatch.setattr(kernel, "BATCH_DRAWS", 2)
        labels = np.zeros(100, dtype=int)
        labels[7] = 1
        with pytest.raises(KfConvergenceError, match="in 2 tries"):
            draw_kf_batches(np.random.default_rng(10), labels, 10, 0.5)

    def test_impossible_batches_rejected(self):
        rng = np.random.default_rng(8)
        labels = np.arange(8)  # 8 classes, half-batch of 2 can't hold them
        with pytest.raises(ValueError, match="cannot contain all"):
            draw_kf_batches(rng, labels, 1, 0.5)


class TestKfLossOnDistances:
    """kf_loss on one distance matrix against the loss fitted from spectra."""

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_equals_loss_from_spectra(self, family):
        rng = np.random.default_rng(12)
        X, labels = three_blobs(rng)
        batches = draw_kf_batches(rng, labels, 6, 0.5)
        med = float(np.median(pdist(X)))
        D = kernel.cdist(X, X)  # the fits from spectra take their distances from it too
        events = set()
        for scale in (LENGTHSCALE_BOUNDS[0], 1.0, LENGTHSCALE_BOUNDS[1]):
            spec = KernelSpec(family, scale * med)
            for batch, loss in zip(batches, batch_losses(D, labels, spec, 5, batches)):
                assert loss == reference_kf_loss(X, labels, spec, 5, [batch], events)
        assert "step-down" in events  # the factor step-down ran at a bound

    def test_leaves_the_distance_block_as_it_is(self):
        # kf_gradient takes both finite-difference losses from one block
        rng = np.random.default_rng(14)
        X, labels = three_blobs(rng)
        (full, half), = draw_kf_batches(rng, labels, 1, 0.5)
        D_ff = kernel.cdist(X[full], X[full])
        before = D_ff.copy()
        assert np.isfinite(kf_loss(D_ff, labels, KernelSpec("matern52", 2.0), 3, full, half))
        assert D_ff.tobytes() == before.tobytes()

    def test_degenerate_half_batch_gives_inf(self):
        rng = np.random.default_rng(13)
        X, labels = three_blobs(rng, n_per=4)
        half = np.array([0, 1, 4, 5, 8, 9])
        X[half] = X[0]  # every half-batch row alike: its Gram matrix centers to zero
        batches = [(np.sort(np.concatenate([half, [2, 6, 10]])), half)]
        D = cdist(X, X)
        for family in KERNEL_FAMILIES:
            spec = KernelSpec(family, 0.5)
            events = set()
            assert reference_kf_loss(X, labels, spec, 3, batches, events) == float("inf")
            assert events == {"inf"}
            assert batch_losses(D, labels, spec, 3, batches) == [float("inf")]

    def test_half_outside_batch_rejected(self):
        rng = np.random.default_rng(14)
        X, labels = three_blobs(rng, n_per=4)
        batches = [(np.arange(0, 12, 2), np.array([0, 1, 4]))]
        with pytest.raises(ValueError, match="half-batch"):
            batch_losses(cdist(X, X), labels, KernelSpec("gaussian", 1.0), 2, batches)

    def test_optimizer_matches_loss_from_spectra(self, monkeypatch):
        rng = np.random.default_rng(15)
        X, labels = three_blobs(rng)
        cfg = KfConfig(learning_rate=0.05, momentum=0.8, iterations=4,
                       subsamplings_per_iter=5, a_grid=(1, 2, 3, 4))
        spec0 = KernelConfig("matern52", float(np.median(pdist(X))))
        fast = kf_optimize(X, labels, spec0, cfg, seed=3, processes=1)
        monkeypatch.setattr(kernel, "kf_loss", lambda D_ff, labels, spec, a, full, half:
                            reference_kf_loss(X, labels, spec, a, [(full, half)]))
        slow = kf_optimize(X, labels, spec0, cfg, seed=3, processes=1)
        np.testing.assert_array_equal(fast.trace, slow.trace)
        assert fast.spec == slow.spec
        assert fast.a_star == slow.a_star

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_r2_by_a_equals_fit_and_predict(self, family):
        rng = np.random.default_rng(16)
        X, labels = three_blobs(rng)
        cfg = KfConfig(iterations=2, subsamplings_per_iter=4, a_grid=(1, 2, 3, 5, 8))
        result = kf_optimize(X, labels, KernelConfig(family, 2.0), cfg, seed=1, processes=1)
        Y = pls.encode_da(labels).indicators
        tss = float(np.sum((Y - Y.mean(axis=0)) ** 2))
        expected = {}
        for a in (1, 2, 3, 5, 8):
            model = fit_kernel_pls(X, labels, result.spec, a)
            expected[a] = 1.0 - float(np.sum((Y - plain_indicators(model, X)) ** 2)) / tss
        assert result.r2_by_a == expected


class TestKfOptimize:
    def test_config_defaults_match_reported_settings(self):
        cfg = KfConfig()
        assert cfg.learning_rate == 0.1
        assert cfg.momentum == 0.9
        assert cfg.iterations == 150
        assert cfg.subsamplings_per_iter == 20
        assert cfg.batch_ratio == 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError, match="batch_ratio"):
            KfConfig(batch_ratio=1.0)
        with pytest.raises(ValueError, match="iterations"):
            KfConfig(iterations=0)
        with pytest.raises(ValueError, match="momentum"):
            KfConfig(momentum=1.0)

    def test_gradient_richardson_consistency(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            centers = rng.normal(scale=3.0, size=(3, 2))
            X = np.vstack([c + 0.4 * rng.normal(size=(12, 2)) for c in centers])
            labels = np.repeat([0, 1, 2], 12)
            batches = draw_kf_batches(rng, labels, 8, 0.5)
            ell = float(np.median(pdist(X))) * rng.uniform(0.5, 2.0)
            spec = KernelSpec("gaussian", ell)
            with kernel._BatchProcesses(cdist(X, X), labels, 3, processes=1) as processes:
                g_coarse = kf_gradient(processes, spec, batches, step=1e-4)[1]
                g_fine = kf_gradient(processes, spec, batches, step=5e-5)[1]
            assert abs(g_coarse - g_fine) <= 1e-3 * max(abs(g_fine), 1e-6)

    def test_recovers_grid_search_lengthscale(self):
        # pinned blob benchmark: fine class structure inside a wide domain
        rng = np.random.default_rng(5)
        X, labels = checkerboard(rng)
        batch_rng = np.random.default_rng(7)
        batches = draw_kf_batches(batch_rng, labels, 40, 0.5)
        grid = np.exp(np.linspace(np.log(0.05), np.log(3.0), 25))
        D = cdist(X, X)
        losses = [np.mean(batch_losses(D, labels, KernelSpec("gaussian", g), 8, batches))
                  for g in grid]
        ell_star = float(grid[int(np.argmin(losses))])

        cfg = KfConfig(learning_rate=0.02, momentum=0.8, iterations=25,
                       subsamplings_per_iter=40, a_grid=tuple(range(1, 9)))
        result = kf_optimize(X, labels, KernelConfig("gaussian", 3.0 * ell_star), cfg, seed=11,
                             processes=1)
        ratio = result.spec.lengthscale / ell_star
        assert 0.5 <= ratio <= 2.0
        moving = np.convolve(result.trace[:, 1], np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(moving) <= 1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(10)
        X, labels = checkerboard(rng, cells=4, n_per=4)
        cfg = KfConfig(learning_rate=0.05, momentum=0.8, iterations=6,
                       subsamplings_per_iter=8, a_grid=(1, 2, 3))
        r1 = kf_optimize(X, labels, KernelConfig("gaussian", 0.8), cfg, seed=21, processes=1)
        r2 = kf_optimize(X, labels, KernelConfig("gaussian", 0.8), cfg, seed=21, processes=1)
        np.testing.assert_array_equal(r1.trace, r2.trace)
        assert r1.spec.lengthscale == r2.spec.lengthscale
        assert r1.a_star == r2.a_star

    def test_latent_count_matches_class_rank(self):
        # 4 tight well-separated classes: indicator space has rank 3, so the
        # external loop must settle on 3 latent variables
        rng = np.random.default_rng(8)
        centers = np.array([[0, 0], [6, 0], [0, 6], [6, 6]], dtype=float)
        X = np.vstack([c + 0.05 * rng.normal(size=(25, 2)) for c in centers])
        labels = np.repeat([0, 1, 2, 3], 25)
        cfg = KfConfig(learning_rate=0.02, momentum=0.8, iterations=10,
                       subsamplings_per_iter=10, a_grid=tuple(range(1, 7)))
        result = kf_optimize(X, labels, KernelConfig("gaussian", 3.0), cfg, seed=2, processes=1)
        assert result.a_star == 3
        assert result.r2_by_a[3] == pytest.approx(1.0, abs=1e-3)
        assert result.r2_by_a[2] < 0.9

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_returns_the_fit_at_a_star(self, family):
        # oracle: refit at the learned kernel and a*, then classify the training rows
        X, labels = three_blobs(np.random.default_rng(19))
        cfg = KfConfig(iterations=2, subsamplings_per_iter=4, a_grid=(1, 2, 3, 5))
        result = kf_optimize(X, labels, KernelConfig(family, 2.0), cfg, seed=4, processes=1)
        oracle = fit_kernel_pls(X, labels, result.spec, result.a_star)
        assert result.model.a == oracle.a and result.model.kernel == oracle.kernel
        for name in ("support", "dual_coef", "y_means", "classes"):
            assert np.array_equal(getattr(result.model, name), getattr(oracle, name)), name
        assert np.array_equal(result.model.center_stats.col_means, oracle.center_stats.col_means)
        assert result.model.center_stats.mean_all == oracle.center_stats.mean_all
        assert np.array_equal(result.predicted, classify(oracle, X)[0])

    def test_null_lengthscale_starts_at_median_nonzero_distance(self):
        X, labels = three_blobs(np.random.default_rng(20))
        X = np.vstack([X, X[:5]])  # repeated rows put zeros among the distances
        labels = np.concatenate([labels, labels[:5]])
        cfg = KfConfig(iterations=1, subsamplings_per_iter=2, a_grid=(1, 2))
        result = kf_optimize(X, labels, KernelConfig("gaussian"), cfg, seed=0, processes=1)
        d = pdist(X)
        assert result.initial_lengthscale == pytest.approx(float(np.median(d[d > 0])), rel=1e-12)
        assert result.trace[0, 2] == pytest.approx(result.initial_lengthscale, rel=1e-12)

    def test_null_lengthscale_on_identical_spectra_rejected(self):
        X, labels = np.ones((8, 3)), np.repeat([0, 1], 4)
        with pytest.raises(ValueError, match="sampled spectra are identical"):
            kf_optimize(X, labels, KernelConfig("gaussian"), KfConfig(iterations=1), seed=0,
                        processes=1)

    def test_identical_spectra_with_a_lengthscale_rejected(self):
        X, labels = np.ones((8, 3)), np.repeat([0, 1], 4)
        with pytest.raises(ValueError, match="median pairwise distance is zero"):
            kf_optimize(X, labels, KernelConfig("gaussian", 1.0), KfConfig(iterations=1), seed=0,
                        processes=1)

    def test_working_set_is_one_distance_matrix_and_batch_blocks(self):
        # the fit holds its n x n distances (then their Gram matrix, in the same
        # cells), a copy of their upper triangle before the descent, and during
        # it a batch's blocks of a quarter of the cells each and row blocks
        rng = np.random.default_rng(44)
        n, bound = 600, 2.5  # float64 cells per n^2
        centers = rng.normal(scale=2.0, size=(3, 8))
        X = np.vstack([c + 0.5 * rng.normal(size=(n // 3, 8)) for c in centers])
        labels = np.repeat([0, 1, 2], n // 3)
        cfg = KfConfig(iterations=2, subsamplings_per_iter=2)
        # first call: np.median imports numpy.ma, about 1 MB that a fit holds once
        kf_optimize(X, labels, KernelConfig("matern52"), cfg, seed=0, processes=1)
        tracemalloc.start()
        try:
            kf_optimize(X, labels, KernelConfig("matern52"), cfg, seed=0, processes=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n * n, peak / (8 * n * n)

    def test_non_finite_loss_raises_at_once(self, monkeypatch):
        # the lengthscale is always in range, so nothing is retried: the two
        # finite-difference losses, then the error, and no warning
        X, labels = three_blobs(np.random.default_rng(22))
        calls = []

        def infinite_loss(*args):
            calls.append(args)
            return np.inf

        monkeypatch.setattr(kernel, "kf_loss", infinite_loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KfConvergenceError, match="non-finite"):
                kf_optimize(X, labels, KernelConfig("gaussian", 2.0), KfConfig(iterations=3),
                            seed=0, processes=1)
        assert len(calls) == 2

    def test_non_finite_loss_raises_at_once_on_three_processes(self, monkeypatch):
        # each process takes no loss after a non-finite one: the caller at most
        # one batch's two, and no helper is left
        X, labels = three_blobs(np.random.default_rng(22))
        calls = []

        def infinite_loss(*args):
            calls.append(args)
            return np.inf

        monkeypatch.setattr(kernel, "kf_loss", infinite_loss)
        with no_helper_left():
            with pytest.raises(KfConvergenceError, match="non-finite"):
                kf_optimize(X, labels, KernelConfig("gaussian", 2.0), KfConfig(iterations=3),
                            seed=0, processes=3)
        assert len(calls) in (0, 2)

    def test_lists_give_the_bits_of_arrays(self):
        X, labels = three_blobs(np.random.default_rng(23))
        cfg = KfConfig(iterations=2, subsamplings_per_iter=3, a_grid=(1, 2, 3))
        arrays = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), cfg, seed=6, processes=1)
        lists = kf_optimize(X.tolist(), labels.tolist(), KernelConfig("gaussian", 2.0), cfg,
                            seed=6, processes=1)
        assert lists.trace.tobytes() == arrays.trace.tobytes()
        assert lists.model.dual_coef.tobytes() == arrays.model.dual_coef.tobytes()

    def test_batches_too_small_for_one_factor_rejected(self):
        # 4 rows of one class: half-batches of 1 row leave no latent variable
        X, labels = np.arange(8.0).reshape(4, 2), np.zeros(4, dtype=int)
        with pytest.raises(ValueError, match="batches too small"):
            kf_optimize(X, labels, KernelConfig("gaussian", 1.0), KfConfig(iterations=1), seed=0,
                        processes=1)

    def test_factors_past_the_kernels_rank_have_no_r2(self):
        # 4 distinct spectra: the centered Gram matrix has rank 3
        X = np.repeat(np.random.default_rng(26).normal(size=(4, 3)) * 3, 8, axis=0)
        labels = np.repeat([0, 0, 1, 1], 8)
        cfg = KfConfig(iterations=2, subsamplings_per_iter=2, a_grid=(1, 2, 3, 4, 5))
        result = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), cfg, seed=0, processes=1)
        assert [result.r2_by_a[a] is None for a in cfg.a_grid] == [False] * 3 + [True] * 2

    def test_no_fit_on_the_grid_raises(self, monkeypatch):
        # the batches' fits work; the fit on every training row does not
        X, labels = three_blobs(np.random.default_rng(24))
        fit = kernel._fit_nested

        def degenerate_on_every_row(K, *args):
            if K.shape[0] == X.shape[0]:
                raise ValueError("degenerate kernel")
            return fit(K, *args)

        monkeypatch.setattr(kernel, "_fit_nested", degenerate_on_every_row)
        cfg = KfConfig(iterations=1, subsamplings_per_iter=2, a_grid=(1, 2))
        with pytest.raises(KfConvergenceError, match="no feasible latent-variable count"):
            kf_optimize(X, labels, KernelConfig("gaussian", 2.0), cfg, seed=0, processes=1)

    def test_each_iteration_logged_at_debug(self, caplog):
        X, labels = three_blobs(np.random.default_rng(18))
        cfg = KfConfig(iterations=3, subsamplings_per_iter=4, a_grid=(1, 2))
        with caplog.at_level(logging.DEBUG, logger="spectral_sift.kernel"):
            result = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), cfg, seed=2, processes=1)
        records = [r for r in caplog.records if r.name == "spectral_sift.kernel"]
        assert len(records) == cfg.iterations
        for record, (it, rho, ell) in zip(records, result.trace):
            assert record.levelno == logging.DEBUG
            assert record.getMessage() == (
                f"Kernel Flows iteration {int(it)}: mean_rho={rho:.6g} lengthscale={ell:.6g}"
            )

    def test_xor_tuning_reaches_perfect_training_accuracy(self):
        rng = np.random.default_rng(3)
        X, labels = xor_data(rng)
        ell0 = float(np.median(pdist(X)))
        cfg = KfConfig(learning_rate=0.05, momentum=0.8, iterations=40,
                       subsamplings_per_iter=20, a_grid=tuple(range(1, 9)))
        result = kf_optimize(X, labels, KernelConfig("gaussian", ell0), cfg, seed=5, processes=1)
        model = fit_kernel_pls(X, labels, result.spec, result.a_star)
        predicted, _ = classify(model, X)
        assert np.mean(predicted == labels) == 1.0


def open_fds():
    """This process's open file descriptors, None where /proc does not list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@contextmanager
def no_helper_left():
    """Asserts that the block leaves no child process, reaped or not, no
    ResourceWarning (an unclosed pipe file) and no file descriptor open that
    was not open before it, also when it raises."""
    fds = open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            gc.collect()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert open_fds() == fds
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def forks_counted(monkeypatch):
    """The pids of the processes forked from here on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def slow_in_the_caller(monkeypatch, in_helper):
    """Patch kf_loss: the calling process takes each loss 20 ms late, so its
    helpers claim batches too, and a helper runs ``in_helper`` first."""
    caller, loss = os.getpid(), kernel.kf_loss

    def patched(*args):
        if os.getpid() == caller:
            time.sleep(0.02)
        else:
            in_helper()
        return loss(*args)

    monkeypatch.setattr(kernel, "kf_loss", patched)


def raise_unpicklable():
    """Raises an error that pickle cannot send: its argument is a lambda."""
    raise ValueError(lambda: None)


class TestBatchProcesses:
    """Kernel Flows batch losses claimed by the caller and forked helpers."""

    CFG = KfConfig(iterations=3, subsamplings_per_iter=5, a_grid=(1, 2, 3))

    @pytest.mark.parametrize("family", ["gaussian", "matern52"])
    def test_any_process_count_gives_the_bits_of_one(self, family, monkeypatch):
        X, labels = three_blobs(np.random.default_rng(31))
        forks = forks_counted(monkeypatch)
        results = {}
        for processes in (1, 2, 3, 7):  # 7 > 5 batches: 4 helpers
            with no_helper_left():
                results[processes] = kf_optimize(X, labels, KernelConfig(family, 2.0), self.CFG,
                                                 seed=5, processes=processes)
        assert len(forks) == 0 + 1 + 2 + 4
        one = results[1]
        for result in results.values():
            assert result.trace.tobytes() == one.trace.tobytes()
            assert result.spec == one.spec and result.a_star == one.a_star
            assert result.model.dual_coef.tobytes() == one.model.dual_coef.tobytes()
            assert result.predicted.tobytes() == one.predicted.tobytes()

    def test_one_batch_forks_nothing(self, monkeypatch):
        X, labels = three_blobs(np.random.default_rng(32))
        forks = forks_counted(monkeypatch)
        cfg = KfConfig(iterations=2, subsamplings_per_iter=1, a_grid=(1, 2))
        one = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), cfg, seed=1, processes=1)
        three = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), cfg, seed=1, processes=3)
        assert forks == []
        assert three.trace.tobytes() == one.trace.tobytes()

    def test_a_second_python_thread_forks_nothing(self, monkeypatch):
        X, labels = three_blobs(np.random.default_rng(33))
        forks = forks_counted(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            result = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), self.CFG, seed=2,
                                 processes=3)
        finally:
            release.set()
            thread.join()
        assert forks == []
        one = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), self.CFG, seed=2, processes=1)
        assert result.trace.tobytes() == one.trace.tobytes()

    def test_more_batches_than_a_round_keep_the_bits(self, monkeypatch):
        # rounds of 3 batches: 8 batches take three rounds a gradient
        X, labels = three_blobs(np.random.default_rng(34))
        monkeypatch.setattr(kernel, "_ROUND", 3)
        cfg = KfConfig(iterations=2, subsamplings_per_iter=8, a_grid=(1, 2))
        with no_helper_left():
            three = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), cfg, seed=3,
                                processes=3)
        monkeypatch.setattr(kernel, "_ROUND", 128)
        one = kf_optimize(X, labels, KernelConfig("gaussian", 2.0), cfg, seed=3, processes=1)
        assert three.trace.tobytes() == one.trace.tobytes()

    def test_a_failed_fork_closes_every_pipe_and_reaps_the_helpers(self, monkeypatch):
        X, labels = three_blobs(np.random.default_rng(39))
        fork, calls = os.fork, []

        def second_fails():
            calls.append(1)
            if len(calls) == 2:
                raise OSError("fork failed")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        with no_helper_left():
            with pytest.raises(OSError, match="fork failed"):
                kf_optimize(X, labels, KernelConfig("gaussian", 2.0), self.CFG, seed=4,
                            processes=3)
        assert len(calls) == 2

    def test_a_helpers_error_is_raised_by_the_caller(self, monkeypatch):
        def fail():
            raise ValueError("helper failed")

        X, labels = three_blobs(np.random.default_rng(35))
        slow_in_the_caller(monkeypatch, fail)
        with no_helper_left():
            with pytest.raises(ValueError, match="helper failed"):
                kf_optimize(X, labels, KernelConfig("gaussian", 2.0), self.CFG, seed=4,
                            processes=2)

    def test_a_helper_ignores_sigint(self, monkeypatch):
        # an interrupt from a terminal reaches the whole process group: the
        # caller's KeyboardInterrupt ends the helpers, which take none of their own
        def check():
            if signal.getsignal(signal.SIGINT) != signal.SIG_IGN:
                raise ValueError("SIGINT reaches a helper")

        X, labels = three_blobs(np.random.default_rng(45))
        slow_in_the_caller(monkeypatch, check)
        with no_helper_left():
            kf_optimize(X, labels, KernelConfig("gaussian", 2.0), self.CFG, seed=4, processes=2)

    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(3), 3),
        (lambda: os.kill(os.getpid(), signal.SIGTERM), -signal.SIGTERM),  # its default action
        (raise_unpicklable, 1),  # leaves by an error it cannot send
    ], ids=["exit", "sigterm", "unpicklable-error"])
    def test_a_helper_that_dies_is_named_with_its_exit_status(self, end, status, monkeypatch):
        X, labels = three_blobs(np.random.default_rng(36))
        slow_in_the_caller(monkeypatch, end)
        with no_helper_left():
            with pytest.raises(RuntimeError, match="helper process [0-9]+ ended early, "
                                                   f"exit status {status}$"):
                kf_optimize(X, labels, KernelConfig("gaussian", 2.0), self.CFG, seed=4,
                            processes=2)

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_non_finite_loss_gives_inf_and_nan(self, bad, processes, monkeypatch):
        # one of the two losses of every batch is non-finite: the gradient is
        # (inf, nan) whatever the value and whichever process took the batch
        X, labels = three_blobs(np.random.default_rng(40))
        loss = kernel.kf_loss

        def down_is_bad(D_ff, labels, spec, a, full, half):
            return bad if spec.lengthscale < 2.0 else loss(D_ff, labels, spec, a, full, half)

        monkeypatch.setattr(kernel, "kf_loss", down_is_bad)
        batches = draw_kf_batches(np.random.default_rng(41), labels, 6, 0.5)
        with no_helper_left(), kernel._BatchProcesses(kernel.cdist(X, X), labels, 3,
                                                      processes) as batch_processes:
            result = kf_gradient(batch_processes, KernelSpec("gaussian", 2.0), batches, 1e-4)
        assert result[0] == float("inf") and np.isnan(result[1])

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="a Linux subreaper")
    def test_helpers_leave_when_the_caller_is_killed(self, tmp_path):
        # the caller dies by SIGKILL, closing nothing: each helper holds no other
        # end of its pipes, so it sees their end and leaves. A subreaper (this
        # script) adopts the helpers, to see them leave and reap them.
        caller = """
import numpy as np
from spectral_sift import kernel
rng = np.random.default_rng(42)
X = np.vstack([c + 0.4 * rng.normal(size=(14, 4)) for c in rng.normal(scale=3.0, size=(3, 4))])
kernel.kf_optimize(X, np.repeat([0, 1, 2], 14), kernel.KernelConfig("gaussian", 2.0),
                   kernel.KfConfig(iterations=100_000, subsamplings_per_iter=6), 4, 3)
"""
        subreaper = """
import ctypes, json, os, signal, subprocess, sys, time
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
caller = subprocess.Popen([sys.executable, "-c", sys.argv[1]])
children = f"/proc/{caller.pid}/task/{caller.pid}/children"
helpers, deadline = [], time.monotonic() + 60
while len(helpers) < 2 and time.monotonic() < deadline:
    time.sleep(0.01)
    helpers = [int(pid) for pid in open(children).read().split()]
time.sleep(0.3)
caller.kill()
caller.wait()
left, deadline = set(helpers), time.monotonic() + 20
while left and time.monotonic() < deadline:
    pid, _ = os.waitpid(-1, os.WNOHANG)
    left.discard(pid)
    time.sleep(0.01 if pid == 0 else 0)
for pid in left:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
print(json.dumps({"helpers": len(helpers), "left": len(left)}))
"""
        src = str(Path(kernel.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", subreaper, caller], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"helpers": 2, "left": 0}

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_the_caller_raising_mid_iteration_leaves_no_helper(self, error, monkeypatch):
        # the helpers are at work, each loss a minute long, when the caller
        # raises at its second loss: it kills them rather than wait for them
        X, labels = three_blobs(np.random.default_rng(37))
        caller, loss, calls = os.getpid(), kernel.kf_loss, []

        def patched(*args):
            if os.getpid() == caller:
                calls.append(args)
                if len(calls) == 2:
                    raise error("caller failed")
            else:
                time.sleep(60)
            return loss(*args)

        monkeypatch.setattr(kernel, "kf_loss", patched)
        start = time.monotonic()
        with no_helper_left():
            with pytest.raises(error, match="caller failed"):
                kf_optimize(X, labels, KernelConfig("gaussian", 2.0), self.CFG, seed=4,
                            processes=3)
        assert time.monotonic() - start < 30

    def test_a_helper_that_ended_between_rounds_is_named(self):
        X, labels = three_blobs(np.random.default_rng(43))
        batches = draw_kf_batches(np.random.default_rng(44), labels, 4, 0.5)
        specs = (KernelSpec("gaussian", 2.0), KernelSpec("gaussian", 1.5))
        with no_helper_left(), kernel._BatchProcesses(kernel.cdist(X, X), labels, 3,
                                                      3) as batch_processes:
            assert len(batch_processes.losses(specs, batches)) == 4
            os.kill(batch_processes._helpers[0].pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match=f"exit status {-signal.SIGKILL}$"):
                batch_processes.losses(specs, batches)

    @pytest.mark.parametrize("fails", [False, True], ids=["done", "error-it-cannot-send"])
    def test_a_helper_runs_no_exit_handler_of_the_caller(self, fails, tmp_path):
        # a helper leaves through os._exit, also when it cannot send the error
        # that stopped it: the caller's finally and atexit handlers run once, in
        # the caller, and its unflushed stdout is written once
        script = f"""
import atexit, os, sys
import numpy as np
from spectral_sift import kernel
log = open({str(tmp_path / "log")!r}, "a", buffering=1)
atexit.register(lambda: log.write(f"atexit {{os.getpid()}}\\n"))
loss, caller = kernel.kf_loss, os.getpid()
def traced(*args):
    log.write(f"loss {{os.getpid()}}\\n")
    if {fails!r} and os.getpid() != caller:
        raise ValueError(lambda: None)
    return loss(*args)
kernel.kf_loss = traced
rng = np.random.default_rng(38)
X = np.vstack([c + 0.4 * rng.normal(size=(14, 4)) for c in rng.normal(scale=3.0, size=(3, 4))])
sys.stdout.write("once")
try:
    kernel.kf_optimize(X, np.repeat([0, 1, 2], 14), kernel.KernelConfig("gaussian", 2.0),
                       kernel.KfConfig(iterations=3, subsamplings_per_iter=40), 4, 2)
finally:
    log.write(f"finally {{os.getpid()}}\\n")
"""
        src = str(Path(kernel.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        if fails:
            assert out.returncode == 1 and out.stderr.rstrip().endswith("exit status 1")
        else:
            assert out.returncode == 0, out.stderr
        assert out.stdout == "once"
        events = [line.split() for line in (tmp_path / "log").read_text().splitlines()]
        losses = {pid for kind, pid in events if kind == "loss"}
        ends = [(kind, pid) for kind, pid in events if kind != "loss"]
        caller = ends[0][1]
        assert ends == [("finally", caller), ("atexit", caller)]
        assert caller in losses and len(losses) == 2  # the helper took losses too


class TestPairMedians:
    """The lengthscale medians against np.median of the upper triangle."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 40])
    @pytest.mark.parametrize("design", ["distinct", "one-copy", "three-quarters-equal",
                                        "all-but-one-equal", "all-equal"])
    def test_bits_of_np_median(self, n, design):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        if design == "one-copy":
            X[0] = X[-1]
        elif design == "three-quarters-equal":  # at 40 rows, most distances are zero
            X[:n * 3 // 4] = X[0]
        elif design == "all-but-one-equal":
            X[1:] = X[1]
        elif design == "all-equal":
            X[:] = X[0]
        D = kernel.cdist(X, X)
        D_before = D.copy()
        upper = D[np.triu_indices(n, 1)]
        nonzero = upper[upper > 0]
        med, med_nonzero = kernel._pair_medians(D)
        assert np.float64(med).tobytes() == np.median(upper).tobytes()
        if nonzero.size == 0:
            assert med_nonzero is None
        else:
            assert np.float64(med_nonzero).tobytes() == np.median(nonzero).tobytes()
        assert D.tobytes() == D_before.tobytes()

    def test_one_row_has_no_pairs(self):
        med, med_nonzero = kernel._pair_medians(np.zeros((1, 1)))
        assert np.isnan(med) and med_nonzero is None


def test_save_loss_trace(tmp_path):
    trace = np.array([[1, 0.5, 2.0], [2, 0.25, 1.5]])
    save_loss_trace(trace, tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,mean_rho,lengthscale"
    assert lines[1].startswith("1,0.5,")
    assert len(lines) == 3


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded on the first distance computation, not by importing the CLI
    src = str(Path(kernel.__file__).resolve().parents[1])
    code = ("import sys, spectral_sift.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"

