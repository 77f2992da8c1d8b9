"""SIMPLS partial least squares and discriminant-analysis encoding.

The factorization deflates the X'Y cross-product matrix (never X itself), so
weight vectors apply to the original data and X-scores come out mutually
orthogonal.

The fit takes X and Y as given: the caller centers or autoscales them first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class DegenerateDataError(ValueError):
    """Cross-product matrix exhausted before reaching the requested factors."""


@dataclass(frozen=True)
class PlsModel:
    weights: np.ndarray  # W (vars, a): T = X @ W
    x_loadings: np.ndarray  # P (vars, a)
    y_loadings: np.ndarray  # Q (responses, a)
    x_scores: np.ndarray  # T (rows, a), unit-norm orthogonal columns

    @property
    def a(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class DaEncoding:
    """One indicator column per class; class order is sorted and stable."""

    classes: np.ndarray
    indicators: np.ndarray  # (rows, n_classes) of 0/1


def encode_da(labels: np.ndarray) -> DaEncoding:
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("discriminant encoding needs at least 2 classes")
    Y = (labels[:, None] == classes[None, :]).astype(np.float64)
    return DaEncoding(classes=classes, indicators=Y)


def decode_da(classes: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Row-wise argmax of predicted indicators, one column per entry of
    ``classes``; ties go to the lowest class index."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y_hat.ndim != 2 or y_hat.shape[1] != classes.size:
        raise ValueError(f"expected {classes.size} indicator columns, got {y_hat.shape}")
    return classes[np.argmax(y_hat, axis=1)]


def dominant_eigenvector(M: np.ndarray) -> np.ndarray:
    """Dominant eigenvector of the symmetric matrix M, its largest-magnitude
    entry made positive."""
    _, vecs = np.linalg.eigh(M)
    q = vecs[:, -1]
    pivot = np.argmax(np.abs(q))
    if q[pivot] < 0:
        q = -q
    return q


def fit_simpls(X: np.ndarray, Y: np.ndarray, a: int) -> PlsModel:
    """Fit a SIMPLS model with ``a`` latent variables to X and Y as given.

    Each factor maximizes the covariance between its X-score and the
    remaining Y structure, subject to orthogonality with earlier X-scores.
    A 1-D Y is one response column. A score norm of at most 1e-12 ||X||^2
    ||Y|| (Frobenius norms; the scale of a rounding-level score X X'Y v)
    raises :class:`DegenerateDataError`.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"X {X.shape} and Y {Y.shape} must share their row count")
    n, p = X.shape
    if not 1 <= a <= min(n - 1, p):
        raise ValueError(f"a must be in [1, {min(n - 1, p)}] for a {n}x{p} matrix, got {a}")
    if float(np.max(np.abs(Y - Y.mean(axis=0)))) == 0.0:
        raise ValueError("Y has zero variance")

    S = X.T @ Y
    W = np.empty((p, a))
    P = np.empty((p, a))
    Q = np.empty((Y.shape[1], a))
    T = np.empty((n, a))
    V = np.zeros((p, a))  # orthonormal basis of past X-loadings, for deflating S
    bound = 1e-12 * float(np.linalg.norm(X)) ** 2 * float(np.linalg.norm(Y))

    for i in range(a):
        r = S @ dominant_eigenvector(S.T @ S)
        t = X @ r
        normt = float(np.linalg.norm(t))
        if normt <= bound:
            raise DegenerateDataError(
                f"cross-product matrix exhausted at factor {i + 1} of {a} "
                "(rank-deficient or constant data)"
            )
        t /= normt
        r /= normt
        W[:, i] = r
        T[:, i] = t
        P[:, i] = X.T @ t
        Q[:, i] = Y.T @ t
        v = P[:, i].copy()
        if i > 0:
            v -= V[:, :i] @ (V[:, :i].T @ v)
        v /= np.linalg.norm(v)
        V[:, i] = v
        S = S - v[:, None] @ (v[None, :] @ S)

    return PlsModel(weights=W, x_loadings=P, y_loadings=Q, x_scores=T)
