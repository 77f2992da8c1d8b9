"""SIMPLS partial least squares and discriminant-analysis encoding.

The factorization deflates the X'Y cross-product matrix (never X itself), so
weight vectors apply to the original data and X-scores come out mutually
orthogonal. Regression coefficients are assembled as b = W (P'W)^-1 Q'.

Inputs are autoscaled internally by default; pass ``scale=False`` when the
caller has already centered/scaled (covariance-procedure selection does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preprocess import ScaleModel, apply_scale, fit_scale, invert_scale

#: condition-number guard for inverting P'W
MAX_CONDITION = 1e12


class DegenerateDataError(ValueError):
    """Cross-product matrix exhausted before reaching the requested factors."""


@dataclass(frozen=True)
class PlsModel:
    weights: np.ndarray  # W (vars, a): T = X_scaled @ W
    x_loadings: np.ndarray  # P (vars, a)
    y_loadings: np.ndarray  # Q (responses, a)
    x_scores: np.ndarray  # T (rows, a), unit-norm orthogonal columns
    x_scale: ScaleModel | None
    y_scale: ScaleModel | None
    y_1d: bool

    @property
    def a(self) -> int:
        return self.weights.shape[1]

    @property
    def n_vars(self) -> int:
        return self.weights.shape[0]


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


def _dominant_right_vector(S: np.ndarray) -> np.ndarray:
    """Dominant eigenvector of S'S with a deterministic sign."""
    M = S.T @ S
    _, vecs = np.linalg.eigh(M)
    q = vecs[:, -1]
    pivot = np.argmax(np.abs(q))
    if q[pivot] < 0:
        q = -q
    return q


def fit_simpls(X: np.ndarray, Y: np.ndarray, a: int, scale: bool = True) -> PlsModel:
    """Fit a SIMPLS model with ``a`` latent variables.

    Each factor maximizes the covariance between its X-score and the
    remaining Y structure, subject to orthogonality with earlier X-scores.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    y_1d = Y.ndim == 1
    if y_1d:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"X {X.shape} and Y {Y.shape} must share their row count")
    n, p = X.shape
    if not 1 <= a <= min(n - 1, p):
        raise ValueError(f"a must be in [1, {min(n - 1, p)}] for a {n}x{p} matrix, got {a}")

    if scale:
        x_scale = fit_scale(X)
        y_scale = fit_scale(Y)
        if np.all(y_scale.flagged):
            raise ValueError("Y has zero variance")
        Xw = apply_scale(x_scale, X)
        Yw = apply_scale(y_scale, Y)
    else:
        x_scale = None
        y_scale = None
        if float(np.max(np.abs(Y - Y.mean(axis=0)))) == 0.0:
            raise ValueError("Y has zero variance")
        Xw = X
        Yw = Y

    S = Xw.T @ Yw
    W = np.empty((p, a))
    P = np.empty((p, a))
    Q = np.empty((Yw.shape[1], a))
    T = np.empty((n, a))
    V = np.zeros((p, a))  # orthonormal basis of past X-loadings, for deflating S
    scale_ref = float(np.linalg.norm(Xw)) * max(1.0, float(np.linalg.norm(Yw)))

    for i in range(a):
        r = S @ _dominant_right_vector(S)
        t = Xw @ r
        normt = float(np.linalg.norm(t))
        if normt <= 1e-12 * max(scale_ref, 1.0):
            raise DegenerateDataError(
                f"cross-product matrix exhausted at factor {i + 1} of {a} "
                "(rank-deficient or constant data)"
            )
        t /= normt
        r /= normt
        W[:, i] = r
        T[:, i] = t
        P[:, i] = Xw.T @ t
        Q[:, i] = Yw.T @ t
        v = P[:, i].copy()
        if i > 0:
            v -= V[:, :i] @ (V[:, :i].T @ v)
        v /= np.linalg.norm(v)
        V[:, i] = v
        S = S - v[:, None] @ (v[None, :] @ S)

    return PlsModel(
        weights=W, x_loadings=P, y_loadings=Q, x_scores=T,
        x_scale=x_scale, y_scale=y_scale, y_1d=y_1d,
    )


def regression_coefficients(model: PlsModel) -> np.ndarray:
    """b = W (P'W)^-1 Q', mapping scaled X to scaled Y.

    P'W is solved, not pseudo-inverted; a condition number beyond the guard
    means redundant latent variables and is reported instead of smoothed over.
    """
    M = model.x_loadings.T @ model.weights
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise np.linalg.LinAlgError(
            f"P'W is singular (condition {cond:.3e}); latent variables are redundant"
        )
    return model.weights @ np.linalg.solve(M, model.y_loadings.T)


def predict(model: PlsModel, X_new: np.ndarray) -> np.ndarray:
    """Responses for new rows via the regression-coefficient path."""
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2 or X_new.shape[1] != model.n_vars:
        raise ValueError(f"expected {model.n_vars} columns, got shape {X_new.shape}")
    b = regression_coefficients(model)
    Xw = apply_scale(model.x_scale, X_new) if model.x_scale is not None else X_new
    Yw = Xw @ b
    Y = invert_scale(model.y_scale, Yw) if model.y_scale is not None else Yw
    return Y[:, 0] if model.y_1d else Y

