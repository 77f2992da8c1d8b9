"""Oracles of the PLS and band-selection tests.

SIMPLS regression coefficients and predictions turn a SIMPLS fit into
b = W (P'W)^-1 Q' and X @ b, so tests can compare a fit with least squares,
with primal PLS-DA and with the R^2 scans of band selection. The package
itself never predicts through b.

:func:`covproc_select_x_form` is the covariance procedure on the pixel
matrix X itself, deflating X between rounds: the oracle of
``wavesel.covproc_select``, which runs the same rounds on the cross-product.
"""

from typing import Iterable

import numpy as np

from spectral_sift.pls import DegenerateDataError, PlsModel
from spectral_sift.preprocess import apply_scale, fit_scale
from spectral_sift.wavesel import (
    METHOD_COVPROC,
    RoundTrace,
    SelectionReport,
    _first_near_max,
    _usable,
)

#: condition-number guard for inverting P'W
MAX_CONDITION = 1e12


def regression_coefficients(model: PlsModel) -> np.ndarray:
    """b = W (P'W)^-1 Q', mapping X to Y.

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
    """Responses (rows, responses) for new rows via the regression-coefficient
    path, in the units the model was fitted in."""
    X_new = np.asarray(X_new, dtype=np.float64)
    n_vars = model.weights.shape[0]
    if X_new.ndim != 2 or X_new.shape[1] != n_vars:
        raise ValueError(f"expected {n_vars} columns, got shape {X_new.shape}")
    return X_new @ regression_coefficients(model)


def covproc_select_x_form(X: np.ndarray, y: np.ndarray, rounds: int,
                          exclude: Iterable[int] = ()) -> SelectionReport:
    """Covariance-procedure rounds on X and y as given: the usable bands of X
    are autoscaled and y centered, each round's prefix scores t = X w are
    built band by band, and X is deflated by the kept score. A round whose
    full score X c has a norm of at most 1e-12 max(||X|| max(1, ||y||), 1)
    raises :class:`DegenerateDataError`."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    excluded = sorted(set(exclude))
    usable = _usable(X.shape[1], excluded)
    X = X[:, usable]  # a copy: excluded bands take no part, and it is deflated in place
    apply_scale(fit_scale(X), X, out=X)
    y = y - y.mean()
    norm_y = max(1.0, float(np.linalg.norm(y)))

    round_traces: list[RoundTrace] = []
    for r in range(1, rounds + 1):
        c = y @ X
        order = np.argsort(-np.abs(c), kind="stable")
        alphas = np.full(order.size, np.nan)
        scores = np.zeros(X.shape[0])
        for i, j in enumerate(order):
            scores += X[:, j] * c[j]
            tt = float(scores @ scores)
            if tt > 0:
                alphas[i] = abs(float(y @ scores)) / tt
        # the last prefix holds every usable band, so its score is X c
        if np.linalg.norm(scores) <= 1e-12 * max(np.linalg.norm(X) * norm_y, 1.0):
            raise DegenerateDataError(f"round {r}: the band/response covariances give no score")
        n = _first_near_max(alphas)  # smallest prefix among near-maximal alphas
        kept = order[: n + 1]
        w_r = np.zeros(X.shape[1])
        w_r[kept] = c[kept]
        t = X @ w_r
        X -= np.outer(t, X.T @ t / float(t @ t))
        round_traces.append(RoundTrace(r, [usable[j] for j in kept], alphas, n + 1))

    return SelectionReport(
        method=METHOD_COVPROC,
        selected=list(dict.fromkeys(b for rt in round_traces for b in rt.variables)),
        excluded=excluded, trace=[float(rt.alphas[rt.chosen_n - 1]) for rt in round_traces],
        rounds=round_traces,
    )
