"""SIMPLS regression coefficients and predictions, the oracle of the PLS tests.

These turn a SIMPLS fit into b = W (P'W)^-1 Q' and X @ b, so tests can
compare a fit with least squares, with primal PLS-DA and with the R^2 scans
of band selection. The package itself never predicts through b.
"""

import numpy as np

from spectral_sift.pls import PlsModel

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
