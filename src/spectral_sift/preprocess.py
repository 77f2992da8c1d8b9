"""Column-wise autoscaling: center by band mean, divide by band std.

Standard deviations use the n-1 (sample) denominator. Bands whose std falls
below ``EPSILON`` are flagged and pass through centered but unscaled, so a
constant band cannot blow up the transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: standard deviation below which a band counts as constant
EPSILON = 1e-12


@dataclass(frozen=True)
class ScaleModel:
    means: np.ndarray
    stds: np.ndarray
    flagged: np.ndarray  # bands whose raw std was < EPSILON (std replaced by 1)

    @property
    def n_bands(self) -> int:
        return self.means.size

    def _check_width(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_bands:
            raise ValueError(f"expected a 2-D matrix with {self.n_bands} columns, got shape {X.shape}")
        return X


def fit_scale(X: np.ndarray) -> ScaleModel:
    """Fit per-column mean/std statistics on a calibration matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={X.ndim}")
    if X.shape[0] < 2:
        raise ValueError("autoscaling needs at least 2 rows")
    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=1)
    flagged = stds < EPSILON
    stds = np.where(flagged, 1.0, stds)
    return ScaleModel(means=means, stds=stds, flagged=flagged)


def apply_scale(model: ScaleModel, X: np.ndarray) -> np.ndarray:
    """(X - means) / stds, using the stored calibration statistics."""
    X = model._check_width(X)
    return (X - model.means) / model.stds


def invert_scale(model: ScaleModel, X: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`apply_scale`."""
    X = model._check_width(X)
    return X * model.stds + model.means
