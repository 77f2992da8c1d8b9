"""Column-wise autoscaling: center by band mean, divide by band std.

Standard deviations use the n-1 (sample) denominator. Bands whose std falls
below ``EPSILON`` are flagged and pass through centered but unscaled, so a
constant band cannot blow up the transform.

The statistics and the autoscaled cross-product come from one pass over a
matrix's row tiles (:func:`scaled_cross_product`), merged pairwise as by
Chan, Golub and LeVeque ("Algorithms for computing the sample variance",
Am. Stat. 37, 1983). They agree with numpy's whole-matrix mean and
``std(ddof=1)`` to about 1e-14 of the std, not bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

#: standard deviation below which a band counts as constant
EPSILON = 1e-12


@dataclass(frozen=True)
class ScaleModel:
    means: np.ndarray
    stds: np.ndarray
    flagged: np.ndarray  # bands whose raw std was < EPSILON (std replaced by 1)


def scaled_cross_product(tiles: Iterable[np.ndarray]) -> tuple[ScaleModel, np.ndarray]:
    """Autoscaling statistics of a matrix fed in 2-D row tiles, and the
    cross-product XₛᵀXₛ of its autoscaled rows, from one pass over the tiles,
    which it overwrites.

    Every tile is shifted by the first tile's column means, so that a column
    far from zero loses no digits, and centered on its own means; its XᵀX
    then joins the running one by Chan's update, M += XᵀX + δδᵀ·n_a·n_b/n,
    with δ the tile's mean less the running mean. The stds come from M's
    diagonal, and M is divided by stdsᵢ·stdsⱼ (a flagged column's std is 1).
    """
    n, shift = 0, None
    for X in tiles:
        if shift is None:
            shift = X.mean(axis=0)
            mean, cross = np.zeros_like(shift), np.zeros((shift.size, shift.size))
        X -= shift
        m, tile_mean = X.shape[0], X.mean(axis=0)
        X -= tile_mean
        cross += X.T @ X
        delta = tile_mean - mean
        cross += np.outer(delta, delta * (n * m / (n + m)))
        n += m
        mean += delta * (m / n)
    if n < 2:
        raise ValueError("autoscaling needs at least 2 rows")
    stds = np.sqrt(np.diag(cross) / (n - 1))
    flagged = stds < EPSILON
    stds = np.where(flagged, 1.0, stds)
    cross /= np.outer(stds, stds)
    return ScaleModel(means=shift + mean, stds=stds, flagged=flagged), cross


def fit_scale(X: np.ndarray) -> ScaleModel:
    """Fit per-column mean/std statistics on a calibration matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={X.ndim}")
    return scaled_cross_product((X.copy(),))[0]


def apply_scale(model: ScaleModel, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(X - means) / stds, using the stored calibration statistics; into
    ``out`` (which may be ``X``) when given."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.means.size:
        raise ValueError(f"expected a 2-D matrix with {model.means.size} columns, got shape {X.shape}")
    out = np.subtract(X, model.means, out=out)
    return np.divide(out, model.stds, out=out)
