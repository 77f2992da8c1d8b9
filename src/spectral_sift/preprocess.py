"""Column-wise autoscaling: center by band mean, divide by band std.

Standard deviations use the n-1 (sample) denominator. Bands whose std falls
below ``EPSILON`` are flagged and pass through centered but unscaled, so a
constant band cannot blow up the transform.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

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


def carried_sum(tiles: Iterable[np.ndarray]) -> tuple[np.ndarray | None, int]:
    """Column sums and row count of a matrix fed in 2-D row tiles, top to bottom.

    numpy sums a C-ordered matrix over axis 0 one row after another, so
    adding the running sum into each later tile's first row (the tile is
    overwritten) and reducing the tile continues that sequence: with two or
    more columns the total has the bits of ``X.sum(axis=0)`` on the whole
    matrix, whatever the tile rows. (A single column is summed pairwise; its
    total keeps those bits only when it comes in one tile.)
    """
    total, rows = None, 0
    for tile in tiles:
        if total is not None:
            tile[0] += total
        total = tile.sum(axis=0)
        rows += tile.shape[0]
    return total, rows


def fit_scale_tiles(tiles: Callable[[], Iterable[np.ndarray]]) -> ScaleModel:
    """Per-column mean/std statistics of a matrix read in row tiles.

    ``tiles()`` yields the matrix's row tiles top to bottom as C-ordered
    float64 arrays that this function overwrites; it is called twice, for
    the means and then for the sums of squared deviations. Both are
    :func:`carried_sum` totals, so the statistics have the bits of
    ``X.mean(axis=0)`` and ``X.std(axis=0, ddof=1)`` on the whole matrix.
    """
    sums, n = carried_sum(tiles())
    if n < 2:
        raise ValueError("autoscaling needs at least 2 rows")
    means = sums / n
    squares, _ = carried_sum(np.square(np.subtract(tile, means, out=tile), out=tile)
                             for tile in tiles())
    stds = np.sqrt(squares / (n - 1))
    flagged = stds < EPSILON
    stds = np.where(flagged, 1.0, stds)
    return ScaleModel(means=means, stds=stds, flagged=flagged)


def fit_scale(X: np.ndarray) -> ScaleModel:
    """Fit per-column mean/std statistics on a calibration matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={X.ndim}")
    return fit_scale_tiles(lambda: (X.copy(),))


def apply_scale(model: ScaleModel, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(X - means) / stds, using the stored calibration statistics; into
    ``out`` (which may be ``X``) when given."""
    X = model._check_width(X)
    out = np.subtract(X, model.means, out=out)
    return np.divide(out, model.stds, out=out)


def invert_scale(model: ScaleModel, X: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`apply_scale`."""
    X = model._check_width(X)
    return X * model.stds + model.means
