"""PCA decomposition, score-response correlation gating, and reconstruction.

The decomposition X = T P^T + E comes from the eigendecomposition of the
bands x bands cross-product X^T X of the centered matrix: the eigenvectors
are the loadings and the eigenvalues the squared singular values of X.
Forming X^T X squares the condition number, so each eigenvalue is accurate
to about machine epsilon times the largest: a component whose singular
value is below about 1e-8 of the first is lost in rounding. On autoscaled
128 x 128 x 204 scenes the first 20 loadings match a thin SVD's to 1e-10.

Component subsets are picked by absolute Pearson correlation between score
columns and a two-class discriminant vector; reconstruction from the picked
subset suppresses the variation profiles (background, shadows, noise)
that do not separate the classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_COMPONENTS = 20


@dataclass(frozen=True)
class PcaModel:
    loadings: np.ndarray  # (bands, k), orthonormal columns
    explained_variance_ratio: np.ndarray  # (k,), fractions of total variance

    @property
    def k(self) -> int:
        return self.loadings.shape[1]

    @property
    def n_bands(self) -> int:
        return self.loadings.shape[0]


@dataclass(frozen=True)
class ComponentSelection:
    selected: np.ndarray  # 0-based component indices, strongest correlation first
    correlations: np.ndarray  # |rho| per component of the model

    def __post_init__(self) -> None:
        if self.selected.size == 0:
            raise ValueError("component selection is empty")
        if self.selected.min() < 0 or self.selected.max() >= self.correlations.size:
            raise ValueError("selected component index out of range")


def fit_pca(X: np.ndarray, k: int | None = None) -> tuple[PcaModel, np.ndarray]:
    """Decompose a centered matrix; returns the model and the scores T = X P.

    The input must already be centered (the autoscaled calibration matrix
    is). The decomposition is :func:`pca_from_cross_product` of X^T X.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={X.ndim}")
    if X.shape[0] < 2:
        raise ValueError("PCA needs at least 2 rows")
    col_mean_norm = float(np.linalg.norm(X.mean(axis=0)))
    if col_mean_norm >= 1e-6:
        raise ValueError(f"input is not centered (column-mean norm {col_mean_norm:.3e} >= 1e-6)")
    model = pca_from_cross_product(X.T @ X, X.shape[0], k)
    return model, X @ model.loadings


def pca_from_cross_product(cross: np.ndarray, n: int, k: int | None = None) -> PcaModel:
    """The first ``k`` components of a centered n-row matrix from its bands x
    bands cross-product X^T X, however that was summed.

    Each loading column is sign-fixed so its largest-magnitude entry is
    positive, which keeps model files reproducible.
    """
    p = cross.shape[0]
    if n < 2:
        raise ValueError("PCA needs at least 2 rows")
    k_max = min(n - 1, p)
    if k is None:
        k = min(k_max, DEFAULT_MAX_COMPONENTS)
    if not 1 <= k <= k_max:
        raise ValueError(f"k must be in [1, {k_max}] for a {n}x{p} matrix, got {k}")

    # eigh returns ascending eigenvalues; rounding can leave the smallest below 0
    lam, vecs = np.linalg.eigh(cross)
    lam = np.maximum(lam[::-1], 0.0)
    total = float(lam.sum())
    loadings = vecs[:, ::-1][:, :k].copy()
    # deterministic sign: largest-|entry| of each loading column positive
    flip = np.sign(loadings[np.argmax(np.abs(loadings), axis=0), np.arange(k)])
    flip[flip == 0] = 1.0
    loadings *= flip
    ratio = lam[:k] / total if total > 0 else np.zeros(k)
    return PcaModel(loadings=loadings, explained_variance_ratio=ratio)


def project(model: PcaModel, X_new: np.ndarray) -> np.ndarray:
    """Scores of new (already scaled) rows: T_new = X_new P."""
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2 or X_new.shape[1] != model.n_bands:
        raise ValueError(f"expected {model.n_bands} columns, got shape {X_new.shape}")
    return X_new @ model.loadings


def correlate_scores(T: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|Pearson correlation| of each score column with the discriminant vector."""
    T = np.asarray(T, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if T.ndim != 2 or T.shape[0] != y.size:
        raise ValueError(f"scores {T.shape} do not align with y of length {y.size}")
    if y.size < 2:
        raise ValueError("need at least 2 labeled rows")
    yc = y - y.mean()
    sy = np.sqrt(yc @ yc / (y.size - 1))
    if sy == 0:
        raise ValueError("discriminant vector has a single class (zero variance)")
    Tc = T - T.mean(axis=0)
    st = np.sqrt(np.sum(Tc**2, axis=0) / (y.size - 1))
    cov = Tc.T @ yc / (y.size - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(st > 0, cov / (st * sy), 0.0)
    return np.abs(rho)


def select_components(
    correlations: np.ndarray,
    top_n: int | None = None,
    threshold: float | None = None,
) -> ComponentSelection:
    """Pick components by |rho|, either the top-n or all above a threshold.

    Indices come back sorted by |rho| descending, ties toward the lower
    index. ``top_n`` is capped at the number of available components.
    """
    correlations = np.asarray(correlations, dtype=np.float64)
    if (top_n is None) == (threshold is None):
        raise ValueError("give exactly one of top_n or threshold")
    # stable sort on -|rho| keeps lower indices first among ties
    order = np.argsort(-correlations, kind="stable")
    if top_n is not None:
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        picked = order[: min(top_n, correlations.size)]
    else:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        picked = order[correlations[order] >= threshold]
        if picked.size == 0:
            raise ValueError(f"no component reaches |rho| >= {threshold}")
    return ComponentSelection(selected=picked.astype(int), correlations=correlations)


def reconstruct(model: PcaModel, T: np.ndarray, selection: ComponentSelection) -> np.ndarray:
    """Rebuild spectra (still in scaled space) from the selected components only.

    The loading columns are orthonormal, so the rebuild keeps every pairwise
    distance between the rows of ``T[:, selection.selected]``.
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2 or T.shape[1] != model.k:
        raise ValueError(f"scores must have {model.k} columns, got shape {T.shape}")
    if selection.selected.max() >= model.k:
        raise ValueError("selection refers to components beyond the model")
    sel = selection.selected
    return T[:, sel] @ model.loadings[:, sel].T
