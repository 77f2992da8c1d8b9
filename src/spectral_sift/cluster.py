"""K-means++ clustering and the supervised cluster-count escalation loop.

Clustering runs on the scores of the selected principal components. The
reconstruction T[:, sel] P[:, sel]' from those components has orthonormal
loading columns, so it keeps every pairwise distance: clustering the few
score columns is the same computation as clustering the rebuilt spectra, at
a fraction of the cost. The escalation wrapper raises the cluster count
until the labeled ground truth shows no parasite pixel mixed with anything
else: every cluster touching a labeled mite pixel becomes a 'mite' cluster,
and no other labeled pixel may fall into one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

CLASS_MITE = "mite"
CLASS_BEE = "bee"
CLASS_OTHER = "other"


class EscalationError(RuntimeError):
    """No cluster count up to k_max met the supervision criteria."""

    def __init__(self, message: str, diagnostics: "ClusterDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class ClusterModel:
    centroids: np.ndarray  # (k, |selected components|) in PCA score space
    class_of_cluster: dict[int, str]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass
class KAttempt:
    k: int
    false_alarms: int  # labeled non-mite pixels inside mite clusters
    missed_mites: int  # labeled mite pixels outside mite clusters
    inertia: float

    @property
    def passed(self) -> bool:
        return self.false_alarms == 0 and self.missed_mites == 0


@dataclass
class ClusterDiagnostics:
    attempts: list[KAttempt] = field(default_factory=list)

    @property
    def final(self) -> KAttempt:
        return self.attempts[-1]


def _squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) matrix of squared Euclidean distances, without sqrt round-trips
    sq = (
        np.sum(X**2, axis=1)[:, None]
        - 2.0 * X @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def kmeanspp_init(X: np.ndarray, k: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """D^2-weighted seeding: each next centroid favors far-away points.

    Raises ValueError when X has fewer than k distinct rows.
    """
    X = np.asarray(X, dtype=np.float64)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(X.shape[0])]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass on already-chosen points; fall back to any unused distinct row
            unused = np.flatnonzero(~(X[:, None] == centroids[:i][None]).all(axis=2).any(axis=1))
            if unused.size == 0:  # every row equals one of the i distinct centroids
                raise ValueError(f"k={k} exceeds the {i} distinct rows")
            centroids[i] = X[unused[0]]
        else:
            centroids[i] = X[rng.choice(X.shape[0], p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centroids[i]) ** 2, axis=1))
    return centroids


def lloyd_iterations(
    X: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd updates from given starting centroids.

    Each update is a cluster's member mean, its members summed in row order.
    Empty clusters are re-seeded at the point farthest from its assigned
    centroid. Returns (centroids, assignment, inertia).
    """
    X = np.asarray(X, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64)
    k, d = centroids.shape
    # flat (cluster, column) bin of every entry of X, for one bincount pass
    column = np.arange(d)
    for _ in range(max_iter):
        sq = _squared_distances(X, centroids)
        assignment = np.argmin(sq, axis=1)
        counts = np.bincount(assignment, minlength=k)
        sums = np.bincount(
            (assignment[:, None] * d + column).ravel(), weights=X.ravel(), minlength=k * d
        ).reshape(k, d)
        filled = counts > 0
        new_centroids = centroids.copy()
        new_centroids[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            nearest = sq[np.arange(X.shape[0]), assignment]
            for j in empty:
                far = int(np.argmax(nearest))
                new_centroids[j] = X[far]
                nearest[far] = 0.0  # claimed; don't hand the same point to another empty cluster
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement < tol:
            break
    sq = _squared_distances(X, centroids)
    assignment = np.argmin(sq, axis=1)
    inertia = float(sq[np.arange(X.shape[0]), assignment].sum())
    return centroids, assignment, inertia


def kmeans_fit(
    X: np.ndarray,
    k: int,
    seed: int | np.random.Generator = 0,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, float]:
    """K-means++ seeding followed by Lloyd iterations."""
    X = np.asarray(X, dtype=np.float64)
    return lloyd_iterations(X, kmeanspp_init(X, k, seed), max_iter=max_iter, tol=tol)


def _map_clusters(
    assignment: np.ndarray,
    k: int,
    labels: np.ndarray,
    mite_label: int,
    bee_label: int,
    unlabeled: int,
) -> dict[int, str]:
    mapping = {}
    for j in range(k):
        member_labels = labels[assignment == j]
        member_labels = member_labels[member_labels != unlabeled]
        if np.any(member_labels == mite_label):
            mapping[j] = CLASS_MITE
        elif np.any(member_labels == bee_label):
            mapping[j] = CLASS_BEE
        else:
            mapping[j] = CLASS_OTHER
    return mapping


def fit_supervised(
    X: np.ndarray,
    labels: np.ndarray,
    mite_label: int,
    bee_label: int,
    k0: int = 2,
    k_max: int = 12,
    seed: int = 0,
    unlabeled: int = 255,
) -> tuple[ClusterModel, ClusterDiagnostics]:
    """Escalate k until no labeled pixel contradicts the mite clusters.

    Every cluster containing at least one labeled mite pixel is mapped to
    'mite'. An attempt fails if any other labeled pixel lands in a mite
    cluster (false alarm); by construction no labeled mite pixel can land
    outside one, which the diagnostics double-check. Each k re-seeds with
    seed + k so a bad initialization is not inherited. Each attempt is
    logged at DEBUG level.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    if labels.size != X.shape[0]:
        raise ValueError(f"labels length {labels.size} does not match {X.shape[0]} rows")
    if not np.any(labels == mite_label) or not np.any(labels == bee_label):
        raise ValueError("ground truth must contain both mite and bee pixels")
    if k0 < 2:
        raise ValueError("k0 must be >= 2")

    diagnostics = ClusterDiagnostics()
    for k in range(k0, k_max + 1):
        centroids, assignment, inertia = kmeans_fit(X, k, seed=seed + k)
        mapping = _map_clusters(assignment, k, labels, mite_label, bee_label, unlabeled)
        mite_clusters = {j for j, c in mapping.items() if c == CLASS_MITE}
        in_mite = np.isin(assignment, sorted(mite_clusters))
        labeled = labels != unlabeled
        false_alarms = int(np.sum(in_mite & labeled & (labels != mite_label)))
        missed = int(np.sum(~in_mite & (labels == mite_label)))
        diagnostics.attempts.append(KAttempt(k, false_alarms, missed, inertia))
        log.debug("escalation k=%d: false_alarms=%d missed_mites=%d inertia=%.6g",
                  k, false_alarms, missed, inertia)
        if diagnostics.attempts[-1].passed:
            model = ClusterModel(centroids=centroids, class_of_cluster=mapping)
            return model, diagnostics
    raise EscalationError(
        f"no k in [{k0}, {k_max}] separated the mite pixels cleanly", diagnostics
    )


def assign(model: ClusterModel, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment; ties go to the lower cluster index."""
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2 or X_new.shape[1] != model.centroids.shape[1]:
        raise ValueError(
            f"expected {model.centroids.shape[1]} columns, got shape {X_new.shape}"
        )
    clusters = np.argmin(_squared_distances(X_new, model.centroids), axis=1)
    class_names = np.array([model.class_of_cluster[j] for j in range(model.k)])
    return clusters, class_names[clusters]
