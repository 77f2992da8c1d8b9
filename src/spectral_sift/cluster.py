"""K-means++ clustering and the supervised cluster-count escalation loop.

Clustering runs on the scores of the selected principal components. The
reconstruction T[:, sel] P[:, sel]' from those components has orthonormal
loading columns, so it keeps every pairwise distance: clustering the few
score columns is the same computation as clustering the rebuilt spectra, at
a fraction of the cost. The escalation wrapper raises the cluster count
until the labeled ground truth shows no parasite pixel mixed with anything
else: every cluster touching a labeled mite pixel becomes a 'mite' cluster,
and no other labeled pixel may fall into one.

Lloyd's loop keeps one settle key per point, after Hamerly's distance
bounds: the total centroid travel up to which its nearest centroid provably
stays put, rounding margin included. A point's squared distances are
recomputed only once the travel reaches its key. Assignments, centroids and
inertia are bit for bit those of a loop that recomputes every
point on every iteration; every point is recomputed when a cluster empties
(the re-seed needs all distances) and once more at the end. Those full
passes, and the first iteration's, run in blocks of ``BLOCK_ROWS`` points,
so no n × k distance matrix is ever held.

A block holds its distances cluster-major, k × points (:func:`_distances`),
so every reduction, broadcast and comparison of a pass runs along the
points, not along the few centroids or score columns. K-means++ likewise
sums its squared distances one score column at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .specdata import UNLABELED

log = logging.getLogger(__name__)

CLASS_MITE = "mite"
CLASS_BEE = "bee"
CLASS_OTHER = "other"

#: Rounding margin of one squared distance ‖x‖² − 2x·c + ‖c‖², as
#: :func:`_distances` and :func:`_finish_squared_distances` compute it, relative to
#: reach² = (largest point norm + largest centroid norm)². With unit roundoff
#: ε = 2⁻⁵³, the expanded formula ‖x‖² − 2x·c + ‖c‖² over d columns is within
#: (d + 2)·ε·(‖x‖ + ‖c‖)² of the exact squared distance (Higham, "Accuracy and
#: Stability of Numerical Algorithms", §3.1: the dot product and the two norms
#: each err by at most d·ε times their sums of absolute terms, and the two
#: additions by ε each). 2⁻³⁶ = 2¹⁷·ε covers d + 2 up to 2¹⁶ and leaves as much
#: again for the few ε by which the square roots, a point's settle key and
#: the summed centroid movements it is compared with can be off, over
#: thousands of iterations. ``kernel.cdist`` is the second caller: it takes the
#: square root of those squared distances and sets entries within this margin of
#: zero to exactly 0, so that equal rows are at distance 0.
#: ``kernel.predict_indicators`` does the same after one product of the d + 2
#: terms, whose two squared norms are each within d·ε·reach² themselves: inside
#: the same margin.
MARGIN = 2.0**-36

#: Lloyd stops once no centroid moves by this much in an update
TOL = 1e-6

#: Points per block of Lloyd's distance passes (at least 2): a block holds
#: the k × 8192 squared distances of its points to every centroid, 768 KiB
#: at k = 12, where a whole 512 × 512 frame would hold 25 MB. A last block
#: of one point joins the block before it (:func:`_row_blocks`).
BLOCK_ROWS = 1 << 13


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


def _cross_product(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(−2X)·Cᵀ, the one matrix product of the (rows × centroids) squared
    distances max(‖x‖² − (2X)·Cᵀ + ‖c‖², 0) that ``kernel`` computes with
    :func:`_finish_squared_distances`.

    Scaling by −2 is exact, so it holds the bits of (2X)·Cᵀ negated. The
    factor stays inside the product: numpy computes ``X @ X.T`` as a
    symmetric rank-k update, whose last bits differ from the general
    product's.
    """
    return (-2.0 * X) @ centroids.T


def _finish_squared_distances(sq: np.ndarray, x_sq: np.ndarray, c_sq: np.ndarray) -> np.ndarray:
    """Turn rows of :func:`_cross_product` into squared distances, in place.

    Adds the squared row norms ``x_sq`` of those rows and ``c_sq`` of the
    centroids, in the plain expression's order, and clamps at 0. Every step
    works entry by entry, so a block of rows gets the bits of the whole.
    """
    sq += x_sq[:, None]
    sq += c_sq[None, :]
    return np.maximum(sq, 0.0, out=sq)


def _row_blocks(n: int, rows: int | None = None) -> list[slice]:
    """Slices of ``rows`` rows (``BLOCK_ROWS`` by default) that cover
    ``range(n)`` in order. A last block of one row joins the block before it:
    numpy computes a single row as a matrix-vector product, whose last bits
    can differ from the matrix product's."""
    starts = list(range(0, n, rows or BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _distances(points: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(k, m) squared distances from the centroids to m points, cluster-major.

    ``points`` is the d × m transpose of m rows of X (a view will do), and
    ``x_sq`` their squared norms. Entry (j, i) keeps every bit of entry
    (i, j) of the row-major :func:`_cross_product` of those rows, finished
    by :func:`_finish_squared_distances`: the same products and sums, with
    x² added before c² and a clamp at 0. −2C goes in as a
    Fortran-ordered array: so laid out, OpenBLAS computes the product with
    the bits of (−2X)·Cᵀ for any d ≤ 20, k ≥ 2 centroids and m ≥ 2 points,
    where a C-ordered −2C changes the last bits of some points at d ≥ 16,
    and at k = 12 with 257 points. One centroid or one point makes a
    matrix-vector product, whose last bits can differ.
    """
    sq = np.asfortranarray(-2.0 * centroids) @ points
    sq += x_sq
    sq += np.sum(centroids**2, axis=1)[:, None]
    return np.maximum(sq, 0.0, out=sq)


def _nearest_two(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column of ``sq`` (k × m, overwritten): the index of its smallest
    entry, that entry and the next smallest (inf when k = 1).

    Ties go to the lowest index, as with ``np.argmin``: each entry equal to
    the column's minimum stands for its row index, every other for k plus
    it, and the index is the least of those, in the smallest unsigned type
    that holds 2k − 1.
    """
    k, m = sq.shape
    best = sq.min(axis=0)
    rank_type = np.min_scalar_type(2 * k - 1)
    rank = (sq != best).astype(rank_type)
    rank *= k
    rank += np.arange(k, dtype=rank_type)[:, None]
    closest = rank.min(axis=0).astype(np.intp)
    sq[closest, np.arange(m)] = np.inf
    return closest, best, sq.min(axis=0)


def kmeanspp_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """D^2-weighted seeding: each next centroid favors far-away points.

    Raises ValueError when X has fewer than k distinct rows.
    """
    X = np.asarray(X, dtype=np.float64)
    columns = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(X.shape[0])]
    d2 = _summed_squares(columns, centroids[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass on already-chosen points; fall back to any unused distinct row
            unused = np.flatnonzero(~(X[:, None] == centroids[:i][None]).all(axis=2).any(axis=1))
            if unused.size == 0:  # every row equals one of the i distinct centroids
                raise ValueError(f"k={k} exceeds the {i} distinct rows")
            centroids[i] = X[unused[0]]
        else:
            centroids[i] = X[_weighted_draw(rng, d2 / total)]
        np.minimum(d2, _summed_squares(columns, centroids[i]), out=d2)
    return centroids


def _weighted_draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """One index drawn with probabilities ``p`` (non-negative, summing to 1):
    the steps of ``rng.choice(p.size, p=p)``, one uniform draw searched in the
    normalized cumulative sum, without its validation of ``p``, which costs a
    third of a draw over 16 384 points."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _summed_squares(columns: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each point's squared distance to ``c``, its d columns summed in order
    into one n-vector. Below 8 columns these are the bits of
    ``np.sum((X - c)**2, axis=1)``; from 8 on, numpy's pairwise row sum can
    differ in the last bit."""
    d2 = np.zeros(columns.shape[1])
    diff = np.empty(columns.shape[1])
    for column, v in zip(columns, c):
        np.subtract(column, v, out=diff)
        diff *= diff
        d2 += diff
    return d2


def lloyd_iterations(
    X: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 300,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd updates from given starting centroids, skipping settled points.

    Each update is a cluster's member mean, its members summed in row order.
    Empty clusters are re-seeded at the point farthest from its assigned
    centroid. The loop ends when no centroid moves by ``TOL`` or after
    ``max_iter`` updates. Returns (centroids, assignment, inertia).

    Every iteration assigns each point to its nearest centroid, the lowest
    index on ties, as a pass over all points would, but recomputes only the
    points whose nearest centroid may have changed. The idea is Hamerly's
    ("Making k-means even faster", SDM 2010), with his two bounds per point
    folded into one key. ``travel`` sums, over the updates so far, the largest
    movement of any centroid. When a point's distances are recomputed, with m =
    MARGIN·reach² (reach is the largest point norm plus the largest centroid
    norm), u = √(its centroid's entry + m) bounds its exact distance to its
    centroid from above and l = √max(next smallest entry − m, 0) bounds its
    distance to every other centroid from below; its key becomes
    travel + (l − u)/2 − √m. The point is recomputed once key <= travel.
    Until then every centroid has moved at most Δ = travel − (travel when
    the key was set) < (l − u)/2 − √m, so l − Δ − (u + Δ) > 2√m and
    (l − Δ)² − (u + Δ)² > 2√m·(l + u) >= 2√m·u >= 2m: its computed squared
    distance to its centroid is still below its computed distance to every
    other centroid, and its nearest centroid cannot move. The full distance
    pass runs when a cluster empties, since the re-seed needs every point's
    distance, and once at the end for the returned assignment and inertia.
    Those passes and every recomputation run in blocks of points
    (:func:`_row_blocks`), each a k × points matrix of :func:`_distances`
    whose nearest two centroids per point come from :func:`_nearest_two`;
    the points' squared norms are summed once per run. Each point's squared
    distance to its centroid goes into one n-vector, and the inertia is that
    vector's sum. Exactness rests on a point's distances having the same
    bits whether they are computed among all points or among two or more of
    them.
    """
    X = np.asarray(X, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64)
    k = centroids.shape[0]
    # one bincount per column sums each cluster's members in row order
    columns = np.ascontiguousarray(X.T)
    x_sq = np.sum(X**2, axis=1)
    # after the first update every centroid is a member mean or a row of X,
    # so no centroid norm exceeds the larger of the two maxima
    x_norm = float(np.sqrt(np.max(x_sq, initial=0.0)))
    c_norm = float(np.sqrt(np.max(np.sum(centroids**2, axis=1), initial=0.0)))
    margin = MARGIN * (x_norm + max(x_norm, c_norm)) ** 2
    assignment = np.zeros(X.shape[0], dtype=np.intp)
    key = np.full(X.shape[0], -np.inf)  # no keys yet: the first pass recomputes every row
    travel = 0.0
    for _ in range(max_iter):
        stale = np.flatnonzero(key <= travel)
        if stale.size == 1:
            # numpy computes a single row as a matrix-vector product, whose
            # last bits can differ from the matrix product's
            stale = np.repeat(stale, 2)
        for block in _row_blocks(stale.size):
            points = stale[block]
            closest, best, second = _nearest_two(
                _distances(X.take(points, axis=0).T, x_sq[points], centroids))
            assignment[points] = closest
            upper = np.sqrt(best + margin)
            lower = np.sqrt(np.maximum(second - margin, 0.0))
            key[points] = travel + (lower - upper) / 2.0 - np.sqrt(margin)
        counts = np.bincount(assignment, minlength=k)
        sums = np.stack([np.bincount(assignment, weights=c, minlength=k) for c in columns], axis=1)
        filled = counts > 0
        new_centroids = centroids.copy()
        new_centroids[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            # every point already holds its nearest centroid, so reassigning changes none
            nearest = _assigned_distances(X, x_sq, centroids, assignment)
            for j in empty:
                far = int(np.argmax(nearest))
                new_centroids[j] = X[far]
                nearest[far] = 0.0  # claimed; don't hand the same point to another empty cluster
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement < TOL:
            break
        travel += movement
    inertia = float(_assigned_distances(X, x_sq, centroids, assignment).sum())
    return centroids, assignment, inertia


def _assigned_distances(
    X: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray, assignment: np.ndarray,
) -> np.ndarray:
    """Assign each row of X (squared norms ``x_sq``), in place, to its
    nearest centroid, lowest index on ties, in blocks of :func:`_distances`,
    and return each row's squared distance to that centroid."""
    nearest = np.empty(X.shape[0])
    for block in _row_blocks(X.shape[0]):
        assignment[block], nearest[block], _ = _nearest_two(
            _distances(X[block].T, x_sq[block], centroids))
    return nearest


def kmeans_fit(X: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """K-means++ seeding followed by Lloyd iterations."""
    X = np.asarray(X, dtype=np.float64)
    return lloyd_iterations(X, kmeanspp_init(X, k, seed))


def _map_clusters(
    assignment: np.ndarray,
    k: int,
    labels: np.ndarray,
    mite_label: int,
    bee_label: int,
) -> dict[int, str]:
    mapping = {}
    for j in range(k):
        member_labels = labels[assignment == j]
        member_labels = member_labels[member_labels != UNLABELED]
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
    k0: int,
    k_max: int,
    seed: int,
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
        mapping = _map_clusters(assignment, k, labels, mite_label, bee_label)
        mite_clusters = {j for j, c in mapping.items() if c == CLASS_MITE}
        in_mite = np.isin(assignment, sorted(mite_clusters))
        labeled = labels != UNLABELED
        false_alarms = int(np.sum(in_mite & labeled & (labels != mite_label)))
        missed = int(np.sum(~in_mite & (labels == mite_label)))
        diagnostics.attempts.append(KAttempt(k, false_alarms, missed, inertia))
        log.debug("escalation k=%d: false_alarms=%d missed_mites=%d inertia=%.6g",
                  k, false_alarms, missed, inertia)
        if diagnostics.attempts[-1].passed:
            model = ClusterModel(centroids=centroids, class_of_cluster=mapping)
            return model, diagnostics
    tried = " ".join(f"{a.k}:{a.false_alarms}/{a.missed_mites}" for a in diagnostics.attempts)
    raise EscalationError(
        f"no k in [{k0}, {k_max}] separated the mite pixels cleanly "
        f"(k:false_alarms/missed_mites {tried or 'none tried'})",
        diagnostics,
    )


def assign(model: ClusterModel, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment; ties go to the lower cluster index."""
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2 or X_new.shape[1] != model.centroids.shape[1]:
        raise ValueError(
            f"expected {model.centroids.shape[1]} columns, got shape {X_new.shape}"
        )
    clusters = np.empty(X_new.shape[0], dtype=np.intp)
    _assigned_distances(X_new, np.sum(X_new**2, axis=1), model.centroids, clusters)
    class_names = np.array([model.class_of_cluster[j] for j in range(model.k)])
    return clusters, class_names[clusters]
