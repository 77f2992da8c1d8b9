"""Kernel functions, kernel PLS-DA in an RKHS, and Kernel Flows tuning.

The kernel PLS fit runs the SIMPLS recursion in dual form on the centered
Gram matrix, so prediction on new data needs only cross-kernels against the
stored support spectra. A kernel has no variance factor: kernel PLS
predictions do not change when the kernel is multiplied by a constant.

SIMPLS factors do not depend on the requested count, so one fit at the
largest count holds every smaller model: its first a factors are the fit at
a. Every kernel PLS fit goes through one nested fit (``_NestedFit``), whose
``dual_coef(a)`` gives the model at any live count: the Kernel Flows loss
fits each model once, at the largest count its half-batch allows, and the
latent-count search fits once and scores every count on the grid from it.

Kernel Flows tunes the lengthscale by stochastic descent on a
cross-validation discrepancy: models fitted on a random batch and on half of
it should agree on the batch. Gradients are central finite differences in
log-lengthscale, so any stationary kernel family plugs in unchanged. The loss
recorded for an iteration is the midpoint (up + down)/2 of those two
finite-difference losses, within O(step²) of the loss at the lengthscale
itself, so an iteration evaluates two losses, not three.
Distances do not depend on the lengthscale, so the training distances are
computed once: every Gram matrix of the Kernel Flows loop and of the
latent-count search is a kernel of index slices of that one matrix. An
iteration slices each batch's block once, for both of its losses. The fit
holds that one n × n array, shared by every process of the descent, plus in
each process a batch's blocks (a quarter of its cells each) and row blocks
of :data:`BLOCK_CELLS`: the lengthscale medians come from one copy of its
upper triangle, released before the descent; kernels are computed in row
blocks; a Gram matrix is centered in place by the fit that takes it; and
the final Gram matrix overwrites the distances.

An iteration's batch losses do not depend on each other, and most of a loss
is small numpy calls that hold the GIL, so they run on processes, not
threads (:class:`_BatchProcesses`). Once per fit, after the distances, the
caller forks up to one helper per further usable CPU; the helpers read the
distances copy-on-write, so they are never copied or pickled. Each
iteration, every process, the caller included, claims batch numbers from one
pipe until a stop marker, so a helper that starts slow takes fewer; the
caller puts the losses back in batch order before their mean, so traces,
lengthscale and model have the bits of a one-process run. One process forks
nothing and claims every batch through the same loop. Helpers leave by
``os._exit`` and are reaped, on every exit path, before the final Gram
matrix overwrites the distances, so the caller's writes copy none of their
pages.

Prediction runs in row chunks of about :data:`BLOCK_CELLS` cross-kernel
cells (:func:`classify`), which fit a core's L2 cache. A chunk takes two
products (:func:`predict_indicators`): the first gives its squared distances
to the support spectra with the norms folded in; the margin, the square root
and the kernel (the Gram path's function) then run on it in place; the
second gives the scores with the centering folded in. Their sums run in
another order than :func:`cdist`'s and :func:`center_kernel`'s, so the
scores differ from that plain chain in the last bits, within a first-order
bound the tests state.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import signal
import struct
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cluster import MARGIN, _cross_product, _finish_squared_distances, _row_blocks
from .pls import DegenerateDataError, decode_da, dominant_eigenvector, encode_da

log = logging.getLogger(__name__)

KERNEL_FAMILIES = ("gaussian", "laplacian", "matern52", "cauchy")

#: lengthscale clamp, as multiples of the median pairwise training distance
LENGTHSCALE_BOUNDS = (1e-4, 1e4)

#: tries per Kernel Flows batch at drawing one that contains every class
BATCH_DRAWS = 200

#: float64 cells per chunk of cross-kernel rows in :func:`classify` (512 KiB):
#: a chunk of ``max(2, BLOCK_CELLS // support)`` rows goes through both
#: products of :func:`predict_indicators` and the ten passes between them
#: (the margin's test and zeroing, the square root, matern52's seven), so its
#: operands stay in a core's L2 cache instead of streaming a tile-sized array
#: from L3 or memory (loop blocking: Lam, Rothberg & Wolf, ASPLOS 1991), and a
#: classified tile holds a few chunks whatever its row width or support count.
#: Sized against 654 support spectra of 204 bands (matern52, one thread on
#: 2 vCPU, medians of 5): a 768-pixel tile took 6.9, 6.0, 5.7 and 9.3 ms in
#: chunks of 50, 100, 200 and 400 rows. With 200-row chunks the apply command
#: on the benchmark's M cube took a median 0.60 s against 0.65 s (6 alternating
#: runs each, spread 0.51–0.98 s), within noise, and peaked at 41.6 MB against
#: 38.8 MB.
BLOCK_CELLS = 1 << 16


class KfConvergenceError(RuntimeError):
    """Kernel Flows could not produce a finite loss/update."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its lengthscale."""

    family: str
    lengthscale: float

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.lengthscale <= 0:
            raise ValueError("kernel lengthscale must be strictly positive")


def cdist(XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``XA`` and ``XB``.

    The square root of ‖a‖² − 2a·b + ‖b‖², one matrix product
    (``cluster._cross_product``, then ``cluster._finish_squared_distances``).
    A squared entry at or below ``cluster.MARGIN``·reach²,
    with reach the largest row norm of ``XA`` plus the largest of ``XB``, is
    within rounding of zero and set to exactly 0. Equal rows are then at
    distance 0 whichever arrays hold them, so every kernel is exactly 1 there.
    The kernel code calls this through the module global ``cdist``, which
    tracing can replace.
    """
    a_sq, b_sq = np.sum(XA**2, axis=1), np.sum(XB**2, axis=1)
    sq = _finish_squared_distances(_cross_product(XA, XB), a_sq, b_sq)
    return _distances_from_squares(sq, _largest_norm(a_sq) + _largest_norm(b_sq))


def _largest_norm(sq_norms: np.ndarray) -> float:
    """The largest row norm, from the squared row norms: √max ‖x‖² has the
    bits of ``np.linalg.norm(X, axis=1).max()``, as the square root is
    correctly rounded and monotone."""
    return np.sqrt(sq_norms.max(initial=0.0))


def _distances_from_squares(sq: np.ndarray, reach: float) -> np.ndarray:
    """Square roots of squared distances, in place, after setting the entries
    at or below ``MARGIN``·reach² to exactly 0 (see :func:`cdist`)."""
    sq[sq <= MARGIN * reach**2] = 0.0
    return np.sqrt(sq, out=sq)


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise kernel values k(a_i, b_j), shape (|A|, |B|)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"point sets differ in dimension: {A.shape[1]} vs {B.shape[1]}")
    return distance_kernel(spec, cdist(A, B))


def distance_kernel(spec: KernelSpec, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values of a stationary family from Euclidean distances ``r``.

    The values are written to ``out`` or one new array; ``out`` may be ``r``
    itself, otherwise ``r`` is left as it is. Above ``BLOCK_CELLS`` cells the
    rows of ``r`` go through in blocks of at most that many cells (a single
    wider row is one block), so matern52's one scratch array is block-sized.
    The operations and their order are those of the plain expressions in the
    comments, entry by entry, so the values keep every bit whatever the
    blocks.
    """
    if out is None:
        out = np.empty_like(r)
    rows = max(1, BLOCK_CELLS // r.shape[1])
    for r0 in range(0, r.shape[0], rows):
        _distance_kernel_block(spec, r[r0:r0 + rows], out[r0:r0 + rows])
    return out


def _distance_kernel_block(spec: KernelSpec, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`distance_kernel` on one block, each formula updated in place in
    ``out``."""
    ell = spec.lengthscale
    if spec.family == "gaussian":  # exp(-(r**2) / (2 ell**2))
        np.square(r, out=out)
        np.negative(out, out=out)
        out /= 2.0 * ell**2
    elif spec.family == "laplacian":  # exp(-r / ell)
        np.negative(r, out=out)
        out /= ell
    elif spec.family == "matern52":
        # (1 + u + u**2 / 3) exp(-u), u = sqrt(5) r / ell, as ((v / 3 - 1) v + 1) exp(v)
        # with v = -u = r (-sqrt(5) / ell): seven passes, one scratch array
        np.multiply(r, -np.sqrt(5.0) / ell, out=out)
        scratch = np.divide(out, 3.0)
        scratch -= 1.0
        scratch *= out
        scratch += 1.0
        np.exp(out, out=out)
        out *= scratch
        return out
    else:  # cauchy: 1 / (1 + (r / ell)**2)
        np.divide(r, ell, out=out)
        np.square(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)
    return np.exp(out, out=out)


@dataclass(frozen=True)
class KernelCenterStats:
    """Training Gram-matrix means needed to center cross-kernels consistently."""

    col_means: np.ndarray
    mean_all: float


def fit_kernel_center(K: np.ndarray) -> KernelCenterStats:
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"training kernel matrix must be square, got {K.shape}")
    return KernelCenterStats(col_means=K.mean(axis=0), mean_all=float(K.mean()))


def center_kernel(K: np.ndarray, stats: KernelCenterStats,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Feature-space centering of a (cross-)kernel matrix.

    Rows index the points being evaluated, columns the training points; the
    column corrections always come from the training statistics. The result
    is written to ``out`` or one new array; ``out`` may be ``K`` itself,
    otherwise ``K`` is left as it is. Each row is centered on its own mean,
    so a block of rows gets the bits of the whole.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[1] != stats.col_means.size:
        raise ValueError(f"kernel matrix has {K.shape[1]} columns, stats expect {stats.col_means.size}")
    out = np.subtract(K, K.mean(axis=1, keepdims=True), out=out)
    out -= stats.col_means[None, :]
    out += stats.mean_all
    return out


class _Predictor(NamedTuple):
    """What :func:`predict_indicators` reads of a model, with S the support
    spectra, B the dual coefficients, c and μ the training kernel's column
    means and mean, and ȳ the indicator means."""

    support: np.ndarray  # [S | 1 | ‖s‖²], (n, bands + 2)
    reach: float  # the largest row norm of S
    weights: np.ndarray  # [B | 1/n], (n, classes + 1)
    col_sums: np.ndarray  # 1ᵀB
    offset: np.ndarray  # μ·1ᵀB − cᵀB + ȳ


@dataclass(frozen=True)
class KernelPlsModel:
    kernel: KernelSpec
    support: np.ndarray  # training spectra, (n, bands)
    center_stats: KernelCenterStats
    dual_coef: np.ndarray  # (n, n_classes): centered indicators = K_centered @ dual_coef
    y_means: np.ndarray  # (n_classes,)
    classes: np.ndarray  # class label of each indicator column, sorted
    a: int

    @property
    def n_support(self) -> int:
        return self.support.shape[0]

    def __post_init__(self) -> None:
        """Derives the model side of :func:`predict_indicators`, which the
        model file does not hold. The support spectra are held once, as the
        first columns of its [S | 1 | ‖s‖²]: ``support`` becomes a view of
        them, and the array passed in is not kept."""
        n, bands = self.support.shape
        augmented = np.empty((n, bands + 2))
        # ‖s‖² with the bits of np.sum(S**2, axis=1), the squares taken in place
        sq = np.square(self.support, out=augmented[:, :bands]).sum(axis=1)
        augmented[:, :bands] = self.support
        augmented[:, bands] = 1.0
        augmented[:, bands + 1] = sq
        B = self.dual_coef
        col_sums = B.sum(axis=0)
        offset = self.center_stats.mean_all * col_sums - self.center_stats.col_means @ B
        object.__setattr__(self, "support", augmented[:, :bands])
        object.__setattr__(self, "_predictor", _Predictor(
            support=augmented, reach=_largest_norm(sq),
            weights=np.column_stack((B, np.full(n, 1.0 / n))),
            col_sums=col_sums, offset=offset + self.y_means))


def _dual_simpls(Kc: np.ndarray, Yc: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """SIMPLS recursion expressed against a centered Gram matrix.

    Returns dual weights A with scores T = Kc A, and Y-loadings Q, for the
    factors up to the first of ``a`` that is dead: its score or its loading
    basis vector vanishes. Factors do not depend on ``a``, so the columns
    returned are, bit for bit, those of a fit asked for fewer.

    The implicit cross-product matrix S = Phi' G is deflated through its
    dual representation G, never materializing feature space. KG = Kc G is
    deflated along with it, and Kc c is built from Kc t and the stored Kc C,
    so each factor takes one Gram product, Kc t.
    """
    n = Kc.shape[0]
    G = Yc.copy()
    KG = Kc @ G
    A = np.empty((n, a))
    Q = np.empty((Yc.shape[1], a))
    C = np.empty((n, a))  # dual representation of the orthonormal loading basis
    KC = np.empty((n, a))  # Kc @ C
    # Frobenius norm by einsum's own loop: np.linalg.norm takes a BLAS dot, which
    # OpenBLAS may thread and which then can stall for milliseconds on n² entries
    scale_ref = max(float(np.sqrt(np.einsum("ij,ij->", Kc, Kc))), 1e-300)

    for i in range(a):
        v = dominant_eigenvector(G.T @ KG)  # G'KG = S'S in feature space
        t = KG @ v  # Kc alpha, alpha = G v
        normt = float(np.linalg.norm(t))
        if normt <= 1e-10 * scale_ref:
            return A[:, :i], Q[:, :i]
        t /= normt
        Kt = Kc @ t
        c, Kcc = t.copy(), Kt.copy()
        if i > 0:
            proj = C[:, :i].T @ Kt
            c -= C[:, :i] @ proj
            Kcc -= KC[:, :i] @ proj
        vnorm2 = float(c @ Kcc)
        if vnorm2 <= 0:
            return A[:, :i], Q[:, :i]
        A[:, i] = (G @ v) / normt
        Q[:, i] = Yc.T @ t
        vnorm = np.sqrt(vnorm2)
        C[:, i] = c / vnorm
        KC[:, i] = Kcc / vnorm
        cKG = C[:, i] @ KG
        G -= np.outer(C[:, i], cKG)
        KG -= np.outer(KC[:, i], cKG)

    return A, Q


class _NestedFit(NamedTuple):
    """The live factors of one kernel PLS-DA fit and the centered Gram
    matrix they were fitted on; ``dual_coef(a)`` gives the fit at any live
    count."""

    Kc: np.ndarray
    center_stats: KernelCenterStats
    A: np.ndarray
    Q: np.ndarray
    y_means: np.ndarray
    classes: np.ndarray

    @property
    def live(self) -> int:
        return self.A.shape[1]

    def dual_coef(self, a: int) -> np.ndarray:
        return self.A[:, :a] @ self.Q[:, :a].T

    def model(self, spec: KernelSpec, X: np.ndarray, a: int) -> KernelPlsModel:
        """The fit at ``a`` factors as a model with support spectra ``X``."""
        return KernelPlsModel(kernel=spec, support=X, center_stats=self.center_stats,
                              dual_coef=self.dual_coef(a), y_means=self.y_means,
                              classes=self.classes, a=a)


def _fit_nested(K: np.ndarray, labels: np.ndarray, a: int) -> _NestedFit:
    """Kernel PLS-DA on a training Gram matrix against class indicators, up to
    ``a`` factors; every kernel PLS fit of the package goes through here.

    Takes ownership of ``K``: it is centered in place and held as the fit's
    ``Kc``, so a caller that still needs the Gram matrix passes a copy.
    """
    n = K.shape[0]
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must be in [1, {n - 1}] for {n} training rows, got {a}")
    encoding = encode_da(labels)
    stats = fit_kernel_center(K)
    Kc = center_kernel(K, stats, out=K)
    # the largest |entry|, without an array of them
    if float(max(Kc.max(), -Kc.min())) <= 1e-12 * max(1.0, abs(stats.mean_all)):
        raise ValueError("degenerate kernel: all training rows are indistinguishable")
    y_means = encoding.indicators.mean(axis=0)
    A, Q = _dual_simpls(Kc, encoding.indicators - y_means, a)
    return _NestedFit(Kc, stats, A, Q, y_means, encoding.classes)


def fit_kernel_pls(X: np.ndarray, labels: np.ndarray, spec: KernelSpec, a: int) -> KernelPlsModel:
    """Fit kernel PLS-DA with exactly ``a`` factors: centered Gram matrix
    against class indicators; DegenerateDataError if fewer are live."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected 2-D spectra, got ndim={X.ndim}")
    nested = _fit_nested(kernel_matrix(spec, X, X), labels, a)
    if nested.live < a:
        raise DegenerateDataError(
            f"kernel cross-product exhausted at factor {nested.live + 1} of {a}"
        )
    return nested.model(spec, X, a)


def predict_indicators(model: KernelPlsModel, X_new: np.ndarray) -> np.ndarray:
    """Predicted class-indicator scores for new spectra.

    ``center_kernel(kernel_matrix(spec, X_new, support), stats) @ dual_coef
    + y_means`` in two products on one (new rows × support) array K. The
    first, ``[−2X | ‖x‖² | 1] @ [S | 1 | ‖s‖²]ᵀ``, gives the squared
    distances with the norms folded in; the margin's zeroing, the square root
    and the kernel then run on K in place (:func:`cdist`,
    :func:`distance_kernel`). The second, ``K @ [B | 1/n]``, gives K·B and
    each row's mean m, and the scores are K·B − m·1ᵀB + (μ·1ᵀB − cᵀB + ȳ)
    (see :class:`_Predictor`): the centering, folded into the product. The
    sums run in another order than the plain chain's, so the scores differ
    from it in the last bits, within the first-order bound that the tests
    state (on the benchmark's cubes by at most 6.2e-15, where a pixel's top
    two scores are at least 0.55 apart). The product's squared distances err
    within ``cluster.MARGIN`` too, so a row equal to a support spectrum is at
    distance exactly 0, its kernel exactly 1. Callers bound K by the rows
    they pass: :func:`classify` passes chunks of about ``BLOCK_CELLS`` cells.
    """
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2 or X_new.shape[1] != model.support.shape[1]:
        raise ValueError(
            f"expected {model.support.shape[1]} bands, got shape {X_new.shape}"
        )
    side = model._predictor
    rows, bands = X_new.shape
    left = np.empty((rows, bands + 2))
    np.multiply(X_new, -2.0, out=left[:, :bands])
    x_sq = np.einsum("ij,ij->i", X_new, X_new, out=left[:, bands])
    left[:, bands + 1] = 1.0
    K = left @ side.support.T
    _distances_from_squares(K, _largest_norm(x_sq) + side.reach)
    distance_kernel(model.kernel, K, out=K)
    P = K @ side.weights
    scores = P[:, :-1] - P[:, -1:] * side.col_sums
    scores += side.offset
    return scores


def classify(model: KernelPlsModel, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class for each new spectrum plus the raw indicator scores.

    The scores are :func:`predict_indicators` on chunks of ``max(2,
    BLOCK_CELLS // n_support)`` rows, each written to one preallocated
    (rows × classes) array; a last chunk of one row joins the chunk before
    it (:func:`cluster._row_blocks`). So no (rows × support) cross-kernel is
    held, only a chunk's: about ``BLOCK_CELLS`` cells, or two rows of a
    wider support. A chunk's scores are those of :func:`predict_indicators`
    on that chunk, bit for bit, and within its stated bound of the plain
    chain; against one call on all rows they can move in the last bits, as
    OpenBLAS rounds a row by the product's row count.
    """
    X_new = np.asarray(X_new, dtype=np.float64)
    scores = np.empty((X_new.shape[0], model.dual_coef.shape[1]))
    for rows in _row_blocks(X_new.shape[0], max(2, BLOCK_CELLS // model.n_support)):
        scores[rows] = predict_indicators(model, X_new[rows])
    return decode_da(model.classes, scores), scores


@dataclass
class KernelConfig:
    family: str = "matern52"
    lengthscale: float | None = None  # None: median non-zero distance between the training rows


@dataclass(frozen=True)
class KfConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9  # Polyak heavy-ball coefficient
    iterations: int = 150
    subsamplings_per_iter: int = 20
    batch_ratio: float = 0.5
    a_grid: tuple[int, ...] = tuple(range(1, 11))  # latent-variable counts tried after descent
    fd_step: float = 1e-4  # central-difference step in log-lengthscale
    max_gradient: float = 1.0  # clip |d loss / d log ell|; tames cliff artifacts

    def __post_init__(self) -> None:
        if not 0.0 < self.batch_ratio < 1.0:
            raise ValueError("batch_ratio must be in (0, 1)")
        if self.iterations < 1 or self.subsamplings_per_iter < 1:
            raise ValueError("iterations and subsamplings_per_iter must be >= 1")
        if self.learning_rate <= 0 or not 0.0 <= self.momentum < 1.0:
            raise ValueError("learning_rate must be > 0 and momentum in [0, 1)")
        if self.max_gradient <= 0:
            raise ValueError("max_gradient must be > 0")
        if not self.a_grid:
            raise ValueError("a_grid must not be empty")
        if min(self.a_grid) < 1:
            raise ValueError(f"a_grid entries must be >= 1, got {list(self.a_grid)}")
        if self.fd_step <= 0:
            raise ValueError(f"fd_step must be > 0, got {self.fd_step}")


@dataclass(frozen=True)
class KfResult:
    model: KernelPlsModel  # fitted on all rows at the learned kernel and a*
    predicted: np.ndarray  # the model's class for each training row
    # (iterations, 3): iteration, mean rho, lengthscale evaluated; mean rho is the
    # midpoint of the losses at log lengthscale ± fd_step
    trace: np.ndarray
    r2_by_a: dict[int, float | None]  # training R^2 by latent count; None: infeasible
    initial_lengthscale: float  # the descent's starting point, before clamping

    @property
    def spec(self) -> KernelSpec:
        return self.model.kernel

    @property
    def a_star(self) -> int:
        return self.model.a


def _kf_batch_sizes(n: int, batch_ratio: float) -> tuple[int, int]:
    """Rows of a Kernel Flows batch and of its half-batch, from n training rows."""
    n_batch = max(int(round(batch_ratio * n)), 2)
    return n_batch, max(n_batch // 2, 1)


def draw_kf_batches(
    rng: np.random.Generator,
    labels: np.ndarray,
    count: int,
    batch_ratio: float,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random (batch, half-batch) index pairs, each containing every class."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    n = labels.size
    n_batch, n_half = _kf_batch_sizes(n, batch_ratio)
    if n_half < classes.size:
        raise ValueError(
            f"half-batches of {n_half} rows cannot contain all {classes.size} classes"
        )
    batches = []
    for _ in range(count):
        for _ in range(BATCH_DRAWS):
            perm = rng.permutation(n)
            full = perm[:n_batch]
            half = full[:n_half]
            if (np.unique(labels[full]).size == classes.size
                    and np.unique(labels[half]).size == classes.size):
                batches.append((np.sort(full), np.sort(half)))
                break
        else:
            raise KfConvergenceError(
                f"could not draw a batch containing all classes in {BATCH_DRAWS} tries"
            )
    return batches


def kf_loss(
    D_ff: np.ndarray,
    labels: np.ndarray,
    spec: KernelSpec,
    a: int,
    full: np.ndarray,
    half: np.ndarray,
) -> float:
    """Kernel Flows discrepancy of one batch.

    ``full`` and ``half`` are sorted row-index arrays, the half within the
    full batch, as :func:`draw_kf_batches` draws them; ``D_ff`` holds the
    Euclidean distances between the batch's rows, ``D[np.ix_(full, full)]``
    of the training distances ``D``, and ``labels`` the labels of all
    training rows. Returns
    rho = ||yhat_full - yhat_half||^2 / ||yhat_full||^2 on the full batch,
    where yhat_half comes from the model fitted on the half, or inf when a
    fit degenerates outright (all-equal kernel rows). Each model is fitted
    once, at min(a, half size - 1) factors, and keeps its live ones: at
    extreme lengthscales the Gram matrix cannot carry them all. ``D_ff`` is
    left as it is; the batch's kernel, its half-batch columns and their rows
    are each consumed in place by a fit or the centering.
    """
    labels = np.asarray(labels)
    a_fit = min(a, half.size - 1)
    pos = np.searchsorted(full, half)  # where the half-batch rows sit in the batch
    if not np.array_equal(full[np.minimum(pos, full.size - 1)], half):
        raise ValueError("each half-batch must lie within its sorted batch")
    K_ff = distance_kernel(spec, D_ff)
    # take, not K_ff[:, pos]: a C-ordered copy, like a kernel computed from the
    # spectra, so row means and products round the same way
    K_fh = K_ff.take(pos, axis=1)
    try:
        fit_full = _fit_nested(K_ff, labels[full], a_fit)
        fit_half = _fit_nested(K_fh[pos], labels[half], a_fit)
    except ValueError:
        return float("inf")
    if fit_full.live == 0 or fit_half.live == 0:
        return float("inf")
    yhat_full = fit_full.Kc @ fit_full.dual_coef(fit_full.live) + fit_full.y_means
    yhat_half = (center_kernel(K_fh, fit_half.center_stats, out=K_fh)
                 @ fit_half.dual_coef(fit_half.live) + fit_half.y_means)
    denom = float(np.sum(yhat_full**2))
    if denom <= 0:
        return float("inf")
    return float(np.sum((yhat_full - yhat_half) ** 2)) / denom


#: a batch number in the claims pipe of :class:`_BatchProcesses`; -1 stops
_CLAIM = struct.Struct("h")

#: the most batches claimed through one write to the claims pipe, and the
#: most processes: with a stop marker per process, one write is at most 512
#: bytes, POSIX's least ``PIPE_BUF``, so it is atomic and fits any pipe's
#: buffer, and the caller, which reads from that pipe too, never blocks on it
_ROUND = 128

#: the byte count in front of each message of :func:`_send`
_LENGTH = struct.Struct("Q")


def _send(fd: int, message: bytes) -> None:
    """Writes ``message`` to the pipe ``fd``, after its length."""
    view = memoryview(_LENGTH.pack(len(message)) + message)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes | None:
    """``size`` bytes from the pipe ``fd``, or None at its end."""
    parts = []
    while size:
        part = os.read(fd, size)
        if not part:
            return None
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _receive(fd: int):
    """The next message that :func:`_send` wrote to the pipe ``fd``,
    unpickled, or None at the pipe's end."""
    head = _read(fd, _LENGTH.size)
    body = None if head is None else _read(fd, _LENGTH.unpack(head)[0])
    return None if body is None else pickle.loads(body)


class _Helper(NamedTuple):
    pid: int
    jobs: int  # the write end of its jobs pipe
    results: int  # the read end of its results pipe


class _BatchProcesses:
    """The processes that take the Kernel Flows batch losses on the training
    distances ``D``: the caller and up to ``processes`` − 1 forked helpers.

    Helpers are forked at once, and only where ``os`` has fork and one
    Python thread runs: at most :data:`_ROUND` processes in all. They read
    ``D`` copy-on-write. For each round of at most :data:`_ROUND` batches
    (:meth:`losses`), the caller sends the lengthscale pair and the batches
    to every helper and writes the batch numbers and a stop marker per
    process into one pipe; then every process, the caller too, claims
    batches from it (:meth:`_claim`), and each helper sends back the losses
    of the batches it took, or the error that stopped it. With one process
    nothing is forked, and the caller claims every batch in the same way.

    A helper ignores SIGINT, closes the pipe ends it does not use, so it
    sees their end if the caller dies, and leaves through ``os._exit``: no
    ``finally``, ``atexit`` handler or stdio flush of the caller's runs in
    it. Leaving the context, by a return or any exception, closes the
    caller's pipe ends, then kills and reaps every helper.
    """

    def __init__(self, D: np.ndarray, labels: np.ndarray, a: int, processes: int) -> None:
        self.D, self.labels, self.a = D, labels, a
        self._claims, self._claims_in = os.pipe()  # read and write end
        self._fds = [self._claims, self._claims_in]  # the caller's pipe ends
        self._helpers: list[_Helper] = []  # the helpers not yet reaped
        try:
            if hasattr(os, "fork") and threading.active_count() == 1:
                for _ in range(min(processes, _ROUND) - 1):
                    self._fork()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> _BatchProcesses:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fork(self) -> None:
        jobs, jobs_in = os.pipe()
        results_out, results = os.pipe()
        self._fds += [jobs_in, results_out]
        try:
            # signals wait until the helper is in the try that ends in os._exit,
            # so none unwinds the caller's stack in it, and until the caller
            # has it on its list
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns of every thread, OpenBLAS's too; OpenBLAS
                    # registers fork handlers, and no other Python thread runs
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        # an interrupt from the terminal reaches the whole process
                        # group: the caller's ends the helpers
                        signal.signal(signal.SIGINT, signal.SIG_IGN)
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        for fd in self._fds:
                            if fd != self._claims:
                                os.close(fd)
                        self._serve(jobs, results)
                        status = 0
                    finally:
                        os._exit(status)
                self._helpers.append(_Helper(pid, jobs_in, results_out))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        finally:
            os.close(jobs)
            os.close(results)

    def _serve(self, jobs: int, results: int) -> None:
        """A helper's loop, until the end of its jobs pipe: claim batches of
        each round, then send back their losses or the error raised."""
        while (job := _receive(jobs)) is not None:
            try:
                reply = self._claim(*job)
            except Exception as error:
                reply = error
            _send(results, pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))

    def _claim(self, specs: tuple[KernelSpec, KernelSpec],
               batches: list[tuple[np.ndarray, np.ndarray]]) -> dict[int, tuple[float, float]]:
        """The losses (up, down) at the lengthscales of ``specs`` of each batch
        this process claims from the pipe, until a stop marker or the pipe's
        end. After a non-finite loss it takes no further loss, but reads on
        to its stop marker, so the round leaves the pipe empty."""
        losses: dict[int, tuple[float, float]] = {}
        finite = True
        for claim in iter(lambda: os.read(self._claims, _CLAIM.size), b""):
            (b,) = _CLAIM.unpack(claim)
            if b < 0:
                break
            if finite:
                full, half = batches[b]
                D_ff = self.D[np.ix_(full, full)]
                up, down = losses[b] = tuple(kf_loss(D_ff, self.labels, s, self.a, full, half)
                                             for s in specs)
                finite = bool(np.isfinite(up) and np.isfinite(down))
        return losses

    def losses(self, specs: tuple[KernelSpec, KernelSpec],
               batches: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple[float, float]] | None:
        """The losses (up, down) of each batch at the lengthscales of
        ``specs``, in batch order whichever process took it, or None when
        one is non-finite. Raises what a helper raised, and RuntimeError
        naming the exit status of a helper that ended before its reply."""
        pairs = []
        for r0 in range(0, len(batches), _ROUND):
            found = self._round(specs, batches[r0:r0 + _ROUND])
            if not np.isfinite(list(found.values())).all():
                return None
            pairs += [found[b] for b in range(len(found))]  # all there: every loss is finite
        return pairs

    def _round(self, specs: tuple[KernelSpec, KernelSpec],
               batches: list[tuple[np.ndarray, np.ndarray]]) -> dict[int, tuple[float, float]]:
        job = pickle.dumps((specs, batches), pickle.HIGHEST_PROTOCOL)
        for helper in self._helpers:
            with contextlib.suppress(BrokenPipeError):  # it ended: its results pipe tells
                _send(helper.jobs, job)
        os.write(self._claims_in, b"".join(map(_CLAIM.pack, range(len(batches))))
                 + _CLAIM.pack(-1) * (1 + len(self._helpers)))
        found = self._claim(specs, batches)
        for helper in self._helpers:
            reply = _receive(helper.results)
            if reply is None:
                self._ended(helper)
            if isinstance(reply, BaseException):
                raise reply
            found.update(reply)
        return found

    def _ended(self, helper: _Helper) -> None:
        self._helpers.remove(helper)
        _, status = os.waitpid(helper.pid, 0)
        raise RuntimeError(f"Kernel Flows helper process {helper.pid} ended early, "
                           f"exit status {os.waitstatus_to_exitcode(status)}")

    def close(self) -> None:
        """Closes the caller's pipe ends, then kills and reaps every helper:
        one still at work stops at once."""
        while self._fds:
            os.close(self._fds.pop())
        while self._helpers:
            pid = self._helpers.pop().pid
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def kf_gradient(
    processes: _BatchProcesses,
    spec: KernelSpec,
    batches: list[tuple[np.ndarray, np.ndarray]],
    step: float,
) -> tuple[float, float]:
    """Loss and d(loss)/d(log lengthscale) on fixed batches, from the two
    losses at log lengthscale ± ``step``: the loss is their midpoint
    (up + down)/2, the derivative their central difference.

    Each loss is the mean over the batches, in batch order, of
    :func:`kf_loss` on the distances that ``processes`` hold, whichever
    process took each batch. One process takes both losses of a batch, from
    one slice of its block, and holds one batch's blocks at a time. A
    non-finite loss ends the evaluation: (inf, nan).
    """
    log_ell = np.log(spec.lengthscale)
    specs = tuple(KernelSpec(spec.family, np.exp(log_ell + s)) for s in (step, -step))
    pairs = processes.losses(specs, batches)
    if pairs is None:
        return float("inf"), float("nan")
    up, down = (float(np.mean(losses)) for losses in zip(*pairs))
    return (up + down) / 2.0, (up - down) / (2.0 * step)


def _pair_medians(D: np.ndarray) -> tuple[float, float | None]:
    """Medians of the distances between distinct rows, from their square
    distance matrix ``D``: over all pairs, and over the pairs at non-zero
    distance (None when there are none).

    Both come from one copy of the strict upper triangle of ``D``,
    partitioned in place, and have the bits of ``np.median`` of those values.
    No pair (one row) gives (nan, None).
    """
    if D.shape[0] < 2:
        return float("nan"), None
    upper = np.concatenate([D[i, i + 1:] for i in range(D.shape[0] - 1)])
    med = float(np.median(upper, overwrite_input=True))
    zeros = upper.size - np.count_nonzero(upper)
    if zeros == upper.size:
        return med, None
    if zeros:
        # distances are >= 0: the entries before the first non-zero rank are the zeros
        upper.partition(zeros)
    return med, float(np.median(upper[zeros:], overwrite_input=True))


def kf_optimize(
    X: np.ndarray,
    labels: np.ndarray,
    kernel: KernelConfig,
    cfg: KfConfig,
    seed: int,
    processes: int,
) -> KfResult:
    """Learn the kernel lengthscale by stochastic Kernel Flows descent.

    The descent starts at ``kernel.lengthscale``, or, when that is None, at
    the median of the non-zero distances between the training rows. Each
    iteration draws fresh batches, averages the finite-difference
    gradient over them in a fixed order, and applies a Polyak-momentum
    update in log-lengthscale, logging each iteration at DEBUG level. The
    loss it records is the midpoint of the two finite-difference losses
    (:func:`kf_gradient`). Afterward the latent-variable count a* is the
    smallest one on ``cfg.a_grid`` whose full-data training R^2 comes within
    0.01 of the best over the grid, evaluated with the learned kernel from
    one fit at the grid's largest count; a count the fit cannot carry gets
    R^2 None. The fit at a* is returned with its training predictions. The
    distances between the training rows are computed once; every Gram matrix
    of both loops is a kernel of index slices of them. That n × n matrix is
    the one the fit holds: the two medians come from a copy of its upper
    triangle (:func:`_pair_medians`) that is released before the descent,
    and the final Gram matrix is computed over it in place, in row blocks,
    then centered in place by the fit. ``seed`` draws the batches.

    The descent takes each iteration's batch losses on at most
    ``min(processes, cfg.subsamplings_per_iter)`` processes: the caller and
    helpers forked once, after the medians (:class:`_BatchProcesses`). They
    share the distances copy-on-write and each holds one batch's blocks at a
    time; they are reaped, on every exit path, before the final Gram matrix
    overwrites the distances. The result has the bits of a one-process run.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)

    D = cdist(X, X)
    med, med_nonzero = _pair_medians(D)
    ell0 = kernel.lengthscale
    if ell0 is None:
        if med_nonzero is None:
            raise ValueError("cannot derive a lengthscale: sampled spectra are identical")
        ell0 = med_nonzero
    spec0 = KernelSpec(kernel.family, ell0)
    if med <= 0:
        raise ValueError("degenerate training set: median pairwise distance is zero")
    lo, hi = np.log(LENGTHSCALE_BOUNDS[0] * med), np.log(LENGTHSCALE_BOUNDS[1] * med)

    _, n_half = _kf_batch_sizes(X.shape[0], cfg.batch_ratio)
    a_inner = min(max(cfg.a_grid), n_half - 1)
    if a_inner < 1:
        raise ValueError("batches too small for even one latent variable")

    log_ell = float(np.clip(np.log(spec0.lengthscale), lo, hi))
    velocity = 0.0
    trace = np.empty((cfg.iterations, 3))
    with _BatchProcesses(D, labels, a_inner,
                         min(processes, cfg.subsamplings_per_iter)) as batch_processes:
        for it in range(cfg.iterations):
            batches = draw_kf_batches(rng, labels, cfg.subsamplings_per_iter, cfg.batch_ratio)
            spec_it = KernelSpec(kernel.family, float(np.exp(log_ell)))
            loss, grad = kf_gradient(batch_processes, spec_it, batches, cfg.fd_step)
            if not (np.isfinite(loss) and np.isfinite(grad)):
                # log_ell is already clipped into range, so a retry would repeat this
                raise KfConvergenceError(
                    f"Kernel Flows loss is non-finite at lengthscale {np.exp(log_ell):.3e}"
                )
            trace[it] = (it + 1, loss, np.exp(log_ell))
            log.debug("Kernel Flows iteration %d: mean_rho=%.6g lengthscale=%.6g",
                      it + 1, loss, np.exp(log_ell))
            grad = float(np.clip(grad, -cfg.max_gradient, cfg.max_gradient))
            velocity = cfg.momentum * velocity - cfg.learning_rate * grad
            log_ell = float(np.clip(log_ell + velocity, lo, hi))

    spec_opt = KernelSpec(kernel.family, float(np.exp(log_ell)))

    # external loop: confirm the latent count on the full data
    encoding = encode_da(labels)
    Y = encoding.indicators
    tss = float(np.sum((Y - Y.mean(axis=0)) ** 2))
    K = distance_kernel(spec_opt, D, out=D)  # nothing reads D after this
    grid = sorted(set(int(a) for a in cfg.a_grid if a <= X.shape[0] - 1))
    try:
        nested = _fit_nested(K, labels, grid[-1]) if grid else None
    except ValueError:
        nested = None
    r2_by_a: dict[int, float | None] = {}
    scores_by_a = {}
    for a in grid:
        if nested is None or a > nested.live:
            r2_by_a[a] = None
            continue
        scores = nested.Kc @ nested.dual_coef(a) + nested.y_means
        scores_by_a[a] = scores
        r2_by_a[a] = 1.0 - float(np.sum((Y - scores) ** 2)) / tss
    if not scores_by_a:
        raise KfConvergenceError("no feasible latent-variable count on the grid")
    best = max(r2 for r2 in r2_by_a.values() if r2 is not None)
    a_star = min(a for a, r2 in r2_by_a.items() if r2 is not None and r2 >= best - 0.01)

    return KfResult(model=nested.model(spec_opt, X, a_star),
                    predicted=decode_da(nested.classes, scores_by_a[a_star]), trace=trace,
                    r2_by_a=r2_by_a, initial_lengthscale=ell0)


def save_loss_trace(trace: np.ndarray, path: str | Path) -> None:
    """Write the optimizer trace as CSV: iteration, mean rho, lengthscale.

    Mean rho is the midpoint of the two finite-difference losses of the
    iteration (see :func:`kf_gradient`)."""
    lines = ["iteration,mean_rho,lengthscale"]
    for row in np.asarray(trace):
        lines.append(f"{int(row[0])},{float(row[1])!r},{float(row[2])!r}")
    Path(path).write_text("\n".join(lines) + "\n")
