"""Kernel functions, kernel PLS-DA in an RKHS, and Kernel Flows tuning.

The kernel PLS fit runs the SIMPLS recursion in dual form on the centered
Gram matrix, so a linear kernel reproduces the primal SIMPLS of
:mod:`spectral_sift.pls` exactly and prediction on new data needs only
cross-kernels against the stored support spectra.

Kernel Flows tunes the lengthscale by stochastic descent on a
cross-validation discrepancy: models fitted on a random batch and on half of
it should agree on the batch. Gradients are central finite differences in
log-lengthscale, so any stationary kernel family plugs in unchanged.
Distances do not depend on the lengthscale, so the training distances are
computed once: every Gram matrix of the Kernel Flows loop and of the
latent-count search is a kernel of index slices of that one matrix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pls import DegenerateDataError, encode_da, decode_da

log = logging.getLogger(__name__)

KERNEL_FAMILIES = ("gaussian", "laplacian", "matern52", "cauchy")

#: lengthscale clamp, as multiples of the median pairwise training distance
LENGTHSCALE_BOUNDS = (1e-4, 1e4)


class KfConvergenceError(RuntimeError):
    """Kernel Flows could not produce a finite loss/update."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its positive parameters."""

    family: str
    lengthscale: float
    variance: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES and self.family != "linear":
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.lengthscale <= 0 or self.variance <= 0:
            raise ValueError("kernel parameters must be strictly positive")

    def with_lengthscale(self, lengthscale: float) -> "KernelSpec":
        return KernelSpec(self.family, lengthscale, self.variance)


def cdist(XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``XA`` and ``XB``, by scipy.

    scipy is imported on the first call, so commands that never compute a
    kernel do not load it. The kernel code calls this through the module
    global ``cdist``, which tracing can replace.
    """
    from scipy.spatial.distance import cdist as scipy_cdist

    return scipy_cdist(XA, XB)


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise kernel values k(a_i, b_j), shape (|A|, |B|)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"point sets differ in dimension: {A.shape[1]} vs {B.shape[1]}")
    if spec.family == "linear":
        # internal testing family: ties the dual fit back to primal SIMPLS
        return spec.variance * (A @ B.T)
    return distance_kernel(spec, cdist(A, B))


def distance_kernel(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Kernel values of a stationary family from Euclidean distances ``r``."""
    ell = spec.lengthscale
    if spec.family == "gaussian":
        K = np.exp(-(r**2) / (2.0 * ell**2))
    elif spec.family == "laplacian":
        K = np.exp(-r / ell)
    elif spec.family == "matern52":
        u = np.sqrt(5.0) * r / ell
        K = (1.0 + u + u**2 / 3.0) * np.exp(-u)
    elif spec.family == "cauchy":
        K = 1.0 / (1.0 + (r / ell) ** 2)
    else:
        raise ValueError(f"kernel family {spec.family!r} is not a function of distance")
    return spec.variance * K


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


def center_kernel(K: np.ndarray, stats: KernelCenterStats) -> np.ndarray:
    """Feature-space centering of a (cross-)kernel matrix.

    Rows index the points being evaluated, columns the training points; the
    column corrections always come from the training statistics.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[1] != stats.col_means.size:
        raise ValueError(f"kernel matrix has {K.shape[1]} columns, stats expect {stats.col_means.size}")
    row_means = K.mean(axis=1, keepdims=True)
    return K - row_means - stats.col_means[None, :] + stats.mean_all


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


def _dual_simpls(Kc: np.ndarray, Yc: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """SIMPLS recursion expressed against a centered Gram matrix.

    Returns dual weights A (n, a) with scores T = Kc A, and Y-loadings Q.
    The implicit cross-product matrix S = Phi' G is deflated through its
    dual representation G, never materializing feature space.
    """
    n = Kc.shape[0]
    G = Yc.copy()
    A = np.empty((n, a))
    T = np.empty((n, a))
    Q = np.empty((Yc.shape[1], a))
    C = np.zeros((n, a))  # dual representation of the orthonormal loading basis
    scale_ref = max(float(np.linalg.norm(Kc)), 1e-300)

    for i in range(a):
        KG = Kc @ G
        M = G.T @ KG  # = S'S in feature space
        _, vecs = np.linalg.eigh(M)
        q_dom = vecs[:, -1]
        pivot = np.argmax(np.abs(q_dom))
        if q_dom[pivot] < 0:
            q_dom = -q_dom
        alpha = G @ q_dom
        t = Kc @ alpha
        normt = float(np.linalg.norm(t))
        if normt <= 1e-10 * scale_ref:
            raise DegenerateDataError(
                f"kernel cross-product exhausted at factor {i + 1} of {a}"
            )
        t /= normt
        alpha /= normt
        A[:, i] = alpha
        T[:, i] = t
        Q[:, i] = Yc.T @ t
        c = t.copy()
        if i > 0:
            c -= C[:, :i] @ (C[:, :i].T @ (Kc @ t))
        vnorm2 = float(c @ (Kc @ c))
        if vnorm2 <= 0:
            raise DegenerateDataError(f"kernel loading basis degenerate at factor {i + 1}")
        c /= np.sqrt(vnorm2)
        C[:, i] = c
        G = G - c[:, None] @ (c[None, :] @ KG)

    return A, Q


class _GramFit(NamedTuple):
    center_stats: KernelCenterStats
    dual_coef: np.ndarray
    y_means: np.ndarray
    classes: np.ndarray


def _fit_gram(K: np.ndarray, labels: np.ndarray, a: int) -> _GramFit:
    """Kernel PLS-DA on a training Gram matrix against class indicators;
    every kernel PLS fit of the package goes through here."""
    n = K.shape[0]
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must be in [1, {n - 1}] for {n} training rows, got {a}")
    encoding = encode_da(labels)
    stats = fit_kernel_center(K)
    Kc = center_kernel(K, stats)
    if float(np.abs(Kc).max()) <= 1e-12 * max(1.0, abs(stats.mean_all)):
        raise ValueError("degenerate kernel: all training rows are indistinguishable")
    y_means = encoding.indicators.mean(axis=0)
    Yc = encoding.indicators - y_means
    A, Q = _dual_simpls(Kc, Yc, a)
    return _GramFit(stats, A @ Q.T, y_means, encoding.classes)


def _predict_gram(K: np.ndarray, fit: _GramFit | KernelPlsModel) -> np.ndarray:
    """Indicator scores from a cross-kernel against the training rows of ``fit``."""
    return center_kernel(K, fit.center_stats) @ fit.dual_coef + fit.y_means


def fit_kernel_pls(X: np.ndarray, labels: np.ndarray, spec: KernelSpec, a: int) -> KernelPlsModel:
    """Fit kernel PLS-DA: centered Gram matrix against class indicators."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected 2-D spectra, got ndim={X.ndim}")
    fit = _fit_gram(kernel_matrix(spec, X, X), labels, a)
    return KernelPlsModel(kernel=spec, support=X.copy(), a=a, **fit._asdict())


def predict_indicators(model: KernelPlsModel, X_new: np.ndarray) -> np.ndarray:
    """Predicted class-indicator scores for new spectra."""
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2 or X_new.shape[1] != model.support.shape[1]:
        raise ValueError(
            f"expected {model.support.shape[1]} bands, got shape {X_new.shape}"
        )
    return _predict_gram(kernel_matrix(model.kernel, X_new, model.support), model)


def classify(model: KernelPlsModel, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class for each new spectrum plus the raw indicator scores."""
    scores = predict_indicators(model, X_new)
    return decode_da(model.classes, scores), scores


@dataclass
class KernelConfig:
    family: str = "matern52"
    lengthscale: float | None = None  # None: median non-zero distance between the training rows
    variance: float = 1.0


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


@dataclass(frozen=True)
class KfResult:
    model: KernelPlsModel  # fitted on all rows at the learned kernel and a*
    predicted: np.ndarray  # the model's class for each training row
    trace: np.ndarray  # (iterations, 3): iteration, mean rho, lengthscale evaluated
    r2_by_a: dict[int, float]
    initial_lengthscale: float  # the descent's starting point, before clamping

    @property
    def spec(self) -> KernelSpec:
        return self.model.kernel

    @property
    def a_star(self) -> int:
        return self.model.a


def draw_kf_batches(
    rng: np.random.Generator,
    labels: np.ndarray,
    count: int,
    batch_ratio: float,
    max_retries: int = 200,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random (batch, half-batch) index pairs, each containing every class."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    n = labels.size
    n_batch = max(int(round(batch_ratio * n)), 2)
    n_half = max(n_batch // 2, 1)
    if n_half < classes.size:
        raise ValueError(
            f"half-batches of {n_half} rows cannot contain all {classes.size} classes"
        )
    batches = []
    for _ in range(count):
        for attempt in range(max_retries):
            perm = rng.permutation(n)
            full = perm[:n_batch]
            half = full[:n_half]
            if (np.unique(labels[full]).size == classes.size
                    and np.unique(labels[half]).size == classes.size):
                batches.append((np.sort(full), np.sort(half)))
                break
        else:
            raise KfConvergenceError(
                f"could not draw a batch containing all classes in {max_retries} tries"
            )
    return batches


def _fit_with_feasible_a(K: np.ndarray, labels: np.ndarray, a: int) -> _GramFit | None:
    """Fit kernel PLS on a Gram matrix, stepping the factor count down if it
    cannot support it (extreme lengthscales collapse its effective rank)."""
    for a_try in range(a, 0, -1):
        try:
            return _fit_gram(K, labels, a_try)
        except DegenerateDataError:
            continue
    return None


def kf_loss(
    D: np.ndarray,
    labels: np.ndarray,
    spec: KernelSpec,
    a: int,
    batches: list[tuple[np.ndarray, np.ndarray]],
) -> float:
    """Mean Kernel Flows discrepancy over the given batches.

    ``D`` holds the Euclidean distances between all training rows; each
    batch is a pair of sorted row-index arrays, the half within the full
    batch, as :func:`draw_kf_batches` draws them. Per batch:
    rho = ||yhat_full - yhat_half||^2 / ||yhat_full||^2 on the full batch,
    where yhat_half comes from the model fitted on the half. Returns inf when
    a fit degenerates outright (all-equal kernel rows).
    """
    D = np.asarray(D, dtype=np.float64)
    labels = np.asarray(labels)
    rhos = []
    for full, half in batches:
        a_fit = min(a, half.size - 1)
        pos = np.searchsorted(full, half)  # where the half-batch rows sit in the batch
        if not np.array_equal(full[np.minimum(pos, full.size - 1)], half):
            raise ValueError("each half-batch must lie within its sorted batch")
        K_ff = distance_kernel(spec, D[np.ix_(full, full)])
        # take, not K_ff[:, pos]: a C-ordered copy, like a kernel computed from the
        # spectra, so row means and products round the same way
        K_fh = K_ff.take(pos, axis=1)
        try:
            fit_full = _fit_with_feasible_a(K_ff, labels[full], a_fit)
            fit_half = _fit_with_feasible_a(K_fh[pos], labels[half], a_fit)
        except ValueError:
            return float("inf")
        if fit_full is None or fit_half is None:
            return float("inf")
        yhat_full = _predict_gram(K_ff, fit_full)
        yhat_half = _predict_gram(K_fh, fit_half)
        denom = float(np.sum(yhat_full**2))
        if denom <= 0:
            return float("inf")
        rhos.append(float(np.sum((yhat_full - yhat_half) ** 2)) / denom)
    return float(np.mean(rhos))


def kf_gradient(
    D: np.ndarray,
    labels: np.ndarray,
    spec: KernelSpec,
    a: int,
    batches: list[tuple[np.ndarray, np.ndarray]],
    step: float = 1e-4,
) -> float:
    """d(loss)/d(log lengthscale) by central finite differences on fixed batches."""
    log_ell = np.log(spec.lengthscale)
    up = kf_loss(D, labels, spec.with_lengthscale(np.exp(log_ell + step)), a, batches)
    down = kf_loss(D, labels, spec.with_lengthscale(np.exp(log_ell - step)), a, batches)
    return (up - down) / (2.0 * step)


def kf_optimize(
    X: np.ndarray,
    labels: np.ndarray,
    kernel: KernelConfig,
    cfg: KfConfig = KfConfig(),
    seed: int = 0,
) -> KfResult:
    """Learn the kernel lengthscale by stochastic Kernel Flows descent.

    The descent starts at ``kernel.lengthscale``, or, when that is None, at
    the median of the non-zero distances between the training rows. Each
    iteration draws fresh batches, averages the finite-difference
    gradient over them in a fixed order, and applies a Polyak-momentum
    update in log-lengthscale, logging each iteration at DEBUG level.
    Afterward the latent-variable count a* is the smallest one on
    ``cfg.a_grid`` whose full-data training R^2 comes within 0.01 of the
    best over the grid, evaluated with the learned kernel; the fit at a* is
    returned with its training predictions. The distances between the
    training rows are computed once; every Gram matrix of both loops is a
    kernel of index slices of them. ``seed`` draws the batches.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if kernel.family not in KERNEL_FAMILIES:
        raise ValueError(
            f"Kernel Flows cannot tune the {kernel.family!r} kernel: it has no lengthscale "
            "and is not a function of distance"
        )
    rng = np.random.default_rng(seed)

    D = cdist(X, X)
    upper = D[np.triu_indices(X.shape[0], k=1)]
    ell0 = kernel.lengthscale
    if ell0 is None:
        nonzero = upper[upper > 0]
        if nonzero.size == 0:
            raise ValueError("cannot derive a lengthscale: sampled spectra are identical")
        ell0 = float(np.median(nonzero))
    spec0 = KernelSpec(kernel.family, ell0, kernel.variance)
    med = float(np.median(upper))
    if med <= 0:
        raise ValueError("degenerate training set: median pairwise distance is zero")
    lo, hi = np.log(LENGTHSCALE_BOUNDS[0] * med), np.log(LENGTHSCALE_BOUNDS[1] * med)

    n_half = max(max(int(round(cfg.batch_ratio * X.shape[0])), 2) // 2, 1)
    a_inner = min(max(cfg.a_grid), n_half - 1)
    if a_inner < 1:
        raise ValueError("batches too small for even one latent variable")

    log_ell = float(np.clip(np.log(spec0.lengthscale), lo, hi))
    velocity = 0.0
    trace = np.empty((cfg.iterations, 3))
    for it in range(cfg.iterations):
        batches = draw_kf_batches(rng, labels, cfg.subsamplings_per_iter, cfg.batch_ratio)
        spec_it = spec0.with_lengthscale(float(np.exp(log_ell)))
        loss = kf_loss(D, labels, spec_it, a_inner, batches)
        grad = kf_gradient(D, labels, spec_it, a_inner, batches, cfg.fd_step)
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

    spec_opt = spec0.with_lengthscale(float(np.exp(log_ell)))

    # external loop: confirm the latent count on the full data
    encoding = encode_da(labels)
    Y = encoding.indicators
    tss = float(np.sum((Y - Y.mean(axis=0)) ** 2))
    K = distance_kernel(spec_opt, D)
    r2_by_a: dict[int, float] = {}
    fits = {}
    for a in sorted(set(int(a) for a in cfg.a_grid)):
        if a > X.shape[0] - 1:
            continue
        try:
            fit = _fit_gram(K, labels, a)
        except (DegenerateDataError, ValueError):
            r2_by_a[a] = float("-inf")
            continue
        scores = _predict_gram(K, fit)
        fits[a] = fit, scores
        r2_by_a[a] = 1.0 - float(np.sum((Y - scores) ** 2)) / tss
    if not fits:
        raise KfConvergenceError("no feasible latent-variable count on the grid")
    best = max(r2_by_a.values())
    a_star = min(a for a, r2 in r2_by_a.items() if r2 >= best - 0.01)

    fit, scores = fits[a_star]
    model = KernelPlsModel(kernel=spec_opt, support=X.copy(), a=a_star, **fit._asdict())
    return KfResult(model=model, predicted=decode_da(fit.classes, scores), trace=trace,
                    r2_by_a=r2_by_a, initial_lengthscale=ell0)


def save_loss_trace(trace: np.ndarray, path: str | Path) -> None:
    """Write the optimizer trace as CSV: iteration, mean rho, lengthscale."""
    lines = ["iteration,mean_rho,lengthscale"]
    for row in np.asarray(trace):
        lines.append(f"{int(row[0])},{float(row[1])!r},{float(row[2])!r}")
    Path(path).write_text("\n".join(lines) + "\n")
