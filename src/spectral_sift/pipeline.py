"""Batch workflows: fit, apply, band selection, synthesis, inspection.

Two fit paths exist. The clustering path scales, decomposes, gates the
principal components on class correlation, and escalates K-means++ on the
scores of the gated components until the labeled mites sit alone. The kernel
path samples labeled pixels, tunes the kernel by Kernel Flows, and fits
kernel PLS-DA on the raw spectra. Applying a model never refits statistics:
new images are always pushed through the stored calibration parameters.

No command holds a cube as float64, nor its whole payload. Fit, band
selection and apply open the file (:class:`CubeFile`, from
:func:`load_inputs` or ``open_envi``) and read it in row tiles through
:meth:`CubeFile.read_rows`, which decodes every cube read, whole
(``read_envi``) or tiled: each tile is read in chunks of about a megabyte,
converted to a row-major float64 pixels-by-bands matrix of the columns in
use (a band subset is a sorted column list) and checked for NaN/Inf. Apply
also takes a :class:`HyperCube`, whose own ``read_rows`` gives its tiles. A
fit walks the tiles in one reused buffer and keeps only per-pixel results:
the scores of the gated components (the kmeans path reads the tiles three
times, :func:`_fit_kmeans_path`) or the Kernel Flows samples. Band
selection keeps none: one pass sums the autoscaled cross-product of the bee
and mite rows (:func:`preprocess.scaled_cross_product`). Apply classifies
tiles on one worker per usable CPU, the calling thread among them; a kfpls
tile's cross-kernel is taken in chunks. Rows and mask labels are in
row-major scan order, so a per-pixel result reshapes to the image grid.

Every tile holds at most ``TILE_CELLS`` cells (at least one row), its rows
set by the cube's columns and the width in use alone, and fit, band
selection and apply run on one OpenBLAS thread (:func:`_blas_threads_held`),
so for one BLAS build their output bytes depend on neither the CPU count
nor the caller's OpenBLAS thread setting.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cluster as cl
from . import kernel as kn
from . import modelio
from . import pca as pc
from . import preprocess as pp
from . import wavesel as ws
from .modelio import ConfigError
from .specdata import (
    UNLABELED,
    CubeFile,
    EnviFormatError,
    HyperCube,
    LabelMask,
    SceneSpec,
    open_envi,
    read_label_mask,
    synth_scene,
    write_envi,
    write_label_mask_envi,
    write_label_mask_pgm,
)
from .specdata import flatten, read_envi  # noqa: F401  bench/spans.py traces both by name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QUALITY = 2

WORKFLOWS = ("kmeans", "kfpls")
BAND_METHODS = ("none", "r2", "covproc")


@dataclass
class InputsConfig:
    cube_header: str = ""
    cube_data: str | None = None  # None: the payload next to the header
    mask: str = ""
    palette: str | None = None  # JSON file mapping mask ids to class names


@dataclass
class LabelsConfig:
    mite: int = 3
    bee: int = 1


@dataclass
class PcaConfig:
    components: int | None = None  # None: at most pca.DEFAULT_MAX_COMPONENTS
    top_n: int | None = None  # None without a threshold: the top 2 components
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.top_n is not None and self.threshold is not None:
            raise ConfigError("give only one of top_n or threshold")
        if self.threshold is None and self.top_n is None:
            self.top_n = 2


@dataclass
class ClusterConfig:
    k0: int = 2
    k_max: int = 12

    def __post_init__(self) -> None:
        if not 2 <= self.k0 <= self.k_max:
            raise ConfigError(f"need 2 <= k0 <= k_max, got k0={self.k0} and k_max={self.k_max}")


@dataclass
class BandSelectionConfig:
    method: str = "none"
    n_tail: int = 10
    init_m: int = 3
    target_count: int = 12
    lv: int = ws.DEFAULT_FORWARD_LV
    rounds: int = 4
    round_order: tuple[int, ...] | None = None
    stop_by_clustering: bool = False

    def __post_init__(self) -> None:
        if self.init_m < 0:
            raise ConfigError(f"init_m must be >= 0, got {self.init_m}")
        if self.method == "r2" and self.target_count <= self.init_m:
            raise ConfigError(f"target_count must exceed init_m ({self.init_m}) for r2, "
                              f"got {self.target_count}")


@dataclass
class RunConfig:
    """One run, as its JSON config file holds it, key for key.

    Sections: ``inputs`` (cube, mask and palette files), ``labels`` (mite
    and bee mask ids), ``pca`` (components kept, then top_n or threshold
    gating), ``cluster`` (escalation k0..k_max), ``kernel`` (family and
    starting lengthscale), ``kf`` (:class:`kernel.KfConfig`: Kernel Flows
    descent and the latent-count grid ``a_grid``) and ``band_selection``;
    top-level keys are ``workflow``, ``samples_per_class``, ``seed`` and
    ``out_dir``. Field defaults are the defaults of omitted keys, and the
    only place a default of these settings is written: the functions they
    feed take them as required arguments.
    """

    workflow: str = "kmeans"
    inputs: InputsConfig = field(default_factory=InputsConfig)
    labels: LabelsConfig = field(default_factory=LabelsConfig)
    pca: PcaConfig = field(default_factory=PcaConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    kernel: kn.KernelConfig = field(default_factory=kn.KernelConfig)
    kf: kn.KfConfig = field(default_factory=kn.KfConfig)
    samples_per_class: int = 300
    band_selection: BandSelectionConfig = field(default_factory=BandSelectionConfig)
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.workflow not in WORKFLOWS:
            raise ConfigError(f"workflow must be one of {WORKFLOWS}, got {self.workflow!r}")
        if self.band_selection.method not in BAND_METHODS:
            raise ConfigError(f"band_selection.method must be one of {BAND_METHODS}")
        if self.labels.mite == self.labels.bee:
            raise ConfigError("labels.mite and labels.bee must differ")
        if self.samples_per_class < 1:
            raise ConfigError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.kernel.family not in kn.KERNEL_FAMILIES:
            raise ConfigError(f"kernel.family must be one of {kn.KERNEL_FAMILIES}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return modelio.decode(cls, doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(modelio.load_json(path))


@dataclass
class PipelineModel:
    workflow: str
    palette: dict[int, str]
    mite_label: int
    bee_label: int
    original_bands: int
    wavelengths_nm: np.ndarray  # wavelengths of the bands the model consumes
    band_subset: list[int] | None = None  # sorted indices into the original cube
    scale: pp.ScaleModel | None = None
    pca: pc.PcaModel | None = None
    selection: pc.ComponentSelection | None = None
    cluster: cl.ClusterModel | None = None
    kernel: kn.KernelPlsModel | None = None
    selection_report: dict | None = None

    def __post_init__(self) -> None:
        # a model file comes from outside: check the subset before apply indexes with it
        subset = self.band_subset
        if subset is not None and (not subset or subset != sorted(set(subset)) or subset[0] < 0
                                   or subset[-1] >= self.original_bands
                                   or len(subset) != self.wavelengths_nm.size):
            raise ConfigError(f"band_subset {subset} must be sorted unique indices below "
                              f"{self.original_bands}, one per wavelength")
        if self.selection_report is not None:
            missing = [key for key in ("method", "selected", "selected_nm")
                       if key not in self.selection_report]
            if missing:
                raise ConfigError(f"selection_report lacks {', '.join(missing)}")

    def to_dict(self) -> dict:
        return {"format_version": modelio.FORMAT_VERSION, **modelio.encode(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineModel":
        doc = dict(doc)
        version = doc.pop("format_version", None)
        if version == 1:
            raise ConfigError("model format 1 stores spectrum-space centroids; refit the model")
        if version != modelio.FORMAT_VERSION:
            raise ConfigError(f"model format {version!r} cannot be read by this version "
                              f"(format {modelio.FORMAT_VERSION}); refit the model")
        return modelio.decode(cls, doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(modelio.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "PipelineModel":
        doc = modelio.load_json(path)
        if not isinstance(doc, dict):
            raise ConfigError(f"model file {path} must hold a JSON object")
        return cls.from_dict(doc)


def load_inputs(config: RunConfig) -> tuple[CubeFile, LabelMask]:
    """The configured cube, opened but not read (:func:`open_envi`; only its
    header and size are checked here), and its label mask, which must match
    its grid."""
    inputs = config.inputs
    for key in ("cube_header", "mask"):
        if not getattr(inputs, key):
            raise ConfigError(f"inputs.{key} must name a file")
    cube = open_envi(inputs.cube_header, inputs.cube_data)
    palette = _read_palette(inputs.palette) if inputs.palette else None
    mask = read_label_mask(inputs.mask, palette=palette)
    if not mask.matches(cube):
        raise ValueError(
            f"mask {(mask.rows, mask.cols)} does not match cube {(cube.rows, cube.cols)}"
        )
    return cube, mask


def _read_palette(path: str) -> dict[int, str]:
    """The palette file's JSON object, mask id (a key, 0-255) to class name."""
    doc = modelio.load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"palette file {path} must hold a JSON object of mask ids "
                          f"to class names, got {type(doc).__name__}")
    palette = {}
    for key, name in doc.items():
        if not (key.isascii() and key.isdigit() and int(key) <= 255):
            raise ConfigError(f"palette file {path}: key {key!r} is not a mask id 0-255")
        if not isinstance(name, str):
            raise ConfigError(f"palette file {path}: the name of mask id {key} must be a "
                              f"string, got {name!r}")
        palette[int(key)] = name
    return palette


def _discriminant_rows(labels: np.ndarray, mite_label: int, bee_label: int) -> tuple[np.ndarray, np.ndarray]:
    """Row selector for bee/mite pixels and the 0/1 discriminant (bee = 1)."""
    selector = (labels == mite_label) | (labels == bee_label)
    if not np.any(labels == mite_label):
        raise ValueError(f"mask has no mite pixels (label {mite_label})")
    if not np.any(labels == bee_label):
        raise ValueError(f"mask has no bee pixels (label {bee_label})")
    y = (labels[selector] == bee_label).astype(np.float64)
    return selector, y


@functools.cache
def _openblas_threads():
    """``(get, set)``: the thread-count functions of the OpenBLAS library that
    numpy's wheel ships in ``numpy.libs``, or None when there is none: numpy
    built on MKL, Accelerate or a system BLAS."""
    symbols = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
               ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
               ("openblas_get_num_threads", "openblas_set_num_threads"))
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                       .glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # numpy has loaded it: dlopen returns that handle
        for get_name, set_name in symbols:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _blas_threads_held() -> Iterator[None]:
    """Hold numpy's OpenBLAS to one thread while the block, or each call of a
    function it decorates, runs, and put the previous count back after it,
    also when it raises.

    :func:`fit_pipeline`, :func:`run_band_selection` and the tile workers of
    :func:`apply_pipeline` run held: how OpenBLAS splits a product sets its
    last bits, so for one BLAS build their outputs depend on neither the CPU
    count nor the caller's setting. Apply's workers, one per usable CPU, use
    the cores that OpenBLAS's own threads would.

    The count is process-wide: OpenBLAS's per-thread setting is not honoured
    by every build (in scipy-openblas 0.3.31 it changed the main thread's
    count too), so calls running at once in one process share it. Does
    nothing without OpenBLAS or when the count is already 1, as in a hold
    nested in another.
    """
    blas = _openblas_threads()
    before = blas[0]() if blas is not None else 0
    if before <= 1:
        yield
        return
    set_ = blas[1]
    set_(1)
    try:
        yield
    finally:
        set_(before)


#: float64 cells of one row tile (1 MiB, the size of ``envi.CHUNK_BYTES``):
#: a tile holds at most this many cells of its widest per-pixel row (at
#: least one row), so its rows follow from the cube's columns and that width
#: alone. A fit reads one tile at a time: its pixels × the columns in use.
#: Apply's width is a kmeans tile's spectra, scaled in place, or a kfpls
#: model's support count (one row on the benchmark's M cube; the band count
#: gave two and a higher peak), though a kfpls tile holds only its spectra
#: and one ``kernel.BLOCK_CELLS`` chunk of cross-kernel at a time
#: (``kernel.classify``). So the tiles in flight hold workers × ``TILE_CELLS``
#: cells, plus a few blocks per kfpls worker.
#: OpenBLAS still threads a tile's products (from
#: about 2.6e5 multiply-adds: even 4 pixels against 654 support spectra of
#: 204 bands), so every command holds it to one thread
#: (:func:`_blas_threads_held`). With both fixed, the bits of fit, band
#: selection and apply depend on neither the CPU count nor the caller's
#: OpenBLAS setting, for one BLAS build.
TILE_CELLS = 1 << 17


def _read_tile(cube: HyperCube | CubeFile, r0: int, rows: int, columns: list[int] | None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``r0`` to ``r0 + rows`` of the cube as a row-major float64 pixels ×
    columns matrix (every band when ``columns`` is None), read by the cube's
    ``read_rows`` into the flat buffer ``out`` when one is given. Raises
    EnviFormatError, naming the rows, if a value is NaN or infinite, or if a
    cube file is shorter than when it was opened."""
    rows = min(rows, cube.rows - r0)
    width = cube.bands if columns is None else len(columns)
    size = rows * cube.cols * width
    X = (np.empty(size) if out is None else out[:size]).reshape(-1, width)
    cube.read_rows(r0, columns, X)
    if not np.all(np.isfinite(X)):
        raise EnviFormatError(f"{cube.source} contains NaN/Inf in rows {r0}-{r0 + rows - 1}")
    return X


class _RowTiles:
    """The row tiles of a fit, top to bottom, each read again on every pass:
    once for band selection, three times for the kmeans path.

    Iterating yields each tile as :func:`_read_tile` gives it, in one buffer
    that every tile of every pass reuses: a tile holds until the next one is
    read, and the caller may write to it. A tile holds at most ``TILE_CELLS``
    cells (at least one row); its rows follow from the cube's columns and
    the columns read alone, so a fit's bits do not depend on the machine.
    """

    def __init__(self, cube: CubeFile, columns: list[int] | None) -> None:
        self.cube, self.columns = cube, columns
        self.width = cube.bands if columns is None else len(columns)
        self.step = max(1, TILE_CELLS // (cube.cols * self.width))
        self.buffer = np.empty(min(self.step, cube.rows) * cube.cols * self.width)

    def __iter__(self) -> Iterator[np.ndarray]:
        for r0 in range(0, self.cube.rows, self.step):
            yield _read_tile(self.cube, r0, self.step, self.columns, self.buffer)


def _gather_pixels(cube: CubeFile, columns: list[int] | None,
                   pixels: np.ndarray) -> np.ndarray:
    """Rows ``pixels`` (flat pixel indices, in any order) of the cube's pixels ×
    columns matrix, as float64. Every tile is read, so a NaN/Inf anywhere in
    those columns fails the gather, as it fails a whole-cube pass."""
    tiles = _RowTiles(cube, columns)
    out = np.empty((pixels.size, tiles.width))
    start = 0
    for X in tiles:
        inside = (pixels >= start) & (pixels < start + X.shape[0])
        out[inside] = X[pixels[inside] - start]
        start += X.shape[0]
    return out


def _bee_mite_tiles(tiles: _RowTiles, selector: np.ndarray, y: np.ndarray) -> Iterator[np.ndarray]:
    """New [X | y] tiles: each tile's rows ``selector`` (a mask over the pixels)
    and their entries of ``y``; a tile without a selected row is skipped."""
    start = filled = 0
    for X in tiles:
        keep = selector[start:start + X.shape[0]]
        start, count = start + X.shape[0], np.count_nonzero(keep)
        if count:
            yield np.column_stack((X[keep], y[filled:filled + count]))
            filled += count


def _kept_scores(tiles: _RowTiles, scale: pp.ScaleModel, loadings: np.ndarray,
                 pixels: np.ndarray | None, components: np.ndarray | None) -> np.ndarray:
    """One pass over the tiles: each tile is autoscaled and projected on every
    loading column into one buffer that every tile reuses, and only the rows
    ``pixels`` (a boolean mask over the pixels; every row when None) and the
    columns ``components`` (every one when None) of its scores are kept.
    Each pass runs the same products on the same tiles, so a pixel's scores
    have the same bits in every pass."""
    k = loadings.shape[1]
    rows = tiles.cube.rows * tiles.cube.cols if pixels is None else np.count_nonzero(pixels)
    kept = np.empty((rows, k if components is None else components.size))
    buffer = np.empty(tiles.buffer.size // tiles.width * k)
    start = filled = 0
    for X in tiles:
        T = np.matmul(pp.apply_scale(scale, X, out=X), loadings,
                      out=buffer[:X.shape[0] * k].reshape(-1, k))
        if pixels is not None:
            T = T[pixels[start:start + X.shape[0]]]
        if components is not None:
            T = T[:, components]
        kept[filled:filled + T.shape[0]] = T
        start, filled = start + X.shape[0], filled + T.shape[0]
    return kept


def _fit_kmeans_path(cube: CubeFile, columns: list[int] | None,
                     labels: np.ndarray, config: RunConfig):
    """Autoscale, PCA, component gate and escalation on the cube's columns
    (every band when None), in three passes over the row tiles: the column
    means, standard deviations and autoscaled cross-product XₛᵀXₛ in one
    (:func:`preprocess.scaled_cross_product`), the scores of every component
    at the bee and mite pixels alone (the gate's correlations), and the
    scores of the selected components at every pixel.
    Only the last are kept whole, and they are all that the escalation
    holds of the cube: the tile buffer goes before it starts."""
    selector, y = _discriminant_rows(labels, config.labels.mite, config.labels.bee)
    tiles = _RowTiles(cube, columns)
    scale, cross = pp.scaled_cross_product(tiles)
    pca_model = pc.pca_from_cross_product(cross, labels.size, config.pca.components)
    rho = pc.correlate_scores(_kept_scores(tiles, scale, pca_model.loadings, selector, None), y)
    selection = pc.select_components(rho, top_n=config.pca.top_n, threshold=config.pca.threshold)
    scores = _kept_scores(tiles, scale, pca_model.loadings, None, selection.selected)
    del tiles  # and with it the tile buffer
    cluster_model, diag = cl.fit_supervised(
        scores, labels, config.labels.mite, config.labels.bee,
        k0=config.cluster.k0, k_max=config.cluster.k_max, seed=config.seed,
    )
    diagnostics = {
        "selected_components": [int(i) for i in selection.selected],
        "component_correlations": [float(v) for v in rho],
        "explained_variance_ratio": [float(v) for v in pca_model.explained_variance_ratio],
        "escalation": modelio.encode(diag.attempts),  # k, false_alarms, missed_mites, inertia
        "final_k": diag.final.k,
    }
    return scale, pca_model, selection, cluster_model, diagnostics


def _sample_labeled_pixels(labels: np.ndarray, per_class: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``per_class`` random pixels of each labeled class: their flat
    indices, ascending within each class, and their labels."""
    rng = np.random.default_rng(seed)
    classes = [int(c) for c in np.unique(labels) if c != UNLABELED]
    rows = []
    out_labels = []
    for c in classes:
        members = np.flatnonzero(labels == c)
        take = min(per_class, members.size)
        picked = np.sort(rng.choice(members, size=take, replace=False))
        rows.append(picked)
        out_labels.append(np.full(take, c))
    return np.concatenate(rows), np.concatenate(out_labels)


def _fit_kfpls_path(cube: CubeFile, columns: list[int] | None,
                    labels: np.ndarray, config: RunConfig):
    if np.unique(labels[labels != UNLABELED]).size < 2:
        raise ValueError("kernel workflow needs at least 2 labeled classes")
    _discriminant_rows(labels, config.labels.mite, config.labels.bee)  # both insects must exist
    pixels, y_train = _sample_labeled_pixels(labels, config.samples_per_class, config.seed)
    X_train = _gather_pixels(cube, columns, pixels)
    # OpenBLAS registers fork handlers, so the Kernel Flows batches may run on a
    # forked helper per usable CPU; with another BLAS they run on one process
    processes = _usable_cpus() if _openblas_threads() is not None else 1
    result = kn.kf_optimize(X_train, y_train, config.kernel, config.kf, config.seed, processes)
    diagnostics = {
        "kernel": modelio.encode(result.spec),
        "initial_lengthscale": result.initial_lengthscale,
        "latent_variables": result.a_star,
        "r2_by_a": {str(a): v for a, v in sorted(result.r2_by_a.items())},  # None: infeasible
        "training_accuracy": float(np.mean(result.predicted == y_train)),
        "training_pixels": int(y_train.size),
    }
    return result, diagnostics


def _passes_clustering(cube: CubeFile, labels: np.ndarray, config: RunConfig,
                       bands: list[int]):
    """The kmeans path's result on those columns of the cube (sorted and
    unique, as a model's band subset), or None when it fails there. A payload
    that cannot be read (:class:`EnviFormatError`) fails the whole test."""
    try:
        return _fit_kmeans_path(cube, sorted(set(bands)), labels, config)
    except (cl.EscalationError, ValueError) as error:
        if isinstance(error, EnviFormatError):
            raise


@_blas_threads_held()
def run_band_selection(cube: CubeFile, labels: np.ndarray, config: RunConfig):
    """Run the configured selector on the cube's bee and mite pixels; returns
    ``(report, bands_for_model, passing_fit)``. The selectors read the
    autoscaled cross-product of those pixels' [spectra | bee indicator],
    summed in one pass over the row tiles, whose reads check the payload for
    NaN/Inf.

    The selector only ranks bands. With ``stop_by_clustering`` one rule then
    cuts either list: its prefixes are tested in order, from ``first`` bands
    (the init size + 1 for r2, 1 for covproc), by the kmeans path on those
    bands alone, and the first that passes is kept; an r2 report is cut to
    it. ``EscalationError`` says that none passed. ``passing_fit`` is the
    kmeans path's result on the kept bands, the one ``fit_pipeline`` would
    compute on them; it is None without the stop test.
    """
    bands_cfg = config.band_selection
    selector, y = _discriminant_rows(labels, config.labels.mite, config.labels.bee)
    _, cross = pp.scaled_cross_product(_bee_mite_tiles(_RowTiles(cube, None), selector, y))
    excluded = ws.exclude_tail(cube.bands, bands_cfg.n_tail)

    if bands_cfg.method == "r2":
        init = ws.init_by_correlation(cross, m=bands_cfg.init_m, exclude=excluded)
        report = ws.r2_forward_select(
            cross, target_count=bands_cfg.target_count, init=init, lv=bands_cfg.lv,
            exclude=excluded, wavelengths_nm=cube.wavelengths_nm,
        )
        bands, listed, first = list(report.selected), "r2 band list", len(init) + 1
    elif bands_cfg.method == "covproc":
        report = ws.covproc_select(
            cross, rounds=bands_cfg.rounds, exclude=excluded, wavelengths_nm=cube.wavelengths_nm,
        )
        order = bands_cfg.round_order or tuple(r.index for r in report.rounds)
        bands, listed, first = ws.reorder_rounds(report, order), "reordered band list", 1
    else:
        raise ConfigError(f"band selection method {bands_cfg.method!r} cannot be run")
    if not bands_cfg.stop_by_clustering:
        return report, bands, None
    for n in range(first, len(bands) + 1):
        passing_fit = _passes_clustering(cube, labels, config, bands[:n])
        if passing_fit is not None:
            break
    else:
        raise cl.EscalationError(
            f"no prefix of the {listed} passes the clustering test "
            f"({len(bands) - first + 1} tried, {first} to {len(bands)} bands)",
            cl.ClusterDiagnostics(),
        )
    bands = bands[:n]
    if report.method == ws.METHOD_R2:
        report.selected, report.trace = list(bands), report.trace[:n - first + 1]
    return report, bands, passing_fit


@_blas_threads_held()
def fit_pipeline(config: RunConfig) -> tuple[PipelineModel, dict]:
    """Calibrate a full pipeline per the run configuration."""
    cube, mask = load_inputs(config)
    labels, wavelengths_nm = mask.labels.ravel(), cube.wavelengths_nm
    diagnostics: dict = {"workflow": config.workflow, "seed": config.seed}

    report_doc = None
    band_subset = None
    passing_fit = None
    if config.band_selection.method != "none":
        report, bands, passing_fit = run_band_selection(cube, labels, config)
        report_doc = report.to_dict()
        report_doc["bands_for_model"] = [int(b) for b in bands]
        band_subset = sorted(set(bands))
        wavelengths_nm = wavelengths_nm[band_subset]
        diagnostics["band_selection"] = report_doc

    model = PipelineModel(
        workflow=config.workflow,
        palette=dict(mask.palette),
        mite_label=config.labels.mite,
        bee_label=config.labels.bee,
        original_bands=cube.bands,
        wavelengths_nm=wavelengths_nm,
        band_subset=band_subset,
        selection_report=report_doc,
    )

    if config.workflow == "kmeans":
        # the stop test's passing fit ran on these very columns
        scale, pca_model, selection, cluster_model, diag = (
            passing_fit or _fit_kmeans_path(cube, band_subset, labels, config))
        model.scale = scale
        model.pca = pca_model
        model.selection = selection
        model.cluster = cluster_model
        diagnostics.update(diag)
    else:
        result, diag = _fit_kfpls_path(cube, band_subset, labels, config)
        model.kernel = result.model
        diagnostics.update(diag)
        diagnostics["_kf_trace"] = result.trace  # stripped before JSON emission

    return model, diagnostics


@dataclass
class ApplyResult:
    class_labels: np.ndarray  # (rows, cols) uint8 mask ids
    palette: dict[int, str]
    counts: dict[str, int]
    cluster_ids: np.ndarray | None = None  # (rows, cols), kmeans path only


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports
    one (Linux), else every CPU of the machine (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _model_columns(model: PipelineModel, n_bands: int,
                   wavelengths_nm: np.ndarray) -> list[int] | None:
    """The cube columns the model reads, None for all of them: a full-band cube
    is cut to the band subset, a cube recorded on those bands alone is read
    whole. Checks the band count and the wavelength grid."""
    columns = None
    n_model = model.wavelengths_nm.size
    if model.band_subset is not None and n_bands == model.original_bands:
        columns, wavelengths_nm = model.band_subset, wavelengths_nm[model.band_subset]
    if wavelengths_nm.size != n_model:
        raise ValueError(
            f"cube has {n_bands} bands; model expects {n_model}"
            + ("" if model.band_subset is None
               else f" (or the {model.original_bands} pre-selection bands)")
        )
    if not np.allclose(wavelengths_nm, model.wavelengths_nm, rtol=1e-6, atol=1e-6):
        raise ValueError("cube wavelengths do not match the model's calibration grid")
    return columns


def _pixel_classifier(model: PipelineModel):
    """``(classify, width, palette)``: ``classify`` maps a pixels-by-bands float64
    matrix, which it may overwrite, to uint8 mask ids and uint8 cluster ids
    (None on the kernel path); ``width``, the cells per pixel that
    :data:`TILE_CELLS` counts, sets the tile rows."""
    if model.workflow == "kmeans":
        if (model.scale is None or model.pca is None or model.selection is None
                or model.cluster is None):
            raise ConfigError("model file lacks the clustering-path components")
        other_label = 0 if 0 not in (model.mite_label, model.bee_label) else \
            min(set(range(256)) - {model.mite_label, model.bee_label})
        id_of_class = {
            cl.CLASS_MITE: model.mite_label,
            cl.CLASS_BEE: model.bee_label,
            cl.CLASS_OTHER: other_label,
        }
        id_of_cluster = np.array(
            [id_of_class[model.cluster.class_of_cluster[j]] for j in range(model.cluster.k)],
            dtype=np.uint8,
        )
        palette = {model.mite_label: "mite", model.bee_label: "bee", other_label: "other"}

        def classify_kmeans(X: np.ndarray):
            scores = pc.project(model.pca, pp.apply_scale(model.scale, X, out=X))
            clusters, _ = cl.assign(model.cluster, scores[:, model.selection.selected])
            return id_of_cluster[clusters], clusters.astype(np.uint8)

        return classify_kmeans, max(model.pca.n_bands, model.pca.k, model.cluster.k), palette

    if model.kernel is None:
        raise ConfigError("model file lacks the kernel-path components")
    palette = {int(c): model.palette.get(int(c), f"class-{int(c)}")
               for c in model.kernel.classes}

    def classify_kfpls(X: np.ndarray):
        predicted, _ = kn.classify(model.kernel, X)
        return predicted.astype(np.uint8), None

    return classify_kfpls, max(model.kernel.n_support, model.wavelengths_nm.size), palette


def apply_pipeline(model: PipelineModel, cube: HyperCube | CubeFile) -> ApplyResult:
    """Classify a new cube with stored calibration statistics only.

    The band count and wavelength grid are checked once; then row tiles,
    taken one at a time from one shared sequence, are classified by one
    worker per usable CPU (at most one per tile): the calling thread, whose
    tiles reuse the main heap where a new thread gets its own malloc arena,
    and a pool of the others, so one CPU starts no thread. The tiles in
    flight hold at most workers × ``TILE_CELLS`` cells (see there), whatever
    the cube's size. Each tile converts only the model's columns to float64,
    checks them for NaN/Inf and writes its rows of the preallocated masks;
    the counts are taken from the finished masks.

    While the workers run, OpenBLAS is held to one thread
    (:func:`_blas_threads_held`): the workers take the cores that its own
    threads would, and each worker's products are not split. A failed tile
    or an interrupt stops every worker after its tile; it is raised once all
    have stopped, and the previous count is put back.

    Scores and masks are byte-identical for any CPU count, one BLAS build:
    tile rows follow from the cube's columns and the model's width alone,
    and every product runs on one BLAS thread, so a pixel's scores have the
    same bits whichever worker classifies its tile.
    """
    columns = _model_columns(model, cube.bands, cube.wavelengths_nm)
    classify, width, palette = _pixel_classifier(model)
    rows, cols = cube.rows, cube.cols
    step = max(1, TILE_CELLS // (cols * width))
    class_labels = np.empty((rows, cols), dtype=np.uint8)
    cluster_ids = np.empty((rows, cols), dtype=np.uint8) if model.workflow == "kmeans" else None

    def classify_tile(r0: int) -> None:
        X = _read_tile(cube, r0, step, columns)
        n = X.shape[0]
        # numpy computes a one-row product as a matrix-vector product, whose last
        # bits can differ from the matrix product's: classify a lone pixel twice
        ids, clusters = classify(np.repeat(X, 2, axis=0) if n == 1 else X)
        class_labels[r0:r0 + step] = ids[:n].reshape(-1, cols)
        if cluster_ids is not None:
            cluster_ids[r0:r0 + step] = clusters[:n].reshape(-1, cols)

    starts = iter(range(0, rows, step))
    claim, stop = threading.Lock(), threading.Event()

    def work() -> None:
        """Classify tiles until none is left or a worker has stopped; then
        stop the others, as after a failed tile."""
        try:
            while not stop.is_set():
                with claim:
                    r0 = next(starts, None)
                if r0 is None:
                    return
                classify_tile(r0)
        finally:
            stop.set()

    helpers = min(_usable_cpus(), -(-rows // step)) - 1
    # the pool's exit waits for the helpers, so the count is restored after them
    with _blas_threads_held(), ThreadPoolExecutor(max(1, helpers)) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        try:
            work()
            for future in futures:
                future.result()
        finally:  # also on an interrupt while waiting: no helper starts another tile
            stop.set()

    counts = {name: int(np.count_nonzero(class_labels == label))
              for label, name in sorted(palette.items())}
    return ApplyResult(class_labels=class_labels, palette=palette, counts=counts,
                       cluster_ids=cluster_ids)


def write_apply_outputs(result: ApplyResult, out_dir: str | Path) -> dict:
    """Emit masks (ENVI + PGM), palette sidecar, and counts into the existing
    directory ``out_dir``; returns the summary."""
    out = Path(out_dir)
    class_mask = LabelMask(labels=result.class_labels, palette=result.palette)
    write_label_mask_envi(class_mask, out / "class_mask.hdr", out / "class_mask.raw")
    write_label_mask_pgm(class_mask, out / "class_mask.pgm")
    if result.cluster_ids is not None:
        k = int(result.cluster_ids.max()) + 1
        cluster_mask = LabelMask(
            labels=result.cluster_ids, palette={j: f"cluster-{j}" for j in range(k)}
        )
        write_label_mask_envi(cluster_mask, out / "cluster_mask.hdr", out / "cluster_mask.raw")
        write_label_mask_pgm(cluster_mask, out / "cluster_mask.pgm")
    (out / "palette.json").write_text(modelio.dumps(result.palette))
    summary = {"counts": result.counts, "pixels": int(result.class_labels.size)}
    (out / "counts.json").write_text(modelio.dumps(summary))
    return summary


def inspect_model(model: PipelineModel) -> dict:
    """Human-oriented summary of a stored model."""
    doc: dict = {
        "format_version": modelio.FORMAT_VERSION,
        "workflow": model.workflow,
        "bands": int(model.wavelengths_nm.size),
        "band_subset": model.band_subset,
        "palette": modelio.encode(model.palette),
    }
    if model.band_subset is not None:
        doc["band_subset_nm"] = [float(v) for v in model.wavelengths_nm]
    if model.pca is not None:
        doc["explained_variance_ratio"] = {
            f"PC{i + 1}": float(v) for i, v in enumerate(model.pca.explained_variance_ratio)
        }
    if model.selection is not None:
        doc["selected_components"] = [f"PC{i + 1}" for i in model.selection.selected]
        doc["component_correlations"] = [float(v) for v in model.selection.correlations]
    if model.cluster is not None:
        doc["clusters"] = {
            "k": model.cluster.k,
            "class_of_cluster": {str(j): c for j, c in sorted(model.cluster.class_of_cluster.items())},
        }
    if model.kernel is not None:
        doc["kernel"] = {
            **modelio.encode(model.kernel.kernel),
            "latent_variables": model.kernel.a,
            "support_spectra": model.kernel.n_support,
            "classes": modelio.encode(model.kernel.classes),
        }
    if model.selection_report is not None:
        doc["band_selection"] = {
            "method": model.selection_report["method"],
            "selected": model.selection_report["selected"],
            "selected_nm": model.selection_report["selected_nm"],
        }
    return doc


def run_synth(scene_path: str | Path, seed: int, out_dir: str | Path) -> dict:
    """Generate a scene and write cube + mask + palette files."""
    spec = SceneSpec.from_json(scene_path)
    cube, mask = synth_scene(spec, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_envi(cube, out / "cube.hdr", out / "cube.raw", dtype="f8")
    write_label_mask_envi(mask, out / "mask.hdr", out / "mask.raw")
    write_label_mask_pgm(mask, out / "mask.pgm")
    (out / "palette.json").write_text(modelio.dumps(mask.palette))
    return {
        "rows": cube.rows, "cols": cube.cols, "bands": cube.bands,
        "classes": {str(k): v for k, v in sorted(mask.palette.items())},
        "out_dir": str(out),
    }
