"""Batch workflows: fit, apply, band selection, synthesis, inspection.

Two fit paths exist. The clustering path scales, decomposes, gates the
principal components on class correlation, and escalates K-means++ on the
scores of the gated components until the labeled mites sit alone. The kernel
path samples labeled pixels, tunes the kernel by Kernel Flows, and fits
kernel PLS-DA on the raw spectra. Applying a model never refits statistics:
new images are always pushed through the stored calibration parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cluster as cl
from . import kernel as kn
from . import modelio
from . import pca as pc
from . import pls
from . import preprocess as pp
from . import wavesel as ws
from .specdata import (
    UNLABELED,
    HyperCube,
    LabelMask,
    SceneSpec,
    flatten,
    read_envi,
    read_label_mask,
    synth_scene,
    write_envi,
    write_label_mask_envi,
    write_label_mask_pgm,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QUALITY = 2

WORKFLOWS = ("kmeans", "kfpls")
BAND_METHODS = ("none", "r2", "covproc")


class ConfigError(ValueError):
    """Invalid or unknown run-configuration content."""


def _take(section: dict, name: str, allowed: dict):
    """Pop known keys with defaults; reject anything unexpected."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in config section {name!r}")
    return {key: section.get(key, default) for key, default in allowed.items()}


@dataclass
class RunConfig:
    workflow: str = "kmeans"
    cube_header: str = ""
    cube_data: str | None = None
    mask: str = ""
    palette: str | None = None
    mite_label: int = 3
    bee_label: int = 1
    pca_components: int | None = None
    pc_top_n: int | None = 2
    pc_threshold: float | None = None
    cluster_k0: int = 2
    cluster_k_max: int = 12
    kernel_family: str = "matern52"
    kernel_lengthscale: float | None = None  # None: median pairwise distance of the samples
    kernel_variance: float = 1.0
    kf: kn.KfConfig = field(default_factory=kn.KfConfig)
    a_grid: tuple[int, ...] = tuple(range(1, 11))
    samples_per_class: int = 300
    band_method: str = "none"
    band_n_tail: int = 10
    band_init_m: int = 3
    band_target_count: int = 12
    band_lv: int = ws.DEFAULT_FORWARD_LV
    band_rounds: int = 4
    band_round_order: tuple[int, ...] | None = None
    band_stop_by_clustering: bool = False
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.workflow not in WORKFLOWS:
            raise ConfigError(f"workflow must be one of {WORKFLOWS}, got {self.workflow!r}")
        if self.band_method not in BAND_METHODS:
            raise ConfigError(f"band selection method must be one of {BAND_METHODS}")
        if self.mite_label == self.bee_label:
            raise ConfigError("mite and bee labels must differ")
        if (self.pc_top_n is None) == (self.pc_threshold is None):
            raise ConfigError("give exactly one of pca top_n or threshold")
        if self.kernel_family not in kn.KERNEL_FAMILIES:
            raise ConfigError(f"kernel family must be one of {kn.KERNEL_FAMILIES}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        top = _take(doc, "<top-level>", {
            "workflow": "kmeans", "inputs": {}, "labels": {}, "pca": {}, "cluster": {},
            "kernel": {}, "kf": {}, "samples_per_class": 300, "band_selection": {},
            "seed": 0, "out_dir": ".",
        })
        inputs = _take(top["inputs"], "inputs", {
            "cube_header": "", "cube_data": None, "mask": "", "palette": None,
        })
        labels = _take(top["labels"], "labels", {"mite": 3, "bee": 1})
        pca_sec = _take(top["pca"], "pca", {"components": None, "top_n": 2, "threshold": None})
        if pca_sec["threshold"] is not None:
            pca_sec["top_n"] = None
        cluster_sec = _take(top["cluster"], "cluster", {"k0": 2, "k_max": 12})
        kernel_sec = _take(top["kernel"], "kernel", {
            "family": "matern52", "lengthscale": None, "variance": 1.0,
        })
        kf_sec = _take(top["kf"], "kf", {
            "learning_rate": 0.1, "momentum": 0.9, "iterations": 150,
            "subsamplings_per_iter": 20, "batch_ratio": 0.5, "a_grid": list(range(1, 11)),
        })
        band_sec = _take(top["band_selection"], "band_selection", {
            "method": "none", "n_tail": 10, "init_m": 3, "target_count": 12,
            "lv": ws.DEFAULT_FORWARD_LV, "rounds": 4, "round_order": None,
            "stop_by_clustering": False,
        })
        try:
            kf_cfg = kn.KfConfig(
                learning_rate=float(kf_sec["learning_rate"]),
                momentum=float(kf_sec["momentum"]),
                iterations=int(kf_sec["iterations"]),
                subsamplings_per_iter=int(kf_sec["subsamplings_per_iter"]),
                batch_ratio=float(kf_sec["batch_ratio"]),
                seed=int(top["seed"]),
            )
        except ValueError as exc:
            raise ConfigError(f"bad Kernel Flows settings: {exc}") from exc
        return cls(
            workflow=top["workflow"],
            cube_header=inputs["cube_header"],
            cube_data=inputs["cube_data"],
            mask=inputs["mask"],
            palette=inputs["palette"],
            mite_label=int(labels["mite"]),
            bee_label=int(labels["bee"]),
            pca_components=None if pca_sec["components"] is None else int(pca_sec["components"]),
            pc_top_n=None if pca_sec["top_n"] is None else int(pca_sec["top_n"]),
            pc_threshold=None if pca_sec["threshold"] is None else float(pca_sec["threshold"]),
            cluster_k0=int(cluster_sec["k0"]),
            cluster_k_max=int(cluster_sec["k_max"]),
            kernel_family=kernel_sec["family"],
            kernel_lengthscale=(None if kernel_sec["lengthscale"] is None
                                else float(kernel_sec["lengthscale"])),
            kernel_variance=float(kernel_sec["variance"]),
            kf=kf_cfg,
            a_grid=tuple(int(a) for a in kf_sec["a_grid"]),
            samples_per_class=int(top["samples_per_class"]),
            band_method=band_sec["method"],
            band_n_tail=int(band_sec["n_tail"]),
            band_init_m=int(band_sec["init_m"]),
            band_target_count=int(band_sec["target_count"]),
            band_lv=int(band_sec["lv"]),
            band_rounds=int(band_sec["rounds"]),
            band_round_order=(None if band_sec["round_order"] is None
                              else tuple(int(r) for r in band_sec["round_order"])),
            band_stop_by_clustering=bool(band_sec["stop_by_clustering"]),
            seed=int(top["seed"]),
            out_dir=str(top["out_dir"]),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(doc)


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

    def to_dict(self) -> dict:
        doc = {
            "format_version": modelio.FORMAT_VERSION,
            "workflow": self.workflow,
            "palette": {str(k): v for k, v in sorted(self.palette.items())},
            "mite_label": self.mite_label,
            "bee_label": self.bee_label,
            "original_bands": self.original_bands,
            "wavelengths_nm": modelio.encode_array(self.wavelengths_nm),
            "band_subset": self.band_subset,
            "scale": None if self.scale is None else modelio.scale_to_dict(self.scale),
            "pca": None if self.pca is None else modelio.pca_to_dict(self.pca),
            "selection": None if self.selection is None else modelio.selection_to_dict(self.selection),
            "cluster": None if self.cluster is None else modelio.cluster_to_dict(self.cluster),
            "kernel": None if self.kernel is None else modelio.kernel_pls_to_dict(self.kernel),
            "selection_report": self.selection_report,
        }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineModel":
        version = doc.get("format_version")
        if version == 1:
            raise ConfigError("model format 1 stores spectrum-space centroids; refit the model")
        if version != modelio.FORMAT_VERSION:
            raise ConfigError(f"unrecognized model format version {version!r}")
        return cls(
            workflow=doc["workflow"],
            palette={int(k): str(v) for k, v in doc["palette"].items()},
            mite_label=int(doc["mite_label"]),
            bee_label=int(doc["bee_label"]),
            original_bands=int(doc["original_bands"]),
            wavelengths_nm=modelio.decode_array(doc["wavelengths_nm"]),
            band_subset=doc["band_subset"],
            scale=None if doc["scale"] is None else modelio.scale_from_dict(doc["scale"]),
            pca=None if doc["pca"] is None else modelio.pca_from_dict(doc["pca"]),
            selection=(None if doc["selection"] is None
                       else modelio.selection_from_dict(doc["selection"])),
            cluster=None if doc["cluster"] is None else modelio.cluster_from_dict(doc["cluster"]),
            kernel=None if doc["kernel"] is None else modelio.kernel_pls_from_dict(doc["kernel"]),
            selection_report=doc["selection_report"],
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PipelineModel":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"model file {path} must hold a JSON object")
        try:
            return cls.from_dict(doc)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"model file {path} is incomplete or corrupt: {exc}") from exc


def restrict_bands(cube: HyperCube, bands: list[int]) -> HyperCube:
    """Sub-cube on a sorted subset of band indices."""
    bands = sorted(set(int(b) for b in bands))
    if not bands or bands[0] < 0 or bands[-1] >= cube.bands:
        raise ValueError(f"band subset {bands} out of range for {cube.bands} bands")
    return HyperCube(
        data=cube.data[:, :, bands],
        wavelengths_nm=cube.wavelengths_nm[bands],
        interleave=cube.interleave,
    )


def load_inputs(config: RunConfig) -> tuple[HyperCube, LabelMask]:
    cube = read_envi(config.cube_header, config.cube_data)
    palette = None
    if config.palette:
        palette = {int(k): str(v) for k, v in json.loads(Path(config.palette).read_text()).items()}
    mask = read_label_mask(config.mask, palette=palette)
    if not mask.matches(cube):
        raise ValueError(
            f"mask {(mask.rows, mask.cols)} does not match cube {(cube.rows, cube.cols)}"
        )
    return cube, mask


def _discriminant_rows(mask: LabelMask, mite_label: int, bee_label: int) -> tuple[np.ndarray, np.ndarray]:
    """Row selector for bee/mite pixels and the 0/1 discriminant (bee = 1)."""
    labels = mask.labels.ravel()
    selector = (labels == mite_label) | (labels == bee_label)
    if not np.any(labels == mite_label):
        raise ValueError(f"mask has no mite pixels (label {mite_label})")
    if not np.any(labels == bee_label):
        raise ValueError(f"mask has no bee pixels (label {bee_label})")
    y = (labels[selector] == bee_label).astype(np.float64)
    return selector, y


def _fit_kmeans_path(cube: HyperCube, mask: LabelMask, config: RunConfig):
    X, _ = flatten(cube)
    scale = pp.fit_scale(X)
    Xs = pp.apply_scale(scale, X)
    pca_model, scores = pc.fit_pca(Xs, k=config.pca_components)
    selector, y = _discriminant_rows(mask, config.mite_label, config.bee_label)
    rho = pc.correlate_scores(scores[selector], y)
    selection = pc.select_components(rho, top_n=config.pc_top_n, threshold=config.pc_threshold)
    cluster_model, diag = cl.fit_supervised(
        scores[:, selection.selected], mask.labels.ravel(), config.mite_label, config.bee_label,
        k0=config.cluster_k0, k_max=config.cluster_k_max, seed=config.seed,
        unlabeled=UNLABELED,
    )
    diagnostics = {
        "selected_components": [int(i) for i in selection.selected],
        "component_correlations": [float(v) for v in rho],
        "explained_variance_ratio": [float(v) for v in pca_model.explained_variance_ratio],
        "escalation": [
            {"k": a.k, "false_alarms": a.false_alarms, "missed_mites": a.missed_mites,
             "inertia": a.inertia}
            for a in diag.attempts
        ],
        "final_k": diag.final.k,
    }
    return scale, pca_model, selection, cluster_model, diagnostics


def _sample_labeled_pixels(
    X: np.ndarray, labels: np.ndarray, per_class: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
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
    sel = np.concatenate(rows)
    return X[sel], np.concatenate(out_labels)


def _fit_kfpls_path(cube: HyperCube, mask: LabelMask, config: RunConfig):
    X, _ = flatten(cube)
    labels = mask.labels.ravel()
    if np.unique(labels[labels != UNLABELED]).size < 2:
        raise ValueError("kernel workflow needs at least 2 labeled classes")
    _discriminant_rows(mask, config.mite_label, config.bee_label)  # both insects must exist
    X_train, y_train = _sample_labeled_pixels(X, labels, config.samples_per_class, config.seed)

    if config.kernel_lengthscale is not None:
        ell0 = config.kernel_lengthscale
    else:
        from scipy.spatial.distance import pdist

        dists = pdist(X_train)
        ell0 = float(np.median(dists[dists > 0]))
        if not np.isfinite(ell0) or ell0 <= 0:
            raise ValueError("cannot derive a lengthscale: sampled spectra are identical")
    spec0 = kn.KernelSpec(config.kernel_family, ell0, config.kernel_variance)
    result = kn.kf_optimize(X_train, y_train, spec0, config.kf, config.a_grid)
    model = kn.fit_kernel_pls(X_train, y_train, result.spec, result.a_star)
    predicted, _ = kn.classify(model, X_train)
    diagnostics = {
        "kernel": {"family": result.spec.family, "lengthscale": result.spec.lengthscale,
                   "variance": result.spec.variance},
        "initial_lengthscale": ell0,
        "latent_variables": result.a_star,
        "r2_by_a": {str(a): float(v) for a, v in sorted(result.r2_by_a.items())},
        "training_accuracy": float(np.mean(predicted == y_train)),
        "training_pixels": int(y_train.size),
    }
    return model, result, diagnostics


def _clustering_stop_test(cube: HyperCube, mask: LabelMask, config: RunConfig):
    """Success test for band subsets: does the full supervised pipeline pass?"""

    def passes(bands: list[int]) -> bool:
        if not bands:
            return False
        sub = restrict_bands(cube, bands)
        try:
            _fit_kmeans_path(sub, mask, config)
        except (cl.EscalationError, ValueError, pls.DegenerateDataError):
            return False
        return True

    return passes


def run_band_selection(cube: HyperCube, mask: LabelMask, config: RunConfig):
    """Run the configured selector; returns (report, bands_for_model)."""
    X, _ = flatten(cube)
    selector, y = _discriminant_rows(mask, config.mite_label, config.bee_label)
    Xbm = X[selector]
    excluded = ws.exclude_tail(cube.bands, config.band_n_tail)
    stop = None
    if config.band_stop_by_clustering:
        stop = _clustering_stop_test(cube, mask, config)

    if config.band_method == "r2":
        init = ws.init_by_correlation(Xbm, y, m=config.band_init_m, exclude=excluded)
        report = ws.r2_forward_select(
            Xbm, y, target_count=config.band_target_count, init=init, lv=config.band_lv,
            exclude=excluded, stop=stop, wavelengths_nm=cube.wavelengths_nm,
        )
        return report, list(report.selected)

    if config.band_method == "covproc":
        scale = pp.fit_scale(Xbm)
        Xs = pp.apply_scale(scale, Xbm)
        yc = y - y.mean()
        report = ws.covproc_select(
            Xs, yc, rounds=config.band_rounds, exclude=excluded,
            wavelengths_nm=cube.wavelengths_nm,
        )
        order = config.band_round_order or tuple(r.index for r in report.rounds)
        bands = ws.reorder_rounds(report, order)
        if stop is not None:
            for size in range(1, len(bands) + 1):
                if stop(bands[:size]):
                    bands = bands[:size]
                    break
            else:
                raise cl.EscalationError(
                    "no prefix of the reordered band list passes the clustering test",
                    cl.ClusterDiagnostics(),
                )
        return report, bands

    raise ConfigError(f"band selection method {config.band_method!r} cannot be run")


def fit_pipeline(config: RunConfig) -> tuple[PipelineModel, dict]:
    """Calibrate a full pipeline per the run configuration."""
    cube, mask = load_inputs(config)
    palette = dict(mask.palette)
    diagnostics: dict = {"workflow": config.workflow, "seed": config.seed}

    original_bands = cube.bands
    report_doc = None
    band_subset = None
    if config.band_method != "none":
        report, bands = run_band_selection(cube, mask, config)
        report_doc = report.to_dict()
        report_doc["bands_for_model"] = [int(b) for b in bands]
        band_subset = sorted(set(bands))
        cube = restrict_bands(cube, band_subset)
        diagnostics["band_selection"] = report_doc

    model = PipelineModel(
        workflow=config.workflow,
        palette=palette,
        mite_label=config.mite_label,
        bee_label=config.bee_label,
        original_bands=original_bands,
        wavelengths_nm=cube.wavelengths_nm,
        band_subset=band_subset,
        selection_report=report_doc,
    )

    if config.workflow == "kmeans":
        scale, pca_model, selection, cluster_model, diag = _fit_kmeans_path(cube, mask, config)
        model.scale = scale
        model.pca = pca_model
        model.selection = selection
        model.cluster = cluster_model
        diagnostics.update(diag)
    else:
        kernel_model, result, diag = _fit_kfpls_path(cube, mask, config)
        model.kernel = kernel_model
        diagnostics.update(diag)
        diagnostics["_kf_trace"] = result.trace  # stripped before JSON emission

    return model, diagnostics


@dataclass
class ApplyResult:
    class_labels: np.ndarray  # (rows, cols) uint8 mask ids
    palette: dict[int, str]
    counts: dict[str, int]
    cluster_ids: np.ndarray | None = None  # (rows, cols), kmeans path only


def _prepare_apply_cube(model: PipelineModel, cube: HyperCube) -> HyperCube:
    n_model = model.wavelengths_nm.size
    if model.band_subset is not None and cube.bands == model.original_bands:
        cube = restrict_bands(cube, model.band_subset)
    if cube.bands != n_model:
        raise ValueError(
            f"cube has {cube.bands} bands; model expects {n_model}"
            + ("" if model.band_subset is None
               else f" (or the {model.original_bands} pre-selection bands)")
        )
    if not np.allclose(cube.wavelengths_nm, model.wavelengths_nm, rtol=1e-6, atol=1e-6):
        raise ValueError("cube wavelengths do not match the model's calibration grid")
    return cube


def apply_pipeline(model: PipelineModel, cube: HyperCube) -> ApplyResult:
    """Classify a new cube with stored calibration statistics only."""
    cube = _prepare_apply_cube(model, cube)
    X, index = flatten(cube)

    if model.workflow == "kmeans":
        if (model.scale is None or model.pca is None or model.selection is None
                or model.cluster is None):
            raise ConfigError("model file lacks the clustering-path components")
        Xs = pp.apply_scale(model.scale, X)
        scores = pc.project(model.pca, Xs)
        clusters, _ = cl.assign(model.cluster, scores[:, model.selection.selected])
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
        flat_ids = id_of_cluster[clusters]
        palette = {model.mite_label: "mite", model.bee_label: "bee", other_label: "other"}
        class_grid = np.full((cube.rows, cube.cols), other_label, dtype=np.uint8)
        class_grid[index[:, 0], index[:, 1]] = flat_ids
        cluster_grid = np.zeros((cube.rows, cube.cols), dtype=np.uint8)
        cluster_grid[index[:, 0], index[:, 1]] = clusters.astype(np.uint8)
        counts = {name: int(np.sum(flat_ids == label)) for label, name in sorted(palette.items())}
        return ApplyResult(class_labels=class_grid, palette=palette, counts=counts,
                           cluster_ids=cluster_grid)

    if model.kernel is None:
        raise ConfigError("model file lacks the kernel-path components")
    predicted, _ = kn.classify(model.kernel, X)
    class_grid = np.zeros((cube.rows, cube.cols), dtype=np.uint8)
    class_grid[index[:, 0], index[:, 1]] = predicted.astype(np.uint8)
    palette = {int(c): model.palette.get(int(c), f"class-{int(c)}")
               for c in model.kernel.encoding.classes}
    counts = {name: int(np.sum(predicted == label)) for label, name in sorted(palette.items())}
    return ApplyResult(class_labels=class_grid, palette=palette, counts=counts)


def write_apply_outputs(result: ApplyResult, out_dir: str | Path) -> dict:
    """Emit masks (ENVI + PGM), palette sidecar, and counts; returns the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    (out / "palette.json").write_text(
        json.dumps({str(k): v for k, v in sorted(result.palette.items())},
                   sort_keys=True, indent=2) + "\n"
    )
    summary = {"counts": result.counts, "pixels": int(result.class_labels.size)}
    (out / "counts.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def inspect_model(model: PipelineModel) -> dict:
    """Human-oriented summary of a stored model."""
    doc: dict = {
        "format_version": modelio.FORMAT_VERSION,
        "workflow": model.workflow,
        "bands": int(model.wavelengths_nm.size),
        "band_subset": model.band_subset,
        "palette": {str(k): v for k, v in sorted(model.palette.items())},
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
            "family": model.kernel.kernel.family,
            "lengthscale": model.kernel.kernel.lengthscale,
            "variance": model.kernel.kernel.variance,
            "latent_variables": model.kernel.a,
            "support_spectra": model.kernel.n_support,
            "classes": [int(c) for c in model.kernel.encoding.classes],
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
    (out / "palette.json").write_text(
        json.dumps({str(k): v for k, v in sorted(mask.palette.items())},
                   sort_keys=True, indent=2) + "\n"
    )
    return {
        "rows": cube.rows, "cols": cube.cols, "bands": cube.bands,
        "classes": {str(k): v for k, v in sorted(mask.palette.items())},
        "out_dir": str(out),
    }
