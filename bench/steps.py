"""Set-up and held-out scoring, each run as its own process by ``run.py``.

    python bench/steps.py setup WORKLOAD SEED WORKDIR [--tiny]
    python bench/steps.py score WORKLOAD SEED WORKDIR

``setup`` writes the scenes and run configurations (and, for the apply
workloads, fits the model to apply) and prints the numeric environment:
BLAS thread count and library versions. The training variants of S are the noise draws 0, 1 and
2 whatever the seed; the seed draws the held-out scenes S' and M.
``score`` prints the mite recall and precision on the held-out cube and the
digest of each held-out class mask. Both print one JSON line. ``--tiny``
renders small scenes for the benchmark's tests.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import scenes
from workloads import APPLY_MODELS, K_MAX, KF_ITERATIONS, R2_TARGET, VARIANTS, digest

#: the program's own seed; the benchmark seed only shapes the inputs
CONFIG_SEED = 0
TINY_SIZES = {"S": (32, 32, 1), "M": (64, 64, 2)}
TINY_SAMPLES_PER_CLASS = 40


def _inputs(scene_dir: Path) -> dict:
    return {"cube_header": str(scene_dir / "cube.hdr"), "mask": str(scene_dir / "mask.pgm"),
            "palette": str(scene_dir / "palette.json")}


def _config(workflow: str, inputs: dict, **sections) -> dict:
    doc = {"workflow": workflow, "inputs": inputs,
           "labels": {"mite": scenes.MITE, "bee": scenes.BEE},
           "cluster": {"k0": 2, "k_max": K_MAX}, "seed": CONFIG_SEED}
    doc.update(sections)
    return doc


def configs(name: str, scene_dir: Path) -> dict[str, dict]:
    """Run configuration per command label for one training scene."""
    inputs = _inputs(scene_dir)
    if name == "kmeans-fit-S":
        return {"fit": _config("kmeans", inputs)}
    if name == "kfpls-fit-S":
        return {"fit": _config("kfpls", inputs, kf={"iterations": KF_ITERATIONS})}
    return {
        "select_r2": _config("kmeans", inputs, band_selection={
            "method": "r2", "target_count": R2_TARGET}),
        "select_covproc": _config("kmeans", inputs, band_selection={
            "method": "covproc", "stop_by_clustering": True}),
    }


def setup(name: str, seed: int, work: Path, tiny: bool) -> dict:
    from spectral_sift.pipeline import RunConfig, fit_pipeline

    if tiny:
        scenes.SIZES.update(TINY_SIZES)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    if name in APPLY_MODELS:
        workflow = APPLY_MODELS[name]
        scenes.write_scene("M", seed, work / "M")
        scenes.write_scene("S", 0, work / "S0")
        # Apply cost depends on the model's size (k centroids, 654 support
        # spectra), not on how long its fit took, so set-up fits cheaply: the
        # escalation starts at k0 = 6, where most draws pass (each k is seeded
        # on its own, so a pass there is the model the full escalation finds),
        # and Kernel Flows takes one step on one batch.
        sections = {"kmeans": {"cluster": {"k0": 6, "k_max": K_MAX}},
                    "kfpls": {"kf": {"iterations": 1, "subsamplings_per_iter": 1}}}[workflow]
        if tiny:
            sections["samples_per_class"] = TINY_SAMPLES_PER_CLASS
        cfg = _config(workflow, _inputs(work / "S0"), **sections)
        model, _ = fit_pipeline(RunConfig.from_dict(cfg))
        model.save(work / f"{workflow}.json")
    else:
        scenes.write_scene("S_heldout", seed, work / "S_heldout")
        for v in range(VARIANTS):
            scenes.write_scene("S", v, work / f"S{v}")
            for label, cfg in configs(name, work / f"S{v}").items():
                if tiny:
                    cfg["samples_per_class"] = TINY_SAMPLES_PER_CLASS
                (work / f"{label}{v}.json").write_text(json.dumps(cfg, indent=2) + "\n")
    return environment()


def environment() -> dict:
    import scipy

    return {"blas_threads": blas_threads(), "numpy": np.__version__, "scipy": scipy.__version__}


def blas_threads() -> int | None:
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _mite_scores(labels: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    predicted, actual = labels == scenes.MITE, truth == scenes.MITE
    hits = int(np.sum(predicted & actual))
    recall = hits / max(int(actual.sum()), 1)
    precision = hits / int(predicted.sum()) if predicted.any() else 0.0
    return recall, precision


def score(name: str, work: Path) -> dict:
    """Held-out mite recall and precision.

    The apply workloads score the mask their first cycle wrote for M. The
    fit workloads apply the model fitted on variant 0 to S'. select-bands-S
    fits a kmeans model on the covproc band subset of variant 0 and applies
    that to S'.
    """
    from spectral_sift.pipeline import PipelineModel, RunConfig, apply_pipeline, fit_pipeline
    from spectral_sift.specdata import read_envi, read_label_mask

    digests = {}
    if name in APPLY_MODELS:
        truth = read_label_mask(work / "M" / "mask.pgm").labels
        raw = work / "out" / "c0" / APPLY_MODELS[name] / "class_mask.raw"
        labels = np.fromfile(raw, dtype=np.uint8).reshape(truth.shape)
    else:
        heldout = read_envi(work / "S_heldout" / "cube.hdr")
        truth = read_label_mask(work / "S_heldout" / "mask.pgm").labels
        if name.endswith("fit-S"):
            model = PipelineModel.load(work / "out" / "c0" / "fit0" / "model.json")
        else:
            cfg = json.loads((work / "select_covproc0.json").read_text())
            model, _ = fit_pipeline(RunConfig.from_dict(cfg))
        labels = apply_pipeline(model, heldout).class_labels
        digests["v0"] = digest(labels.tobytes())
    recall, precision = _mite_scores(labels, truth)
    return {"recall": recall, "precision": precision, "heldout": digests}


def main(argv: list[str]) -> int:
    step, name, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if step == "setup":
        doc = setup(name, seed, work, tiny="--tiny" in argv[4:])
    else:
        doc = score(name, work)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
