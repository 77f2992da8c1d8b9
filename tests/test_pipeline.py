"""Fit, save, load and apply through the pipeline and the CLI on a tiny scene."""

import argparse
import json
import logging

import numpy as np
import pytest

from spectral_sift import cli
from spectral_sift import cluster as cl
from spectral_sift import pca as pc
from spectral_sift import preprocess as pp
from spectral_sift.kernel import KfConfig
from spectral_sift.pipeline import (
    EXIT_USAGE,
    PipelineModel,
    RunConfig,
    apply_pipeline,
    fit_pipeline,
)
from spectral_sift.specdata import (
    UNLABELED,
    BlobSpec,
    ClassSpec,
    SceneSpec,
    ShadowSpec,
    flatten,
    read_envi,
    synth_scene,
    write_envi,
    write_label_mask_envi,
)

# background 0, bee 1, mite 3: four bees, one 3x3 mite each, under a shadow ramp
CLASSES = [
    ClassSpec(0, "background", [(400.0, 0.62), (700.0, 0.70), (1000.0, 0.74)]),
    ClassSpec(1, "bee", [(400.0, 0.10), (600.0, 0.16), (750.0, 0.34), (1000.0, 0.42)]),
    ClassSpec(3, "mite", [(400.0, 0.08), (600.0, 0.35), (700.0, 0.45), (1000.0, 0.30)]),
]
BEES = [(2, 3), (3, 22), (21, 4), (22, 21)]


def tiny_scene():
    blobs = []
    for row, col in BEES:
        blobs.append(BlobSpec(1, row, col, 14, 10, shape="ellipse"))
        blobs.append(BlobSpec(3, row + 5, col + 3, 3, 3))
    spec = SceneSpec(
        rows=40, cols=36, wavelengths_nm=np.linspace(400.0, 1000.0, 24), classes=CLASSES,
        background=0, blobs=blobs, noise_sigma=0.01,
        shadow=ShadowSpec(strength=0.4, axis="col"), occlusion="order",
    )
    return synth_scene(spec, seed=0)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """The tiny scene written to disk, and its label mask."""
    root = tmp_path_factory.mktemp("scene")
    cube, mask = tiny_scene()
    write_envi(cube, root / "cube.hdr", root / "cube.raw", dtype="f8")
    write_label_mask_envi(mask, root / "mask.hdr", root / "mask.raw")
    (root / "palette.json").write_text(json.dumps({str(k): v for k, v in mask.palette.items()}))
    return root, mask


def scene_config(root, **settings) -> RunConfig:
    return RunConfig(cube_header=str(root / "cube.hdr"), mask=str(root / "mask.hdr"),
                     palette=str(root / "palette.json"), **settings)


@pytest.fixture(scope="module")
def fitted(scene):
    """The scene on disk, a kmeans fit on it, and the saved model file."""
    root, mask = scene
    config = scene_config(root, workflow="kmeans")
    model, diagnostics = fit_pipeline(config)
    model.save(root / "model.json")
    return root, config, mask, model, diagnostics


def test_saved_model_reproduces_fit_assignments(fitted):
    root, config, mask, model, diagnostics = fitted
    loaded = PipelineModel.load(root / "model.json")
    np.testing.assert_array_equal(loaded.cluster.centroids, model.cluster.centroids)
    assert loaded.cluster.centroids.shape == (diagnostics["final_k"], 2)

    cube = read_envi(root / "cube.hdr")
    result = apply_pipeline(loaded, cube)

    # the fit's own assignments: its final K-means run, on the selected scores
    X, _ = flatten(cube)
    _, scores = pc.fit_pca(pp.apply_scale(model.scale, X))
    k = diagnostics["final_k"]
    _, assignment, _ = cl.kmeans_fit(scores[:, model.selection.selected], k, seed=config.seed + k)
    np.testing.assert_array_equal(result.cluster_ids.ravel(), assignment)

    # the class mask, mapped one pixel at a time from the cluster's class name
    mask_id = {cl.CLASS_MITE: config.mite_label, cl.CLASS_BEE: config.bee_label, cl.CLASS_OTHER: 0}
    per_pixel = [mask_id[model.cluster.class_of_cluster[int(j)]] for j in assignment]
    np.testing.assert_array_equal(result.class_labels.ravel(), per_pixel)

    mite = result.class_labels == config.mite_label
    np.testing.assert_array_equal(mite, mask.labels == config.mite_label)


def test_escalation_matches_clustering_reconstructed_spectra(fitted):
    root, config, mask, model, diagnostics = fitted
    X, _ = flatten(read_envi(root / "cube.hdr"))
    pca_model, scores = pc.fit_pca(pp.apply_scale(model.scale, X))
    X_recon = pc.reconstruct(pca_model, scores, model.selection)
    assert X_recon.shape[1] == 24
    _, oracle = cl.fit_supervised(
        X_recon, mask.labels.ravel(), config.mite_label, config.bee_label,
        k0=config.cluster_k0, k_max=config.cluster_k_max, seed=config.seed,
        unlabeled=UNLABELED,
    )
    got = diagnostics["escalation"]
    assert [(a["k"], a["false_alarms"], a["missed_mites"]) for a in got] == [
        (a.k, a.false_alarms, a.missed_mites) for a in oracle.attempts
    ]
    np.testing.assert_allclose([a["inertia"] for a in got],
                               [a.inertia for a in oracle.attempts], rtol=1e-9)
    assert len(got) > 1  # the escalation had to climb


def test_saved_kfpls_model_reproduces_in_memory_apply(scene, tmp_path):
    root = scene[0]
    config = scene_config(root, workflow="kfpls", samples_per_class=20,
                          kf=KfConfig(iterations=1, subsamplings_per_iter=4))
    model, diagnostics = fit_pipeline(config)
    assert diagnostics["training_pixels"] == 60
    model.save(tmp_path / "model.json")
    loaded = PipelineModel.load(tmp_path / "model.json")

    cube = read_envi(root / "cube.hdr")
    expected = apply_pipeline(model, cube)
    result = apply_pipeline(loaded, cube)
    np.testing.assert_array_equal(result.class_labels, expected.class_labels)
    assert result.counts == expected.counts
    assert result.palette == expected.palette
    assert set(np.unique(result.class_labels)) == {0, 1, 3}


def test_format_1_model_rejected_by_apply(fitted, tmp_path, caplog):
    root = fitted[0]
    doc = json.loads((root / "model.json").read_text())
    doc["format_version"] = 1
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(tmp_path / "model.json"),
                         "--cube", str(root / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "format 1 stores spectrum-space centroids" in caplog.text
    assert not (tmp_path / "out").exists()


def test_seed_override_keeps_every_kf_setting(monkeypatch):
    kf = KfConfig(iterations=7, fd_step=3e-3, max_gradient=0.25, seed=1)
    monkeypatch.setattr(RunConfig, "from_file", classmethod(lambda cls, path: RunConfig(kf=kf)))
    config = cli._load_config(argparse.Namespace(config="run.json", seed=9, out=None))
    assert config.seed == 9
    assert config.kf == KfConfig(iterations=7, fd_step=3e-3, max_gradient=0.25, seed=9)
