"""Fit, save, load and apply through the pipeline and the CLI on a tiny scene."""

import argparse
import base64
import dataclasses
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from spectral_sift import cli
from spectral_sift import cluster as cl
from spectral_sift import kernel as kn
from spectral_sift import pipeline
from spectral_sift import pca as pc
from spectral_sift import preprocess as pp
from spectral_sift.kernel import KfConfig
from spectral_sift.pipeline import (
    EXIT_OK,
    EXIT_QUALITY,
    EXIT_USAGE,
    BandSelectionConfig,
    InputsConfig,
    PipelineModel,
    RunConfig,
    apply_pipeline,
    fit_pipeline,
)
from spectral_sift.specdata import (
    BlobSpec,
    ClassSpec,
    EnviFormatError,
    SceneSpec,
    HyperCube,
    ShadowSpec,
    flatten,
    open_envi,
    read_envi,
    read_label_mask,
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
    inputs = InputsConfig(cube_header=str(root / "cube.hdr"), mask=str(root / "mask.hdr"),
                          palette=str(root / "palette.json"))
    return RunConfig(inputs=inputs, **settings)


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
    X = flatten(cube)
    _, scores = pc.fit_pca(pp.apply_scale(model.scale, X))
    k = diagnostics["final_k"]
    _, assignment, _ = cl.kmeans_fit(scores[:, model.selection.selected], k, seed=config.seed + k)
    np.testing.assert_array_equal(result.cluster_ids.ravel(), assignment)

    # the class mask, mapped one pixel at a time from the cluster's class name
    mask_id = {cl.CLASS_MITE: config.labels.mite, cl.CLASS_BEE: config.labels.bee, cl.CLASS_OTHER: 0}
    per_pixel = [mask_id[model.cluster.class_of_cluster[int(j)]] for j in assignment]
    np.testing.assert_array_equal(result.class_labels.ravel(), per_pixel)

    mite = result.class_labels == config.labels.mite
    np.testing.assert_array_equal(mite, mask.labels == config.labels.mite)


def test_escalation_matches_clustering_reconstructed_spectra(fitted):
    root, config, mask, model, diagnostics = fitted
    X = flatten(read_envi(root / "cube.hdr"))
    pca_model, scores = pc.fit_pca(pp.apply_scale(model.scale, X))
    X_recon = pc.reconstruct(pca_model, scores, model.selection)
    assert X_recon.shape[1] == 24
    _, oracle = cl.fit_supervised(
        X_recon, mask.labels.ravel(), config.labels.mite, config.labels.bee,
        k0=config.cluster.k0, k_max=config.cluster.k_max, seed=config.seed,
    )
    got = diagnostics["escalation"]
    assert [(a["k"], a["false_alarms"], a["missed_mites"]) for a in got] == [
        (a.k, a.false_alarms, a.missed_mites) for a in oracle.attempts
    ]
    np.testing.assert_allclose([a["inertia"] for a in got],
                               [a.inertia for a in oracle.attempts], rtol=1e-9)
    assert len(got) > 1  # the escalation had to climb


@pytest.fixture(scope="module")
def fitted_kfpls(scene, tmp_path_factory):
    """A kfpls fit on the tiny scene (20 px/class, 1 KF iteration) and its model file."""
    config = scene_config(scene[0], workflow="kfpls", samples_per_class=20,
                          kf=KfConfig(iterations=1, subsamplings_per_iter=4))
    model, diagnostics = fit_pipeline(config)
    path = tmp_path_factory.mktemp("kfpls") / "model.json"
    model.save(path)
    return path, model, diagnostics


def test_saved_kfpls_model_reproduces_in_memory_apply(scene, fitted_kfpls):
    root = scene[0]
    path, model, diagnostics = fitted_kfpls
    assert diagnostics["training_pixels"] == 60
    loaded = PipelineModel.load(path)

    cube = read_envi(root / "cube.hdr")
    expected = apply_pipeline(model, cube)
    result = apply_pipeline(loaded, cube)
    np.testing.assert_array_equal(result.class_labels, expected.class_labels)
    assert result.counts == expected.counts
    assert result.palette == expected.palette
    assert set(np.unique(result.class_labels)) == {0, 1, 3}


@pytest.fixture(scope="module", params=[("r2", "kmeans"), ("covproc", "kmeans"), ("r2", "kfpls")],
                ids=lambda p: "-".join(p))
def fitted_bands(request, scene, tmp_path_factory):
    """A fit after band selection on the tiny scene, and its saved model file."""
    method, workflow = request.param
    bands = BandSelectionConfig(method=method, n_tail=4, target_count=4,
                                stop_by_clustering=method == "covproc")
    config = scene_config(scene[0], workflow=workflow, band_selection=bands, samples_per_class=20,
                          kf=KfConfig(iterations=1, subsamplings_per_iter=4))
    model, _ = fit_pipeline(config)
    path = tmp_path_factory.mktemp("bands") / "model.json"
    model.save(path)
    return path, model


def test_band_subset_model_round_trips_through_apply(scene, fitted_bands):
    path, model = fitted_bands
    assert 0 < len(model.band_subset) < 24
    loaded = PipelineModel.load(path)
    full = read_envi(scene[0] / "cube.hdr")
    cut = HyperCube(data=full.data[:, :, model.band_subset],
                    wavelengths_nm=full.wavelengths_nm[model.band_subset])
    expected = apply_pipeline(model, full)
    for cube in (full, cut):  # a camera may record only the selected bands
        result = apply_pipeline(loaded, cube)
        np.testing.assert_array_equal(result.class_labels, expected.class_labels)
        assert result.counts == expected.counts


def test_band_subset_fit_equals_fit_on_the_cut_cube(scene, fitted_bands, tmp_path):
    root, mask = scene
    path, model = fitted_bands
    full = read_envi(root / "cube.hdr")
    cut = HyperCube(data=full.data[:, :, model.band_subset],
                    wavelengths_nm=full.wavelengths_nm[model.band_subset])
    write_envi(cut, tmp_path / "cube.hdr", tmp_path / "cube.raw", dtype="f8")
    config = scene_config(root, workflow=model.workflow, samples_per_class=20,
                          kf=KfConfig(iterations=1, subsamplings_per_iter=4))
    config.inputs.cube_header = str(tmp_path / "cube.hdr")
    on_cut, _ = fit_pipeline(config)
    on_cut = dataclasses.replace(on_cut, original_bands=24, band_subset=model.band_subset,
                                 selection_report=model.selection_report)
    assert on_cut.to_dict() == model.to_dict()  # every float array bit for bit


@pytest.mark.parametrize("subset", [[2, 999], [5, 2], [2, 5, 9]])
def test_corrupt_band_subset_exits_1(subset, fitted, tmp_path, caplog):
    root = fitted[0]
    doc = json.loads((root / "model.json").read_text())
    wavelengths = np.linspace(400.0, 1000.0, 24)[[2, 5]]
    doc["band_subset"] = subset
    doc["wavelengths_nm"] = {"shape": [2], "data": base64.b64encode(wavelengths.tobytes()).decode()}
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(tmp_path / "model.json"),
                         "--cube", str(root / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "band_subset" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("report, key", [
    ({"selected": [1]}, "method"),
    ({"method": "r2_forward", "selected_nm": None}, "selected"),
    ({"method": "r2_forward", "selected": [1]}, "selected_nm"),
])
def test_malformed_selection_report_exits_1(report, key, fitted, tmp_path, caplog):
    doc = json.loads((fitted[0] / "model.json").read_text())
    doc["selection_report"] = report
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["inspect", "--model", str(tmp_path / "model.json")])
    assert code == EXIT_USAGE
    assert f"selection_report lacks {key}" in caplog.text


@pytest.mark.parametrize("command", ["fit-empty-config", "inspect-dir-model", "apply-dir-cube"])
def test_missing_input_file_exits_1(command, fitted, tmp_path, caplog):
    root = fitted[0]
    (tmp_path / "run.json").write_text("{}")
    argv, message = {
        "fit-empty-config": (["fit", "--config", str(tmp_path / "run.json"),
                              "--out", str(tmp_path / "out")], "inputs.cube_header"),
        "inspect-dir-model": (["inspect", "--model", str(tmp_path)], str(tmp_path)),
        "apply-dir-cube": (["apply", "--model", str(root / "model.json"), "--cube", str(tmp_path),
                            "--out", str(tmp_path / "out")], str(tmp_path)),
    }[command]
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(argv)
    assert code == EXIT_USAGE
    assert message in caplog.text


@pytest.mark.parametrize("palette, message", [
    ([[0, "background"], [1, "bee"]], "must hold a JSON object of mask ids to class names, got list"),
    ({"0": "background", "bee": "bee"}, "key 'bee' is not a mask id 0-255"),
    ({"0": "background", "256": "bee"}, "key '256' is not a mask id 0-255"),
    ({"0": "background", "-1": "bee"}, "key '-1' is not a mask id 0-255"),
    ({"0": "background", "1": 7}, "the name of mask id 1 must be a string, got 7"),
    ({"0": "background", "1": None}, "the name of mask id 1 must be a string, got None"),
])
def test_malformed_palette_exits_1_naming_the_entry(palette, message, scene, tmp_path, caplog):
    root = scene[0]
    (tmp_path / "palette.json").write_text(json.dumps(palette))
    inputs = {"cube_header": str(root / "cube.hdr"), "mask": str(root / "mask.hdr"),
              "palette": str(tmp_path / "palette.json")}
    (tmp_path / "run.json").write_text(json.dumps({"inputs": inputs}))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["fit", "--config", str(tmp_path / "run.json"),
                         "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"palette file {tmp_path / 'palette.json'}" in caplog.text and message in caplog.text
    assert not (tmp_path / "out" / "model.json").exists()


def write_run_config(root, path, **sections):
    inputs = {"cube_header": str(root / "cube.hdr"), "mask": str(root / "mask.hdr"),
              "palette": str(root / "palette.json")}
    path.write_text(json.dumps({"inputs": inputs, **sections}))
    return str(path)


def test_escalation_exhausted_exits_2_listing_every_attempt(fitted, tmp_path, caplog):
    root, _, _, _, diagnostics = fitted
    k_max = diagnostics["final_k"] - 1  # one below the k that passes
    config = write_run_config(root, tmp_path / "run.json", cluster={"k0": 2, "k_max": k_max})
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["fit", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_QUALITY
    assert "model quality failure" in caplog.text
    # each k is seeded on its own, so the failed attempts are the passing fit's first ones
    tried = " ".join(f"{a['k']}:{a['false_alarms']}/{a['missed_mites']}"
                     for a in diagnostics["escalation"][:-1])
    assert f"no k in [2, {k_max}] separated" in caplog.text
    assert f"(k:false_alarms/missed_mites {tried})" in caplog.text
    assert not (tmp_path / "out" / "model.json").exists()


def test_covproc_without_a_passing_prefix_exits_2(scene, tmp_path, caplog):
    config = write_run_config(
        scene[0], tmp_path / "run.json", cluster={"k0": 2, "k_max": 2},
        band_selection={"method": "covproc", "n_tail": 4, "rounds": 3,
                        "stop_by_clustering": True})
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["select-bands", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_QUALITY
    assert "model quality failure" in caplog.text
    assert "no prefix of the reordered band list passes the clustering test" in caplog.text
    assert "(3 tried, 1 to 3 bands)" in caplog.text
    assert not (tmp_path / "out" / "selection_report.json").exists()


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


def test_kfpls_fit_and_apply_run_without_scipy(scene, tmp_path):
    # each command in a fresh process where importing scipy fails
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys; sys.modules['scipy'] = None; "
            "from spectral_sift import cli; sys.exit(cli.main(sys.argv[1:]))")
    config = write_run_config(scene[0], tmp_path / "run.json", workflow="kfpls",
                              samples_per_class=20, kf={"iterations": 1, "subsamplings_per_iter": 4})
    for argv in (["fit", "--config", config, "--out", str(tmp_path / "fit")],
                 ["apply", "--model", str(tmp_path / "fit" / "model.json"),
                  "--cube", str(scene[0] / "cube.hdr"), "--out", str(tmp_path / "applied")]):
        run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert run.returncode == EXIT_OK, run.stderr


def test_infeasible_latent_count_is_null_in_diagnostics(scene, tmp_path):
    # at the lower lengthscale clamp the Gram matrix is the identity, which carries
    # one factor fewer than the 3 classes: a = 3 has no fit
    config = write_run_config(scene[0], tmp_path / "run.json", workflow="kfpls",
                              samples_per_class=20, kernel={"lengthscale": 1e-12},
                              kf={"iterations": 1, "subsamplings_per_iter": 4, "a_grid": [1, 2, 3]})
    assert cli.main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_OK

    def refuse(name):
        raise ValueError(f"diagnostics.json holds the non-standard JSON constant {name}")

    diagnostics = json.loads((tmp_path / "out" / "diagnostics.json").read_text(),
                             parse_constant=refuse)
    assert diagnostics["r2_by_a"]["3"] is None
    assert diagnostics["latent_variables"] in (1, 2)
    assert all(isinstance(diagnostics["r2_by_a"][a], float) for a in ("1", "2"))


def test_seed_override_keeps_every_kf_setting(monkeypatch):
    kf = KfConfig(iterations=7, fd_step=3e-3, max_gradient=0.25, a_grid=(1, 3))
    monkeypatch.setattr(RunConfig, "from_file",
                        classmethod(lambda cls, path: RunConfig(kf=kf, seed=1)))
    config = cli._load_config(argparse.Namespace(config="run.json", seed=9, out=None))
    assert config.seed == 9
    assert config.kf == KfConfig(iterations=7, fd_step=3e-3, max_gradient=0.25, a_grid=(1, 3))


@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_model_file_resaves_byte_identically(fixture, request, tmp_path):
    value = request.getfixturevalue(fixture)
    path = value[0] / "model.json" if fixture == "fitted" else value[0]
    PipelineModel.load(path).save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("version", [2, 3, 4])
def test_old_format_model_rejected_by_apply(version, fitted, tmp_path, caplog):
    root = fitted[0]
    doc = json.loads((root / "model.json").read_text())
    doc["format_version"] = version
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(tmp_path / "model.json"),
                         "--cube", str(root / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"model format {version}" in caplog.text and "refit the model" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, key", [
    ({"band_selection": {"stop_by_clustering": "false"}}, "band_selection.stop_by_clustering"),
    ({"cluster": {"k0": 2.9, "k_max": 12.5}}, "cluster.k0"),
    ({"pca": {"top_n": 3, "threshold": 0.5}}, "top_n"),
    ({"inputs": []}, "inputs"),
    ({"labels": {"mite": None}}, "labels.mite"),
    ({"cluster": {"k0": 5, "k_max": 3}}, "cluster: need 2 <= k0 <= k_max, got k0=5 and k_max=3"),
    ({"kernel": {"variance": 2.0}}, "unknown key kernel.variance"),
    ({"workflow": "kfpls", "samples_per_class": 0}, "samples_per_class must be >= 1, got 0"),
    ({"workflow": "kfpls", "samples_per_class": -1}, "samples_per_class must be >= 1, got -1"),
    ({"workflow": "kfpls", "kf": {"fd_step": 0.0}}, "kf: fd_step must be > 0, got 0.0"),
    ({"workflow": "kfpls", "kf": {"fd_step": -1e-4}}, "kf: fd_step must be > 0, got -0.0001"),
    ({"workflow": "kfpls", "kf": {"a_grid": [0, 3]}}, "kf: a_grid entries must be >= 1, got [0, 3]"),
    ({"workflow": "kfpls", "kf": {"a_grid": [0]}}, "kf: a_grid entries must be >= 1, got [0]"),
])
def test_malformed_config_exits_1_naming_the_key(doc, key, tmp_path, caplog):
    (tmp_path / "run.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["fit", "--config", str(tmp_path / "run.json"),
                         "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert key in caplog.text


def test_pca_section_defaults_to_the_top_2_components():
    assert RunConfig.from_dict({"pca": {}}).pca.top_n == 2
    gated = RunConfig.from_dict({"pca": {"threshold": 0.5}}).pca
    assert (gated.top_n, gated.threshold) == (None, 0.5)


def test_kf_section_sets_every_kf_setting():
    doc = {"learning_rate": 0.2, "momentum": 0.5, "iterations": 3, "subsamplings_per_iter": 4,
           "batch_ratio": 0.4, "a_grid": [1, 4], "fd_step": 1e-3, "max_gradient": 0.5}
    assert RunConfig.from_dict({"kf": doc}).kf == KfConfig(**{**doc, "a_grid": (1, 4)})


def test_synth_scene_file_matches_the_dataclass(tmp_path):
    # the tiny scene, leaving out every key whose default it uses
    doc = {
        "rows": 40, "cols": 36, "wavelengths_nm": np.linspace(400.0, 1000.0, 24).tolist(),
        "classes": [{"label": c.label, "name": c.name, "knots": c.knots} for c in CLASSES],
        "background": 0, "noise_sigma": 0.01, "shadow": {"strength": 0.4},
        "occlusion": "order", "blobs": [],
    }
    for row, col in BEES:
        doc["blobs"].append({"label": 1, "row": row, "col": col, "height": 14, "width": 10,
                             "shape": "ellipse"})
        doc["blobs"].append({"label": 3, "row": row + 5, "col": col + 3, "height": 3, "width": 3})
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    code = cli.main(["synth", "--scene", str(tmp_path / "scene.json"), "--seed", "0",
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    cube, mask = tiny_scene()
    np.testing.assert_array_equal(read_envi(tmp_path / "out" / "cube.hdr").data, cube.data)
    written = read_label_mask(tmp_path / "out" / "mask.hdr")
    np.testing.assert_array_equal(written.labels, mask.labels)


def test_synth_scene_file_with_unknown_key_exits_1(tmp_path, caplog):
    doc = {"rows": 4, "cols": 4, "wavelengths_nm": [400.0, 500.0],
           "classes": [{"label": 0, "name": "background", "knots": [[400.0, 0.5]]}],
           "background": 0, "blobs": [{"label": 0, "row": 0, "col": 0, "height": 1,
                                       "width": 1, "colour": "red"}]}
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["synth", "--scene", str(tmp_path / "scene.json"),
                         "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "blobs[0].colour" in caplog.text


def tile_settings(monkeypatch, model, cube, rows_per_tile, workers):
    """Make apply run ``workers`` threads on tiles of ``rows_per_tile`` rows."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
    width = pipeline._pixel_classifier(model)[1]
    monkeypatch.setattr(pipeline, "TILE_CELLS", rows_per_tile * workers * cube.cols * width)


def spy_tiles(monkeypatch, model, record=lambda X: X.shape[0]):
    """Record ``record(X)`` for every tile the model's arithmetic receives: by
    default its pixel count."""
    seen = []
    module, name = (pc, "project") if model.workflow == "kmeans" else (kn, "classify")
    original = getattr(module, name)

    def spy(m, X):
        seen.append(record(X))
        return original(m, X)

    monkeypatch.setattr(module, name, spy)
    return seen


def assert_tiles_match_whole_cube(monkeypatch, model, root, workers):
    """Tiles of 1 row, 7 rows and the whole cube give the same bytes, from the
    mapped file and from the cube read into memory."""
    cube = open_envi(root / "bil.hdr")
    seen = spy_tiles(monkeypatch, model)
    results = []
    for rows_per_tile, source in [(cube.rows, read_envi(root / "bil.hdr")), (cube.rows, cube),
                                  (7, cube), (1, cube)]:
        seen.clear()
        tile_settings(monkeypatch, model, cube, rows_per_tile, workers)
        results.append(apply_pipeline(model, source))
        assert sorted(seen, reverse=True) == [
            min(rows_per_tile, cube.rows - r0) * cube.cols
            for r0 in range(0, cube.rows, rows_per_tile)]
    whole = results[0]
    for result in results[1:]:
        assert result.class_labels.tobytes() == whole.class_labels.tobytes()
        assert result.counts == whole.counts and result.palette == whole.palette
        if whole.cluster_ids is None:
            assert result.cluster_ids is None
        else:
            assert result.cluster_ids.tobytes() == whole.cluster_ids.tobytes()


@pytest.fixture(scope="module")
def bil_copy(scene):
    """The tiny scene also written as float32 BIL, the layout of a camera frame."""
    root = scene[0]
    write_envi(read_envi(root / "cube.hdr"), root / "bil.hdr", root / "bil.raw",
               interleave="bil", dtype="f4")
    return root


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_row_tiles_give_identical_masks(fixture, workers, request, bil_copy, monkeypatch):
    value = request.getfixturevalue(fixture)
    model = value[3] if fixture == "fitted" else value[1]
    assert_tiles_match_whole_cube(monkeypatch, model, bil_copy, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_band_subset_row_tiles_give_identical_masks(fitted_bands, workers, bil_copy, monkeypatch):
    assert_tiles_match_whole_cube(monkeypatch, fitted_bands[1], bil_copy, workers)


@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_apply_without_cpu_affinity_gives_the_same_masks(fixture, request, bil_copy,
                                                         monkeypatch):
    # os.sched_getaffinity exists on Linux only; elsewhere apply counts the CPUs
    value = request.getfixturevalue(fixture)
    model = value[3] if fixture == "fitted" else value[1]
    cube = open_envi(bil_copy / "bil.hdr")
    results = [apply_pipeline(model, cube)]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert pipeline._usable_cpus() == (os.cpu_count() or 1)
    results.append(apply_pipeline(model, cube))
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # it may not know either: one CPU
    assert pipeline._usable_cpus() == 1
    results.append(apply_pipeline(model, cube))
    for result in results[1:]:
        assert result.class_labels.tobytes() == results[0].class_labels.tobytes()
        if result.cluster_ids is not None:
            assert result.cluster_ids.tobytes() == results[0].cluster_ids.tobytes()


@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_one_pixel_tile_is_classified_among_two(fixture, request, scene, monkeypatch):
    # one column and an odd row count: 2-row tiles leave a last tile of one pixel
    value = request.getfixturevalue(fixture)
    model = value[3] if fixture == "fitted" else value[1]
    full = read_envi(scene[0] / "cube.hdr")
    cube = HyperCube(data=full.data[:39, 7:8], wavelengths_nm=full.wavelengths_nm)
    tile_settings(monkeypatch, model, cube, cube.rows, 1)
    whole = apply_pipeline(model, cube)
    seen = spy_tiles(monkeypatch, model)
    tile_settings(monkeypatch, model, cube, 2, 2)
    result = apply_pipeline(model, cube)
    assert len(seen) == 20 and 1 not in seen
    assert result.class_labels.tobytes() == whole.class_labels.tobytes()
    if whole.cluster_ids is not None:
        assert result.cluster_ids.tobytes() == whole.cluster_ids.tobytes()


@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_apply_memory_does_not_grow_with_rows(fixture, request, tmp_path, monkeypatch):
    value = request.getfixturevalue(fixture)
    model = value[3] if fixture == "fitted" else value[1]
    rng = np.random.default_rng(0)
    cols, heights = 64, (32, 128)
    for rows in heights:
        cube = HyperCube(data=rng.uniform(0.05, 0.8, size=(rows, cols, 24)),
                         wavelengths_nm=np.linspace(400.0, 1000.0, 24))
        write_envi(cube, tmp_path / f"{rows}.hdr", tmp_path / f"{rows}.raw", interleave="bil")
    tile_settings(monkeypatch, model, cube, 4, 1)  # one worker: two may or may not peak together
    apply_pipeline(model, open_envi(tmp_path / "32.hdr"))  # imports and first calls, not per row
    peaks = {}
    for rows in heights:
        cube = open_envi(tmp_path / f"{rows}.hdr")  # mapped pages are not numpy buffers
        tracemalloc.start()
        try:
            apply_pipeline(model, cube)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the masks grow with the rows: class ids, cluster ids (kmeans) and one count comparison
    mask_bytes = heights[1] * cols * (3 if model.workflow == "kmeans" else 2)
    assert peaks[heights[1]] <= 1.25 * peaks[heights[0]] + mask_bytes, peaks


def copy_with_nan_in_last_row(bil_copy, tmp_path):
    """A copy of the BIL cube with one NaN in its last row; returns its header."""
    for suffix in ("hdr", "raw"):
        (tmp_path / f"cube.{suffix}").write_bytes((bil_copy / f"bil.{suffix}").read_bytes())
    cube = open_envi(tmp_path / "cube.hdr")
    payload = np.memmap(tmp_path / "cube.raw", dtype="<f4", mode="r+",
                        shape=(cube.rows, cube.bands, cube.cols))  # BIL: line, band, sample
    payload[-1, 3, 5] = np.nan
    payload.flush()
    del payload, cube
    return tmp_path / "cube.hdr"


def test_nan_in_last_row_exits_1_without_masks(fitted, bil_copy, tmp_path, monkeypatch, caplog):
    root, model = fitted[0], fitted[3]
    tile_settings(monkeypatch, model, open_envi(copy_with_nan_in_last_row(bil_copy, tmp_path)),
                  1, 2)
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(root / "model.json"),
                         "--cube", str(tmp_path / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert str(tmp_path / "cube.raw") in caplog.text and "NaN" in caplog.text
    assert not (tmp_path / "out" / "class_mask.raw").exists()


@pytest.fixture
def openblas_at_two():
    """numpy's OpenBLAS set to 2 threads, so that 2 workers hold it to 1
    whatever the machine; yields its get function and restores the count."""
    blas = pipeline._openblas_threads()
    if blas is None:
        pytest.skip("numpy is not linked to OpenBLAS")
    get, set_ = blas
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_blas_threads_held_per_worker_keep_the_masks(fixture, request, bil_copy, monkeypatch,
                                                     openblas_at_two):
    value = request.getfixturevalue(fixture)
    model = value[3] if fixture == "fitted" else value[1]
    cube = open_envi(bil_copy / "bil.hdr")
    seen = spy_tiles(monkeypatch, model, lambda X: openblas_at_two())
    results = []
    # (CPUs, rows per tile, the count a tile should see): 2 CPUs and one tile leave
    # BLAS its 2 threads, 2 workers get 1 each, and so does a lone CPU's worker
    for cpus, rows_per_tile, held in [(2, cube.rows, 2), (2, 20, 1), (1, 7, 1)]:
        seen.clear()
        tile_settings(monkeypatch, model, cube, rows_per_tile, cpus)
        results.append(apply_pipeline(model, cube))
        assert seen and set(seen) == {held}
        assert openblas_at_two() == 2
    with monkeypatch.context() as patch:  # without OpenBLAS (MKL, Accelerate) nothing is held
        patch.setattr(pipeline, "_openblas_threads", lambda: None)
        seen.clear()
        results.append(apply_pipeline(model, cube))
        assert set(seen) == {2}
    for result in results[1:]:
        assert result.class_labels.tobytes() == results[0].class_labels.tobytes()
        if result.cluster_ids is not None:
            assert result.cluster_ids.tobytes() == results[0].cluster_ids.tobytes()


def test_blas_threads_restored_after_a_failed_tile(fitted, bil_copy, tmp_path, monkeypatch,
                                                   openblas_at_two):
    model = fitted[3]
    cube = open_envi(copy_with_nan_in_last_row(bil_copy, tmp_path))
    tile_settings(monkeypatch, model, cube, 1, 2)
    seen = spy_tiles(monkeypatch, model, lambda X: openblas_at_two())
    with pytest.raises(EnviFormatError, match="NaN"):
        apply_pipeline(model, cube)
    assert set(seen) == {1}  # the tiles before the failing one ran held
    assert openblas_at_two() == 2


def test_truncated_payload_exits_1_before_any_tile(fitted, bil_copy, tmp_path, monkeypatch, caplog):
    (tmp_path / "cube.hdr").write_bytes((bil_copy / "bil.hdr").read_bytes())
    (tmp_path / "cube.raw").write_bytes((bil_copy / "bil.raw").read_bytes()[:-4])
    seen = spy_tiles(monkeypatch, fitted[3])
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(fitted[0] / "model.json"),
                         "--cube", str(tmp_path / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "bytes, header implies" in caplog.text
    assert seen == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    ("drop-band", "cube has 23 bands; model expects 24"),
    ("shift-grid", "cube wavelengths do not match the model's calibration grid"),
])
def test_band_or_wavelength_mismatch_exits_1(change, message, fitted, tmp_path, monkeypatch,
                                             caplog):
    root, model = fitted[0], fitted[3]
    cube = read_envi(root / "cube.hdr")
    if change == "drop-band":
        cube = HyperCube(data=cube.data[:, :, :-1], wavelengths_nm=cube.wavelengths_nm[:-1])
    else:
        cube = HyperCube(data=cube.data, wavelengths_nm=cube.wavelengths_nm + 5.0)
    write_envi(cube, tmp_path / "cube.hdr", tmp_path / "cube.raw", interleave="bil")
    seen = spy_tiles(monkeypatch, model)
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(root / "model.json"),
                         "--cube", str(tmp_path / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert message in caplog.text
    assert seen == [] and not (tmp_path / "out").exists()


# fit and select-bands read the mapped cube in row tiles

FIT_COMMANDS = {
    "kmeans-fit": ("fit", {}),
    "kfpls-fit": ("fit", {"workflow": "kfpls", "samples_per_class": 20,
                          "kf": {"iterations": 1, "subsamplings_per_iter": 4}}),
    "covproc-select": ("select-bands", {"band_selection": {
        "method": "covproc", "n_tail": 4, "rounds": 3, "stop_by_clustering": True}}),
    "r2-select": ("select-bands", {"band_selection": {"method": "r2", "n_tail": 4,
                                                      "target_count": 4}}),
}


def run_on_cube(command, header, mask_root, out, caplog=None):
    """Run a FIT_COMMANDS entry through the CLI on the cube ``header`` and the
    tiny scene's mask; returns the exit code."""
    name, settings = FIT_COMMANDS[command]
    inputs = {"cube_header": str(header), "mask": str(mask_root / "mask.hdr"),
              "palette": str(mask_root / "palette.json")}
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.json").write_text(json.dumps({"inputs": inputs, **settings}))
    with caplog.at_level(logging.ERROR, logger="spectral_sift") if caplog else nullcontext():
        return cli.main([name, "--config", str(out / "run.json"), "--out", str(out)])


def fit_outputs(out):
    return [path.name for path in (out / "model.json", out / "selection_report.json")
            if path.exists()]


@pytest.mark.parametrize("command", list(FIT_COMMANDS))
def test_nan_in_last_row_fails_the_fit_with_exit_1(command, scene, bil_copy, tmp_path,
                                                   monkeypatch, caplog):
    header = copy_with_nan_in_last_row(bil_copy, tmp_path)
    monkeypatch.setattr(pipeline, "TILE_CELLS", 1)  # one-row tiles: the NaN is in the last
    code = run_on_cube(command, header, scene[0], tmp_path / "out", caplog)
    assert code == EXIT_USAGE
    assert f"payload of {tmp_path / 'cube.raw'} contains NaN/Inf in rows 39-39" in caplog.text
    assert fit_outputs(tmp_path / "out") == []


@pytest.mark.parametrize("command", list(FIT_COMMANDS))
def test_truncated_payload_fails_the_fit_before_any_pass(command, scene, bil_copy, tmp_path,
                                                         monkeypatch, caplog):
    (tmp_path / "cube.hdr").write_bytes((bil_copy / "bil.hdr").read_bytes())
    (tmp_path / "cube.raw").write_bytes((bil_copy / "bil.raw").read_bytes()[:-4])
    read = []
    monkeypatch.setattr(pipeline, "_read_tile", lambda *args, **kwargs: read.append(args))
    code = run_on_cube(command, tmp_path / "cube.hdr", scene[0], tmp_path / "out", caplog)
    assert code == EXIT_USAGE
    assert "bytes, header implies" in caplog.text
    assert read == [] and fit_outputs(tmp_path / "out") == []


@pytest.fixture(scope="module")
def layouts(scene):
    """The tiny scene rounded to float32 and written as f8 BIP, f4 BIL and
    big-endian f4 BSQ: three files of one cube."""
    root = scene[0]
    full = read_envi(root / "cube.hdr")
    cube = HyperCube(data=full.data.astype(np.float32), wavelengths_nm=full.wavelengths_nm)
    for interleave, dtype, byte_order in [("bip", "f8", 0), ("bil", "f4", 0), ("bsq", "f4", 1)]:
        write_envi(cube, root / f"r{interleave}.hdr", root / f"r{interleave}.raw",
                   interleave=interleave, dtype=dtype, byte_order=byte_order)
    return root


@pytest.mark.parametrize("command", list(FIT_COMMANDS))
def test_fit_does_not_depend_on_the_payload_layout(command, layouts, tmp_path):
    # each tile converts to the same float64 matrix, so every output has the same bytes
    written = {}
    for interleave in ("bip", "bil", "bsq"):
        out = tmp_path / interleave
        assert run_on_cube(command, layouts / f"r{interleave}.hdr", layouts, out) == EXIT_OK
        written[interleave] = [(out / name).read_bytes() for name in fit_outputs(out)]
    assert len(written["bip"]) == 1
    assert written["bil"] == written["bip"] and written["bsq"] == written["bip"]


def test_one_row_tiles_match_the_whole_matrix(fitted, monkeypatch):
    """Row tiles keep the autoscaling bits of the whole matrix and the
    escalation; PCA loadings move within 1e-10 (a tiled cross-product)."""
    root, config, _, whole_model, whole = fitted
    X = flatten(read_envi(root / "cube.hdr"))
    monkeypatch.setattr(pipeline, "TILE_CELLS", 1)
    model, diagnostics = fit_pipeline(config)
    oracle = pp.fit_scale(X)
    for got in (model.scale, whole_model.scale):
        np.testing.assert_array_equal(got.means, X.mean(axis=0))
        np.testing.assert_array_equal(got.stds, X.std(axis=0, ddof=1))
        np.testing.assert_array_equal(got.stds, oracle.stds)
    pca_model, _ = pc.fit_pca(pp.apply_scale(oracle, X))
    np.testing.assert_allclose(model.pca.loadings, pca_model.loadings, rtol=0, atol=1e-10)
    np.testing.assert_allclose(model.pca.explained_variance_ratio,
                               pca_model.explained_variance_ratio, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(model.selection.selected, whole_model.selection.selected)
    assert [(a["k"], a["false_alarms"], a["missed_mites"]) for a in diagnostics["escalation"]] \
        == [(a["k"], a["false_alarms"], a["missed_mites"]) for a in whole["escalation"]]
    np.testing.assert_allclose(model.cluster.centroids, whole_model.cluster.centroids,
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("command", ["covproc-select", "r2-select"])
def test_one_row_tiles_keep_the_band_lists(command, scene, tmp_path, monkeypatch):
    reports = []
    for cells in (pipeline.TILE_CELLS, 1):
        monkeypatch.setattr(pipeline, "TILE_CELLS", cells)
        out = tmp_path / str(cells)
        assert run_on_cube(command, scene[0] / "cube.hdr", scene[0], out) == EXIT_OK
        reports.append(json.loads((out / "selection_report.json").read_text()))
    assert reports[1]["bands_for_model"] == reports[0]["bands_for_model"]
    assert reports[1]["selected"] == reports[0]["selected"]


def stacked_scene(root, blocks, bands):
    """``blocks`` 32 x 32 blocks down the rows, one bee with its mite in each,
    written as f4 BIL with its mask; returns the directory."""
    blobs = []
    for b in range(blocks):
        blobs.append(BlobSpec(1, 32 * b + 9, 11, 14, 10, shape="ellipse"))
        blobs.append(BlobSpec(3, 32 * b + 14, 14, 3, 3))
    spec = SceneSpec(rows=32 * blocks, cols=32, wavelengths_nm=np.linspace(400.0, 1000.0, bands),
                     classes=CLASSES, background=0, blobs=blobs, noise_sigma=0.01,
                     shadow=ShadowSpec(strength=0.4, axis="col"), occlusion="order")
    cube, mask = synth_scene(spec, seed=0)
    root.mkdir()
    write_envi(cube, root / "cube.hdr", root / "cube.raw", interleave="bil")
    write_label_mask_envi(mask, root / "mask.hdr", root / "mask.raw")
    (root / "palette.json").write_text(json.dumps({str(k): v for k, v in mask.palette.items()}))
    return root


@pytest.mark.parametrize("command", ["kmeans-fit", "covproc-select"])
def test_fit_memory_grows_far_less_than_the_pixels(command, tmp_path, monkeypatch):
    # per added pixel the fit keeps its 20 PCA scores and a few labels, and band
    # selection its bee and mite spectra: far less than the pixel's 204 bands
    bands, heights = 204, (2, 8)
    roots = {blocks: stacked_scene(tmp_path / str(blocks), blocks, bands) for blocks in heights}
    monkeypatch.setattr(pipeline, "TILE_CELLS", 4 * 32 * bands)  # 4-row tiles
    name, settings = FIT_COMMANDS[command]
    configs = {blocks: RunConfig.from_dict({"inputs": {
        "cube_header": str(root / "cube.hdr"), "mask": str(root / "mask.hdr"),
        "palette": str(root / "palette.json")}, **settings}) for blocks, root in roots.items()}

    def run(config):
        if name == "fit":
            return fit_pipeline(config)
        cube, mask = pipeline.load_inputs(config)  # mapped pages are not numpy buffers
        return pipeline.run_band_selection(cube, mask.labels.ravel(), config)

    run(configs[heights[0]])  # imports and first calls, not per row
    peaks = {}
    for blocks in heights:
        tracemalloc.start()
        try:
            run(configs[blocks])
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    added_pixels = (heights[1] - heights[0]) * 32 * 32
    assert peaks[heights[1]] - peaks[heights[0]] < 0.5 * added_pixels * bands * 8, peaks
