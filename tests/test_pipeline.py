"""Fit, save, load and apply through the pipeline and the CLI on a tiny scene."""

import argparse
import base64
import dataclasses
import json
import logging
import tracemalloc

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
    EXIT_USAGE,
    BandSelectionConfig,
    InputsConfig,
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
        unlabeled=UNLABELED,
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


def test_format_2_model_rejected_by_apply(fitted, tmp_path, caplog):
    root = fitted[0]
    doc = json.loads((root / "model.json").read_text())
    doc["format_version"] = 2
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(tmp_path / "model.json"),
                         "--cube", str(root / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "model format 2" in caplog.text and "refit the model" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, key", [
    ({"band_selection": {"stop_by_clustering": "false"}}, "band_selection.stop_by_clustering"),
    ({"cluster": {"k0": 2.9, "k_max": 12.5}}, "cluster.k0"),
    ({"pca": {"top_n": 3, "threshold": 0.5}}, "top_n"),
    ({"inputs": []}, "inputs"),
    ({"labels": {"mite": None}}, "labels.mite"),
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
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(workers)))
    width = pipeline._pixel_classifier(model)[1]
    monkeypatch.setattr(pipeline, "TILE_CELLS", rows_per_tile * workers * cube.cols * width)


def spy_tile_pixels(monkeypatch, model):
    """Record the pixel count of every tile the model's arithmetic receives."""
    seen = []
    module, name = (pc, "project") if model.workflow == "kmeans" else (kn, "classify")
    original = getattr(module, name)

    def spy(m, X):
        seen.append(X.shape[0])
        return original(m, X)

    monkeypatch.setattr(module, name, spy)
    return seen


def assert_tiles_match_whole_cube(monkeypatch, model, root, workers):
    """Tiles of 1 row, 7 rows and the whole cube give the same bytes, from the
    mapped file and from the cube read into memory."""
    cube = open_envi(root / "bil.hdr")
    seen = spy_tile_pixels(monkeypatch, model)
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


def test_nan_in_last_row_exits_1_without_masks(fitted, bil_copy, tmp_path, monkeypatch, caplog):
    root, model = fitted[0], fitted[3]
    for suffix in ("hdr", "raw"):
        (tmp_path / f"cube.{suffix}").write_bytes((bil_copy / f"bil.{suffix}").read_bytes())
    cube = open_envi(tmp_path / "cube.hdr")
    payload = np.memmap(tmp_path / "cube.raw", dtype="<f4", mode="r+",
                        shape=(cube.rows, cube.bands, cube.cols))  # BIL: line, band, sample
    payload[-1, 3, 5] = np.nan
    payload.flush()
    del payload, cube
    tile_settings(monkeypatch, model, open_envi(tmp_path / "cube.hdr"), 1, 2)
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(root / "model.json"),
                         "--cube", str(tmp_path / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert str(tmp_path / "cube.raw") in caplog.text and "NaN" in caplog.text
    assert not (tmp_path / "out" / "class_mask.raw").exists()


def test_truncated_payload_exits_1_before_any_tile(fitted, bil_copy, tmp_path, monkeypatch, caplog):
    (tmp_path / "cube.hdr").write_bytes((bil_copy / "bil.hdr").read_bytes())
    (tmp_path / "cube.raw").write_bytes((bil_copy / "bil.raw").read_bytes()[:-4])
    seen = spy_tile_pixels(monkeypatch, fitted[3])
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
    seen = spy_tile_pixels(monkeypatch, model)
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(root / "model.json"),
                         "--cube", str(tmp_path / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert message in caplog.text
    assert seen == [] and not (tmp_path / "out").exists()
