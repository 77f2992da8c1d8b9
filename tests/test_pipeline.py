"""Fit, save, load and apply through the pipeline and the CLI on a tiny scene."""

import argparse
import base64
import dataclasses
import inspect
import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest

from spectral_sift import cli
from spectral_sift import cluster as cl
from spectral_sift import kernel as kn
from spectral_sift import modelio
from spectral_sift import pipeline
from spectral_sift import pca as pc
from spectral_sift import preprocess as pp
from spectral_sift import wavesel as ws
from spectral_sift.kernel import KfConfig
from spectral_sift.pipeline import (
    EXIT_OK,
    EXIT_QUALITY,
    EXIT_USAGE,
    BandSelectionConfig,
    ClusterConfig,
    InputsConfig,
    PipelineModel,
    RunConfig,
    apply_pipeline,
    fit_pipeline,
)
from spectral_sift.specdata import (
    BlobSpec,
    ClassSpec,
    CubeFile,
    EnviFormatError,
    LabelMask,
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


@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_apply_writes_the_masks_palette_and_counts(fixture, request, scene, tmp_path, capsys):
    root = scene[0]
    value = request.getfixturevalue(fixture)
    path, model = (value[0] / "model.json", value[3]) if fixture == "fitted" else value[:2]
    expected = apply_pipeline(model, read_envi(root / "cube.hdr"))
    out = tmp_path / "out"
    code = cli.main(["apply", "--model", str(path), "--cube", str(root / "cube.hdr"),
                     "--out", str(out)])
    assert code == EXIT_OK
    for suffix in ("hdr", "pgm"):
        np.testing.assert_array_equal(read_label_mask(out / f"class_mask.{suffix}").labels,
                                      expected.class_labels)
        if expected.cluster_ids is None:
            assert not (out / f"cluster_mask.{suffix}").exists()
        else:
            np.testing.assert_array_equal(read_label_mask(out / f"cluster_mask.{suffix}").labels,
                                          expected.cluster_ids)
    palette = json.loads((out / "palette.json").read_text())
    assert {int(key): name for key, name in palette.items()} == expected.palette
    counts = json.loads((out / "counts.json").read_text())
    assert counts == {"counts": expected.counts, "pixels": expected.class_labels.size}
    assert json.loads(capsys.readouterr().out) == counts  # the summary on stdout
    assert sum(expected.counts.values()) == expected.class_labels.size
    if fixture == "fitted_kfpls":  # the kfpls classes keep the names of the fit's palette file
        names = json.loads((root / "palette.json").read_text())
        assert sorted(expected.counts) == sorted(names.values())


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
    # r2 fails the same way when every prefix it added fails the stop test
    for selection, message in (
        ({"method": "covproc", "rounds": 3},
         "no prefix of the reordered band list passes the clustering test (3 tried, 1 to 3 bands)"),
        ({"method": "r2", "target_count": 6},
         "no prefix of the r2 band list passes the clustering test (3 tried, 4 to 6 bands)"),
    ):
        out = tmp_path / selection["method"]
        config = write_run_config(
            scene[0], out.with_suffix(".json"), cluster={"k0": 2, "k_max": 2},
            band_selection={**selection, "n_tail": 4, "stop_by_clustering": True})
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="spectral_sift"):
            code = cli.main(["select-bands", "--config", config, "--out", str(out)])
        assert code == EXIT_QUALITY
        assert "model quality failure" in caplog.text
        assert message in caplog.text
        assert not (out / "selection_report.json").exists()


@pytest.mark.parametrize("method, settings, k_max", [
    ("r2", {"target_count": 10}, 5),
    ("covproc", {"rounds": 6}, 4),
])
def test_stop_rule_keeps_the_first_passing_prefix(method, settings, k_max, scene, monkeypatch):
    # at these k_max the kmeans path fails on the first prefixes and passes before the list ends
    root, mask = scene
    labels = mask.labels.ravel()
    cube = open_envi(root / "cube.hdr")

    def select(stop):
        bands = BandSelectionConfig(method=method, n_tail=4, stop_by_clustering=stop, **settings)
        config = scene_config(root, band_selection=bands,
                              cluster=pipeline.ClusterConfig(k_max=k_max))
        return pipeline.run_band_selection(cube, labels, config)

    full_report, full_bands, no_fit = select(False)
    assert no_fit is None
    tested, failed, fit = [], [], pipeline._fit_kmeans_path

    def spy(*args):
        tested.append(args[1])
        try:
            return fit(*args)
        except (cl.EscalationError, ValueError):
            failed.append(args[1])
            raise

    monkeypatch.setattr(pipeline, "_fit_kmeans_path", spy)
    report, bands, _ = select(True)
    first = 4 if method == "r2" else 1  # the init size (init_m 3) + 1, or one band
    n = len(bands)
    assert first < n < len(full_bands)
    assert tested == [sorted(full_bands[:m]) for m in range(first, n + 1)]
    assert failed == tested[:-1]
    assert bands == full_bands[:n]
    expected = full_report.to_dict()
    if method == "r2":
        expected.update(selected=expected["selected"][:n], selected_nm=expected["selected_nm"][:n],
                        trace=expected["trace"][:n - first + 1])
    assert report.to_dict() == expected


@pytest.mark.parametrize("method, settings, k_max", [
    ("r2", {"target_count": 10}, 5),
    ("covproc", {"rounds": 6}, 4),
])
def test_fit_reuses_the_stop_tests_passing_fit(method, settings, k_max, scene, monkeypatch):
    # the kept prefix's kmeans path ran on the model's band subset: fit takes its result
    root, mask = scene
    bands = BandSelectionConfig(method=method, n_tail=4, stop_by_clustering=True, **settings)
    config = scene_config(root, band_selection=bands, cluster=pipeline.ClusterConfig(k_max=k_max))
    tested, fit = [], pipeline._fit_kmeans_path

    def spy(*args):
        tested.append(args[1])
        return fit(*args)

    monkeypatch.setattr(pipeline, "_fit_kmeans_path", spy)
    model, diagnostics = fit_pipeline(config)
    kept = diagnostics["band_selection"]["bands_for_model"]
    first = 4 if method == "r2" else 1
    assert len(kept) > first  # the first prefixes failed
    assert tested == [sorted(kept[:m]) for m in range(first, len(kept) + 1)]
    assert model.band_subset == tested[-1]

    scale, pca_model, selection, cluster_model, fresh = fit(
        open_envi(root / "cube.hdr"), model.band_subset, mask.labels.ravel(), config)
    assert modelio.encode([model.scale, model.pca, model.selection, model.cluster]) \
        == modelio.encode([scale, pca_model, selection, cluster_model])
    assert {key: diagnostics[key] for key in fresh} == fresh


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


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "user-set"])
def test_cli_import_loads_numpy_at_one_openblas_thread(preset):
    # in a fresh process with no thread count set, numpy loads under the CLI's
    # default of one OpenBLAS thread; a count the user set is kept, read as a
    # plain numpy import reads it; either way the import leaves the
    # environment as it was
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    report = ("from spectral_sift.pipeline import _openblas_threads; blas = _openblas_threads(); "
              "print(blas and blas[0](), os.environ.get('OPENBLAS_NUM_THREADS'))")
    seen = {}
    for first in ("spectral_sift.cli", "numpy"):
        run = subprocess.run([sys.executable, "-c", f"import os, {first}; {report}"],
                             capture_output=True, text=True, env=env, check=True, timeout=60)
        seen[first] = run.stdout.split()
    if seen["numpy"][0] == "None":
        pytest.skip("numpy is not linked to OpenBLAS")
    assert seen["spectral_sift.cli"][1] == str(preset)
    if preset is None:
        assert seen["spectral_sift.cli"][0] == "1"
    else:
        assert seen["spectral_sift.cli"] == seen["numpy"]


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


@pytest.mark.parametrize("corrupt, error", [
    (lambda data: "\u00e9" + data[1:], "only ASCII"),
    (lambda data: data[:-2], "padding"),
    (lambda data: base64.b64encode(base64.b64decode(data)[:-4]).decode(), "multiple"),
    (lambda data: 12345, "not 'int'"),
], ids=["non-ascii", "bad-padding", "partial-float", "not-a-string"])
def test_malformed_model_array_exits_1_naming_the_key(corrupt, error, scene, fitted_kfpls,
                                                      tmp_path, caplog):
    doc = json.loads(fitted_kfpls[0].read_text())
    support = doc["kernel"]["support"]
    assert len(support["data"]) % 4 == 0 and not support["data"].endswith("=")
    support["data"] = corrupt(support["data"])
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(tmp_path / "model.json"),
                         "--cube", str(scene[0] / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "kernel.support is not an array" in caplog.text and error in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, message", [
    ("json-list", "must hold a JSON object"),
    ("kmeans-without-cluster", "model file lacks the clustering-path components"),
    ("kfpls-without-kernel", "model file lacks the kernel-path components"),
])
def test_model_file_without_its_components_exits_1(case, message, fitted, fitted_kfpls,
                                                   tmp_path, caplog):
    if case == "json-list":
        doc = [json.loads((fitted[0] / "model.json").read_text())]
    else:
        kmeans = case.startswith("kmeans")
        doc = json.loads((fitted[0] / "model.json" if kmeans else fitted_kfpls[0]).read_text())
        doc["cluster" if kmeans else "kernel"] = None
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(tmp_path / "model.json"),
                         "--cube", str(fitted[0] / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert message in caplog.text
    assert not (tmp_path / "out" / "class_mask.raw").exists()


def test_mask_of_another_grid_exits_1(scene, tmp_path, caplog):
    root, mask = scene
    write_label_mask_envi(LabelMask(labels=mask.labels[:-1], palette=mask.palette),
                          tmp_path / "mask.hdr", tmp_path / "mask.raw")
    inputs = {"cube_header": str(root / "cube.hdr"), "mask": str(tmp_path / "mask.hdr")}
    (tmp_path / "run.json").write_text(json.dumps({"inputs": inputs}))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["fit", "--config", str(tmp_path / "run.json"),
                         "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "mask (39, 36) does not match cube (40, 36)" in caplog.text
    assert not (tmp_path / "out" / "model.json").exists()


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
    ({"band_selection": {"method": "r2", "target_count": 3}},
     "band_selection: target_count must exceed init_m (3) for r2, got 3"),
    ({"band_selection": {"method": "r2", "init_m": 4, "target_count": 2,
                         "stop_by_clustering": True}},
     "band_selection: target_count must exceed init_m (4) for r2, got 2"),
    ({"band_selection": {"method": "r2", "init_m": -1, "target_count": 4}},
     "band_selection: init_m must be >= 0, got -1"),
    ({"workflow": "svm"}, "workflow must be one of ('kmeans', 'kfpls'), got 'svm'"),
    ({"band_selection": {"method": "lasso"}}, "band_selection.method must be one of"),
    ({"labels": {"mite": 1, "bee": 1}}, "labels.mite and labels.bee must differ"),
    ({"kernel": {"family": "linear"}}, "kernel.family must be one of"),
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
    """Make apply run ``workers`` threads on tiles of ``rows_per_tile`` rows:
    the tile rows follow from ``TILE_CELLS`` alone, the workers from the CPUs."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
    width = pipeline._pixel_classifier(model)[1]
    monkeypatch.setattr(pipeline, "TILE_CELLS", rows_per_tile * cube.cols * width)


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
    cube file and from the cube read into memory."""
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
def test_apply_on_one_cpu_starts_no_thread(fixture, request, bil_copy, monkeypatch):
    value = request.getfixturevalue(fixture)
    model = value[3] if fixture == "fitted" else value[1]
    cube = open_envi(bil_copy / "bil.hdr")
    started, start = [], threading.Thread.start

    def spy_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    workers = spy_tiles(monkeypatch, model, lambda X: threading.current_thread())
    results = {}
    for cpus in (1, 2, 3):
        started.clear()
        workers.clear()
        tile_settings(monkeypatch, model, cube, 3, cpus)
        results[cpus] = apply_pipeline(model, cube)
        assert len(started) <= cpus - 1  # none on one CPU
        assert set(workers) <= {threading.current_thread(), *started}
    for cpus in (2, 3):
        assert results[cpus].class_labels.tobytes() == results[1].class_labels.tobytes()
        if results[1].cluster_ids is not None:
            assert results[cpus].cluster_ids.tobytes() == results[1].cluster_ids.tobytes()


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


def random_kfpls_model(rng, bands, n_support=654):
    """A kfpls model on ``n_support`` random support spectra (a multiple of 3)
    of ``bands`` bands; 654 is the support size of the benchmark's kfpls model."""
    support = rng.uniform(0.05, 0.8, size=(n_support, bands))
    kernel = kn.fit_kernel_pls(support, np.repeat([0, 1, 3], n_support // 3),
                               kn.KernelSpec("matern52", 3.0), 4)
    return PipelineModel(workflow="kfpls", palette={0: "background", 1: "bee", 3: "mite"},
                         mite_label=3, bee_label=1, original_bands=bands,
                         wavelengths_nm=np.linspace(400.0, 1000.0, bands), kernel=kernel)


@pytest.mark.parametrize("workflow", ["kmeans", "kfpls"])
def test_apply_scores_do_not_depend_on_the_cpu_count(workflow, fitted, monkeypatch):
    # With tile rows taken from the CPU count, this cube's kfpls scores (30 x
    # 100 pixels against 654 support spectra of 204 bands) differed from the
    # 1-CPU scores in 28 pixels at 2 CPUs and 2991 at 3 and 4: a product's
    # last bits follow its row count. Every pixel's scores must keep their bits.
    rng = np.random.default_rng(0)
    model = fitted[3] if workflow == "kmeans" else random_kfpls_model(rng, 204)
    bands = model.wavelengths_nm.size
    cube = HyperCube(data=rng.uniform(0.05, 0.8, size=(30, 100, bands)),
                     wavelengths_nm=model.wavelengths_nm)
    seen = []
    module, name = (pc, "project") if workflow == "kmeans" else (kn, "classify")
    original = getattr(module, name)

    def spy(m, X):
        out = original(m, X)
        seen.append((X.copy(), out if workflow == "kmeans" else out[1]))
        return out

    monkeypatch.setattr(module, name, spy)
    scores, results = {}, {}
    for cpus in (1, 2, 3, 4):
        seen.clear()
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        results[cpus] = apply_pipeline(model, cube)
        X = np.concatenate([tile for tile, _ in seen])
        _, first = np.unique(X, axis=0, return_index=True)  # pixel order, whatever the tiles
        assert first.size == cube.rows * cube.cols
        scores[cpus] = np.concatenate([s for _, s in seen])[first]
    for cpus in (2, 3, 4):
        assert scores[cpus].tobytes() == scores[1].tobytes()
        assert results[cpus].class_labels.tobytes() == results[1].class_labels.tobytes()
        if workflow == "kmeans":
            assert results[cpus].cluster_ids.tobytes() == results[1].cluster_ids.tobytes()


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
        cube = open_envi(tmp_path / f"{rows}.hdr")
        tracemalloc.start()
        try:
            apply_pipeline(model, cube)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the masks grow with the rows: class ids, cluster ids (kmeans) and one count
    # comparison; a tile's chunk buffer is counted too, but holds CHUNK_BYTES at most
    mask_bytes = heights[1] * cols * (3 if model.workflow == "kmeans" else 2)
    assert peaks[heights[1]] <= 1.25 * peaks[heights[0]] + mask_bytes, peaks


def test_kfpls_apply_memory_does_not_grow_with_the_support(tmp_path, monkeypatch):
    # a tile is at least one row: with one (tile x support) cross-kernel per
    # tile, 0.6 MB for this 256-pixel row at 300 support spectra and 2.5 MB at
    # 1200, the peak rose from 1.7 to 3.5 MB here
    rng = np.random.default_rng(3)
    bands = 8
    cube = HyperCube(data=rng.uniform(0.05, 0.8, size=(4, 256, bands)),
                     wavelengths_nm=np.linspace(400.0, 1000.0, bands))
    write_envi(cube, tmp_path / "cube.hdr", tmp_path / "cube.raw", interleave="bil")
    cube = open_envi(tmp_path / "cube.hdr")
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    peaks = {}
    for n_support in (300, 1200):
        model = random_kfpls_model(rng, bands, n_support)
        apply_pipeline(model, cube)  # first calls; the model keeps its support's norms
        tracemalloc.start()
        try:
            apply_pipeline(model, cube)
            peaks[n_support] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1200] <= 1.25 * peaks[300], peaks


def test_kmeans_apply_scales_each_tile_in_place(tmp_path, monkeypatch):
    # 64 bands against 4 scores a pixel: a tile that is scaled into a copy
    # holds two tiles at once, one scaled in place about one, plus the 64 KiB
    # buffer of numpy's broadcast subtraction (1/8 of this tile): here they
    # peaked at 2.2 and 1.3 tiles. An f8 BIP payload read in every band goes
    # straight into the tile, so no read buffer is counted.
    root = stacked_scene(tmp_path / "scene", 2, 64)
    model, _ = fit_pipeline(scene_config(root, pca=pipeline.PcaConfig(components=4)))
    write_envi(read_envi(root / "cube.hdr"), tmp_path / "bip.hdr", tmp_path / "bip.raw",
               interleave="bip", dtype="f8")
    cube = open_envi(tmp_path / "bip.hdr")
    tile_settings(monkeypatch, model, cube, 32, 1)
    apply_pipeline(model, cube)  # imports and first calls
    tracemalloc.start()
    try:
        apply_pipeline(model, cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile_bytes = 32 * cube.cols * cube.bands * 8
    mask_bytes = cube.rows * cube.cols * 3  # class ids, cluster ids, one count comparison
    assert peak <= 1.5 * tile_bytes + mask_bytes, peak / tile_bytes


def bil_copy_in(bil_copy, tmp_path):
    """A copy of the BIL cube in ``tmp_path``; returns its header."""
    for suffix in ("hdr", "raw"):
        (tmp_path / f"cube.{suffix}").write_bytes((bil_copy / f"bil.{suffix}").read_bytes())
    return tmp_path / "cube.hdr"


def copy_with_nan_in_last_row(bil_copy, tmp_path):
    """A copy of the BIL cube with one NaN in its last row; returns its header."""
    cube = open_envi(bil_copy_in(bil_copy, tmp_path))
    payload = np.memmap(tmp_path / "cube.raw", dtype="<f4", mode="r+",
                        shape=(cube.rows, cube.bands, cube.cols))  # BIL: line, band, sample
    payload[-1, 3, 5] = np.nan
    payload.flush()
    del payload
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


@contextmanager
def openblas_set_to(count):
    """numpy's OpenBLAS set to ``count`` threads while the block runs; yields
    its get function and restores the count. Skips without OpenBLAS."""
    blas = pipeline._openblas_threads()
    if blas is None:
        pytest.skip("numpy is not linked to OpenBLAS")
    get, set_ = blas
    before = get()
    set_(count)
    try:
        yield get
    finally:
        set_(before)


@pytest.fixture
def openblas_at_two():
    """numpy's OpenBLAS set to 2 threads, so that 2 workers hold it to 1
    whatever the machine."""
    with openblas_set_to(2) as get:
        yield get


@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_blas_threads_held_per_worker_keep_the_masks(fixture, request, bil_copy, monkeypatch,
                                                     openblas_at_two):
    value = request.getfixturevalue(fixture)
    model = value[3] if fixture == "fitted" else value[1]
    cube = open_envi(bil_copy / "bil.hdr")
    seen = spy_tiles(monkeypatch, model, lambda X: openblas_at_two())
    results = []
    # (CPUs, rows per tile): every tile sees one BLAS thread, also the lone
    # tile of 2 CPUs, whose second CPU has no worker
    for cpus, rows_per_tile in [(2, cube.rows), (2, 20), (1, 7), (3, 1)]:
        seen.clear()
        tile_settings(monkeypatch, model, cube, rows_per_tile, cpus)
        results.append(apply_pipeline(model, cube))
        assert seen and set(seen) == {1}
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
    # one-row tiles on 2 CPUs: the calling thread and one helper each take a
    # tile, and the tile of the thread named reads a NaN. The other thread
    # finishes its tile after that one failed, and neither starts another.
    cube = open_envi(bil_copy / "bil.hdr")
    read_rows, calling = type(cube).read_rows, threading.current_thread()
    for failing in ("calling thread", "helper"):
        started, both_claimed, failed = [], threading.Barrier(2, timeout=10), threading.Event()

        def spy_read_rows(self, r0, columns, X):
            started.append((r0, threading.current_thread()))
            read_rows(self, r0, columns, X)
            if len(started) > 2:
                return
            both_claimed.wait()
            if (threading.current_thread() is calling) == (failing == "calling thread"):
                X[0, 0] = np.nan
                failed.set()
            else:
                assert failed.wait(10)
                time.sleep(0.2)  # the failing thread raises meanwhile

        monkeypatch.setattr(type(cube), "read_rows", spy_read_rows)
        seen.clear()
        with pytest.raises(EnviFormatError, match="NaN"):
            apply_pipeline(model, cube)
        assert sorted(r0 for r0, _ in started) == [0, 1]
        assert calling in {thread for _, thread in started}
        assert seen == [1]  # the other thread's tile ran held
        assert openblas_at_two() == 2


# fit and band selection run on one BLAS thread, whatever the caller set

def fit_output_bytes(config, out):
    """The bytes fit writes for ``config``: model.json, diagnostics.json and
    the KF trace (None on the kmeans path)."""
    model, diagnostics = fit_pipeline(config)
    trace = diagnostics.pop("_kf_trace", None)
    model.save(out / "model.json")
    return ((out / "model.json").read_bytes(), modelio.dumps(diagnostics),
            None if trace is None else trace.tobytes())


def spy_blas_threads(monkeypatch, get):
    """Record OpenBLAS's thread count at each tile a fit reads."""
    seen, read_tile = [], pipeline._read_tile

    def record(*args, **kwargs):
        seen.append(get())
        return read_tile(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_read_tile", record)
    return seen


@pytest.mark.parametrize("case", ["kfpls-tiny", "kmeans-s-like"])
def test_fit_bytes_do_not_depend_on_the_blas_threads(case, scene, tmp_path, monkeypatch):
    # OpenBLAS splits a product by its thread count, and the split sets the
    # last bits: unheld, both fits write other bytes at 1 and at 3 threads
    if case == "kfpls-tiny":  # at 20 pixels a class the unheld bytes did not move
        config = scene_config(scene[0], workflow="kfpls", samples_per_class=60,
                              kf=KfConfig(iterations=1, subsamplings_per_iter=4))
    else:
        s_like_scene(tmp_path)
        config = scene_config(tmp_path)
    written = {}
    for threads in (1, 3):
        out = tmp_path / str(threads)
        out.mkdir()
        with openblas_set_to(threads) as get:
            before, seen = get(), spy_blas_threads(monkeypatch, get)
            written[threads] = fit_output_bytes(config, out)
            assert seen and set(seen) == {1}
            assert get() == before
    assert written[3] == written[1]


@pytest.mark.parametrize("command", ["covproc-select", "r2-select"])
def test_band_selection_does_not_depend_on_the_blas_threads(command, scene, monkeypatch):
    root, mask = scene
    config = RunConfig.from_dict(FIT_COMMANDS[command][1])
    cube = open_envi(root / "cube.hdr")
    reports = {}
    for threads in (1, 3):
        with openblas_set_to(threads) as get:
            seen = spy_blas_threads(monkeypatch, get)
            report, bands, _ = pipeline.run_band_selection(cube, mask.labels.ravel(), config)
            reports[threads] = (modelio.dumps(report.to_dict()), bands)
            assert seen and set(seen) == {1}
    assert reports[3] == reports[1]


def test_blas_threads_restored_after_a_failed_fit(fitted, scene, monkeypatch, openblas_at_two):
    root, mask = scene
    seen = spy_blas_threads(monkeypatch, openblas_at_two)
    k_max = fitted[4]["final_k"] - 1  # one below the k that passes
    with pytest.raises(cl.EscalationError):
        fit_pipeline(scene_config(root, cluster=ClusterConfig(k0=2, k_max=k_max)))
    # the stop test's failed prefixes, in a band selection of its own
    bands = BandSelectionConfig(method="covproc", n_tail=4, rounds=3, stop_by_clustering=True)
    with pytest.raises(cl.EscalationError):
        pipeline.run_band_selection(open_envi(root / "cube.hdr"), mask.labels.ravel(),
                                    RunConfig(cluster=ClusterConfig(k0=2, k_max=2),
                                              band_selection=bands))
    assert seen and set(seen) == {1}  # the tiles before the failure ran held
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


def test_file_in_the_way_of_the_output_exits_1_before_any_tile(fitted, tmp_path, monkeypatch,
                                                                caplog):
    # the CLI makes apply's output directory, and only it: a file in its place
    # fails the command before the first tile is classified
    (tmp_path / "out").write_text("not a directory")
    seen = spy_tiles(monkeypatch, fitted[3])
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["apply", "--model", str(fitted[0] / "model.json"),
                         "--cube", str(fitted[0] / "cube.hdr"), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert str(tmp_path / "out") in caplog.text
    assert seen == [] and (tmp_path / "out").read_text() == "not a directory"


def shrunk_after_open(open_envi):
    """``open_envi`` that halves the payload once it has checked its size, as a
    file rewritten while it is read would be."""

    def opener(*args, **kwargs):
        cube = open_envi(*args, **kwargs)
        with open(cube.path, "r+b") as fh:
            fh.truncate(cube.header.payload_bytes() // 2)
        return cube

    return opener


@pytest.mark.parametrize("fixture", ["fitted", "fitted_kfpls"])
def test_payload_shrunk_after_open_fails_apply(fixture, request, bil_copy, tmp_path):
    value = request.getfixturevalue(fixture)
    model = value[3] if fixture == "fitted" else value[1]
    cube = shrunk_after_open(open_envi)(bil_copy_in(bil_copy, tmp_path))
    shrunk = re.escape(f"payload of {tmp_path / 'cube.raw'} ends before")
    with pytest.raises(EnviFormatError, match=shrunk):
        apply_pipeline(model, cube)


def test_payload_shrunk_after_open_fails_the_kmeans_fit(scene, bil_copy, tmp_path, monkeypatch):
    header = bil_copy_in(bil_copy, tmp_path)
    monkeypatch.setattr(pipeline, "open_envi", shrunk_after_open(open_envi))
    config = RunConfig(inputs=InputsConfig(cube_header=str(header),
                                           mask=str(scene[0] / "mask.hdr")))
    shrunk = re.escape(f"payload of {tmp_path / 'cube.raw'} ends before")
    with pytest.raises(EnviFormatError, match=shrunk):
        fit_pipeline(config)


def test_payload_shrunk_during_the_stop_test_exits_1(scene, bil_copy, tmp_path, monkeypatch,
                                                     caplog):
    # the payload is halved after the cross-product pass, before the first prefix's fit
    header = bil_copy_in(bil_copy, tmp_path)
    select = ws.covproc_select

    def shrink_then_select(*args, **kwargs):
        with open(tmp_path / "cube.raw", "r+b") as fh:
            fh.truncate(os.path.getsize(tmp_path / "cube.raw") // 2)
        return select(*args, **kwargs)

    monkeypatch.setattr(ws, "covproc_select", shrink_then_select)
    code = run_on_cube("covproc-select", header, scene[0], tmp_path / "out", caplog)
    assert code == EXIT_USAGE
    assert f"payload of {tmp_path / 'cube.raw'} ends before" in caplog.text
    assert fit_outputs(tmp_path / "out") == []


def test_apply_on_a_payload_shrunk_after_open_exits_1(fitted, bil_copy, tmp_path):
    # in a fresh process, so that a read that ended it by a signal fails the test only
    header = bil_copy_in(bil_copy, tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (inspect.getsource(shrunk_after_open)
            + "import sys\nfrom spectral_sift import cli\n"
            + "cli.open_envi = shrunk_after_open(cli.open_envi)\n"
            + "sys.exit(cli.main(sys.argv[1:]))\n")
    run = subprocess.run(
        [sys.executable, "-c", code, "apply", "--model", str(fitted[0] / "model.json"),
         "--cube", str(header), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == EXIT_USAGE, run.stderr
    errors = run.stderr.strip().splitlines()
    assert len(errors) == 1 and f"payload of {tmp_path / 'cube.raw'} ends before" in errors[0]
    assert not (tmp_path / "out" / "class_mask.raw").exists()


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
    assert seen == [] and list((tmp_path / "out").iterdir()) == []


# fit and select-bands read the cube file in row tiles

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
    """Row tiles keep the autoscaling of the whole matrix, within 1e-13 of
    each band's std of numpy's, and the escalation; PCA loadings move within
    1e-10 (a tiled cross-product)."""
    root, config, _, whole_model, whole = fitted
    X = flatten(read_envi(root / "cube.hdr"))
    monkeypatch.setattr(pipeline, "TILE_CELLS", 1)
    model, diagnostics = fit_pipeline(config)
    oracle = pp.fit_scale(X)
    sigma = X.std(axis=0, ddof=1)
    for got in (model.scale, whole_model.scale):
        np.testing.assert_array_less(np.abs(got.means - X.mean(axis=0)), 1e-13 * sigma)
        np.testing.assert_array_less(np.abs(got.stds - sigma), 1e-13 * sigma)
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


def test_one_row_tiles_keep_the_kfpls_model(scene, fitted_kfpls, tmp_path, monkeypatch):
    # each sampled pixel is gathered from its own tile
    config = scene_config(scene[0], workflow="kfpls", samples_per_class=20,
                          kf=KfConfig(iterations=1, subsamplings_per_iter=4))
    monkeypatch.setattr(pipeline, "TILE_CELLS", 1)
    model, _ = fit_pipeline(config)
    model.save(tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == fitted_kfpls[0].read_bytes()


@pytest.mark.parametrize("command, passes", [("kmeans-fit", 3), ("r2-select", 1)])
def test_each_pass_reads_every_row_tile_once(command, passes, scene, tmp_path, monkeypatch):
    # the kmeans path reads the statistics and cross-product, the gate's scores
    # and the kept scores; band selection reads its cross-product alone
    monkeypatch.setattr(pipeline, "TILE_CELLS", 7 * 36 * 24)  # 7-row tiles, 6 a pass
    starts, read_rows = [], CubeFile.read_rows

    def spy(cube, r0, *args):
        starts.append(r0)
        return read_rows(cube, r0, *args)

    monkeypatch.setattr(CubeFile, "read_rows", spy)
    assert run_on_cube(command, scene[0] / "cube.hdr", scene[0], tmp_path) == EXIT_OK
    assert starts == list(range(0, 40, 7)) * passes


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


@pytest.mark.parametrize("command", ["kmeans-fit", "covproc-select", "r2-select"])
def test_fit_memory_grows_far_less_than_the_pixels(command, tmp_path, monkeypatch):
    # per added pixel the fit keeps its selected components' scores and a few
    # labels: far less than the pixel's 204 bands. Band selection reads one
    # (bands + 1)^2 cross-product of the bee and mite spectra, so it holds
    # less than one spectrum per added bee or mite pixel. When it gathered
    # those spectra and the selector copied them, it grew by 2.8 (covproc)
    # and 4.0 (r2) spectra per added bee or mite pixel here.
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
        cube, mask = pipeline.load_inputs(config)
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
    growth = peaks[heights[1]] - peaks[heights[0]]
    if name == "fit":
        added_pixels = (heights[1] - heights[0]) * 32 * 32
        assert growth < 0.5 * added_pixels * bands * 8, peaks
    else:
        labels = configs[heights[0]].labels
        insects = [labels.bee, labels.mite]
        bee_mite = {blocks: np.count_nonzero(np.isin(pipeline.load_inputs(config)[1].labels,
                                                     insects))
                    for blocks, config in configs.items()}
        assert growth < (bee_mite[heights[1]] - bee_mite[heights[0]]) * bands * 8, peaks


def s_like_scene(root):
    """128 x 128 px x 204 bands, six 20 x 14 bees with a 3 x 3 mite each, one
    bee per cell of a 32-pixel grid, written f8 BIP with its mask and palette
    (the inputs of :func:`scene_config`): made like the benchmark's training
    scene S. Returns the opened cube and its labels."""
    blobs = []
    for row, col in [(0, 0), (0, 64), (32, 32), (64, 96), (96, 0), (96, 64)]:
        blobs.append(BlobSpec(1, row + 5, col + 9, 20, 14, shape="ellipse"))
        blobs.append(BlobSpec(3, row + 13, col + 14, 3, 3))
    spec = SceneSpec(rows=128, cols=128, wavelengths_nm=np.linspace(400.0, 1000.0, 204),
                     classes=CLASSES, background=0, blobs=blobs, noise_sigma=0.01,
                     shadow=ShadowSpec(strength=0.4, axis="col"), occlusion="order")
    cube, mask = synth_scene(spec, seed=0)
    write_envi(cube, root / "cube.hdr", root / "cube.raw", interleave="bip", dtype="f8")
    write_label_mask_envi(mask, root / "mask.hdr", root / "mask.raw")
    (root / "palette.json").write_text(json.dumps({str(k): v for k, v in mask.palette.items()}))
    return open_envi(root / "cube.hdr"), mask.labels.ravel()


def test_kmeans_fit_holds_no_score_matrix_of_every_component(tmp_path, monkeypatch):
    # The escalation reads the scores of the selected components alone: 2
    # columns here, 0.26 MB. The scores of all 20 components take 16384 x 20
    # x 8 B = 2.62 MB: a fit that holds them, and Lloyd's n x k distance
    # matrices, peaked at 5.4 MB on this scene; one that keeps the selected
    # columns alone and computes distances in row blocks, at 2.2 MB. The
    # bound of 4 MB sits between the two.
    cube, labels = s_like_scene(tmp_path)
    config = RunConfig()
    monkeypatch.setattr(pipeline, "TILE_CELLS", 1 << 14)
    tracemalloc.start()
    try:
        pipeline._fit_kmeans_path(cube, None, labels, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


#: the scene of .github/console-smoke.sh: 13 bands, two bees with a mite each
SMOKE_SCENE = {
    "rows": 40, "cols": 36, "wavelengths_nm": list(range(400, 1001, 50)),
    "classes": [
        {"label": 0, "name": "background", "knots": [[400, 0.62], [700, 0.70], [1000, 0.74]]},
        {"label": 1, "name": "bee",
         "knots": [[400, 0.10], [600, 0.16], [750, 0.34], [1000, 0.42]]},
        {"label": 3, "name": "mite",
         "knots": [[400, 0.08], [600, 0.35], [700, 0.45], [1000, 0.30]]}],
    "background": 0, "noise_sigma": 0.01, "shadow": {"strength": 0.4}, "occlusion": "order",
    "blobs": [{"label": 1, "row": 2, "col": 3, "height": 14, "width": 10, "shape": "ellipse"},
              {"label": 3, "row": 7, "col": 6, "height": 3, "width": 3},
              {"label": 1, "row": 22, "col": 21, "height": 14, "width": 10, "shape": "ellipse"},
              {"label": 3, "row": 27, "col": 24, "height": 3, "width": 3}],
}


@pytest.fixture(scope="module")
def smoke_scene(tmp_path_factory):
    """The console-smoke scene, written by ``synth --seed 0``."""
    root = tmp_path_factory.mktemp("smoke")
    (root / "scene.json").write_text(json.dumps(SMOKE_SCENE))
    assert cli.main(["synth", "--scene", str(root / "scene.json"), "--seed", "0",
                     "--out", str(root / "scene")]) == EXIT_OK
    return root / "scene"


@pytest.mark.parametrize("command", ["fit", "apply", "select-bands", "synth"])
def test_out_naming_a_file_exits_1_naming_it(command, fitted, tmp_path, monkeypatch, caplog):
    root = fitted[0]
    applied = []  # apply fails on the path before it classifies a tile
    monkeypatch.setattr(cli, "apply_pipeline", lambda *args: applied.append(args))
    taken = tmp_path / "taken"
    taken.write_text("")
    config = write_run_config(root, tmp_path / "run.json",
                              band_selection={"method": "r2", "target_count": 4})
    (tmp_path / "scene.json").write_text(json.dumps(SMOKE_SCENE))
    argv = {
        "fit": ["fit", "--config", config],
        "apply": ["apply", "--model", str(root / "model.json"), "--cube", str(root / "cube.hdr")],
        "select-bands": ["select-bands", "--config", config],
        "synth": ["synth", "--scene", str(tmp_path / "scene.json")],
    }[command]
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(argv + ["--out", str(taken)])
    assert code == EXIT_USAGE
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0] and str(taken) in errors[0], errors
    assert taken.read_text() == "" and applied == []


@pytest.mark.parametrize("round_order, bands", [(None, [4, 10, 3, 5]), ([2, 1], [10, 4])])
def test_round_order_concatenates_covproc_rounds(round_order, bands, smoke_scene, tmp_path):
    selection = {"method": "covproc", "n_tail": 2, "round_order": round_order}
    config = write_run_config(smoke_scene, tmp_path / "run.json", band_selection=selection)
    assert cli.main(["select-bands", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "selection_report.json").read_text())
    assert [r["variables"] for r in report["rounds"]] == [[4], [10], [3], [5]]
    assert report["bands_for_model"] == bands


def test_unknown_round_in_round_order_exits_1(smoke_scene, tmp_path, caplog):
    selection = {"method": "covproc", "n_tail": 2, "round_order": [9]}
    config = write_run_config(smoke_scene, tmp_path / "run.json", band_selection=selection)
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["select-bands", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "unknown round indices [9]; have [1, 2, 3, 4]" in caplog.text
    assert not (tmp_path / "out" / "selection_report.json").exists()


@pytest.mark.parametrize("cube_data", [True, False])
def test_cube_data_names_a_payload_the_header_does_not(cube_data, smoke_scene, tmp_path, caplog):
    (tmp_path / "cube.hdr").write_bytes((smoke_scene / "cube.hdr").read_bytes())
    (tmp_path / "pixels.bin").write_bytes((smoke_scene / "cube.raw").read_bytes())
    inputs = {"cube_header": str(tmp_path / "cube.hdr"), "mask": str(smoke_scene / "mask.hdr"),
              "palette": str(smoke_scene / "palette.json")}
    if cube_data:
        inputs["cube_data"] = str(tmp_path / "pixels.bin")
    (tmp_path / "run.json").write_text(json.dumps({"inputs": inputs}))
    with caplog.at_level(logging.ERROR, logger="spectral_sift"):
        code = cli.main(["fit", "--config", str(tmp_path / "run.json"),
                         "--out", str(tmp_path / "out")])
    if cube_data:
        assert code == EXIT_OK
        assert (tmp_path / "out" / "model.json").exists()
    else:
        assert code == EXIT_USAGE
        assert f"cannot infer data file for header {tmp_path / 'cube.hdr'}" in caplog.text
