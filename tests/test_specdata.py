"""Cube model, ENVI/PGM round-trips, flattening, and synthetic scenes."""

import numpy as np
import pytest

from spectral_sift.specdata import (
    BlobSpec,
    ClassSpec,
    EnviFormatError,
    HyperCube,
    LabelMask,
    SceneSpec,
    ShadowSpec,
    flatten,
    open_envi,
    parse_envi_header,
    read_envi,
    read_label_mask,
    synth_scene,
    write_envi,
    write_label_mask_envi,
    write_label_mask_pgm,
)


def make_cube(rows=4, cols=5, bands=6, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(rows, cols, bands))
    wl = np.linspace(400.0, 1000.0, bands)
    return HyperCube(data=data, wavelengths_nm=wl)


class TestHyperCube:
    def test_valid_construction(self):
        cube = make_cube()
        assert (cube.rows, cube.cols, cube.bands) == (4, 5, 6)
        assert cube.data.dtype == np.float64

    def test_rejects_non_increasing_wavelengths(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            HyperCube(data=np.zeros((2, 2, 3)), wavelengths_nm=[500.0, 500.0, 600.0])

    def test_rejects_nan(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            HyperCube(data=data, wavelengths_nm=[400.0, 500.0])

    def test_rejects_wrong_wavelength_count(self):
        with pytest.raises(ValueError, match="length bands"):
            HyperCube(data=np.zeros((2, 2, 3)), wavelengths_nm=[400.0, 500.0])


class TestEnviHeader:
    def test_parse_tolerates_case_and_whitespace(self):
        text = (
            "ENVI\n"
            "Samples   =  3\n"
            "LINES = 2\n"
            "bands = 2\n"
            "Data Type = 4\n"
            "INTERLEAVE = BSQ\n"
            "byte order = 0\n"
            "wavelength = { 400.0,\n  500.0 }\n"
            "some vendor field = kept verbatim\n"
        )
        header = parse_envi_header(text)
        assert (header.samples, header.lines, header.bands) == (3, 2, 2)
        assert header.interleave == "bsq"
        assert header.extras["some vendor field"] == "kept verbatim"
        np.testing.assert_allclose(header.wavelengths_nm, [400.0, 500.0])

    def test_parse_rejects_garbage_line(self):
        with pytest.raises(EnviFormatError, match="without '='"):
            parse_envi_header("samples = 2\nthis is not a header line\n")

    def test_parse_rejects_unsupported_data_type(self):
        text = "samples = 1\nlines = 1\nbands = 1\ndata type = 6\ninterleave = bsq\n"
        with pytest.raises(EnviFormatError, match="unsupported data type"):
            parse_envi_header(text)

    def test_parse_rejects_empty_dimensions(self):
        text = "samples = 4\nlines = 0\nbands = 2\ndata type = 4\ninterleave = bil\n"
        with pytest.raises(EnviFormatError, match="must be positive"):
            parse_envi_header(text)

    def test_parse_rejects_missing_required_key(self):
        with pytest.raises(EnviFormatError, match="missing required"):
            parse_envi_header("samples = 2\nlines = 2\ndata type = 4\ninterleave = bsq\n")


class TestReadWriteEnvi:
    def test_forced_size_arithmetic(self, tmp_path):
        # 2x2x3 float32 bsq: exactly 48 payload bytes
        header = (
            "ENVI\nsamples = 2\nlines = 2\nbands = 3\ndata type = 4\n"
            "interleave = bsq\nbyte order = 0\nwavelength = {400, 500, 600}\n"
        )
        (tmp_path / "toy.hdr").write_text(header)
        payload = np.arange(12, dtype="<f4").tobytes()
        assert len(payload) == 48
        (tmp_path / "toy.raw").write_bytes(payload)
        cube = read_envi(tmp_path / "toy.hdr", tmp_path / "toy.raw")
        assert (cube.rows, cube.cols, cube.bands) == (2, 2, 3)
        # bsq: band-major on disk
        np.testing.assert_allclose(cube.data[:, :, 0], [[0, 1], [2, 3]])
        np.testing.assert_allclose(cube.data[:, :, 2], [[8, 9], [10, 11]])

    def test_payload_size_mismatch(self, tmp_path):
        header = (
            "samples = 2\nlines = 2\nbands = 3\ndata type = 4\n"
            "interleave = bsq\nwavelength = {400, 500, 600}\n"
        )
        (tmp_path / "bad.hdr").write_text(header)
        (tmp_path / "bad.raw").write_bytes(b"\x00" * 47)
        for reader in (read_envi, open_envi):
            with pytest.raises(EnviFormatError, match="47 bytes"):
                reader(tmp_path / "bad.hdr", tmp_path / "bad.raw")

    def test_nan_payload_rejected(self, tmp_path):
        header = (
            "samples = 1\nlines = 1\nbands = 1\ndata type = 4\n"
            "interleave = bsq\nwavelength = {400}\n"
        )
        (tmp_path / "nan.hdr").write_text(header)
        (tmp_path / "nan.raw").write_bytes(np.array([np.nan], dtype="<f4").tobytes())
        with pytest.raises(EnviFormatError, match="NaN") as caught:
            read_envi(tmp_path / "nan.hdr", tmp_path / "nan.raw")
        assert str(tmp_path / "nan.raw") in str(caught.value)

    def test_values_checked_once_per_read(self, tmp_path, monkeypatch):
        cube = make_cube(rows=6, cols=7, bands=5)
        write_envi(cube, tmp_path / "c.hdr", tmp_path / "c.raw", dtype="f8")
        isfinite, checked = np.isfinite, []

        def counting(x, *args, **kwargs):
            checked.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        read_envi(tmp_path / "c.hdr", tmp_path / "c.raw")
        assert checked.count(cube.data.size) == 1

    @pytest.mark.parametrize("wavelengths", ["{400, 400, 600}", "{600, 500, 400}", "{400, nan, 600}"])
    def test_bad_wavelength_list_rejected_naming_the_header(self, tmp_path, wavelengths):
        header = ("samples = 1\nlines = 1\nbands = 3\ndata type = 4\n"
                  f"interleave = bsq\nwavelength = {wavelengths}\n")
        (tmp_path / "w.hdr").write_text(header)
        (tmp_path / "w.raw").write_bytes(np.zeros(3, dtype="<f4").tobytes())
        for reader in (read_envi, open_envi):
            with pytest.raises(EnviFormatError, match="wavelengths_nm"):
                reader(tmp_path / "w.hdr", tmp_path / "w.raw")

    def test_specim_iq_shape(self, tmp_path):
        # 512x512 px, 204 bands over 400-1000 nm, float32, ENVI compatible
        wl = np.linspace(400.0, 1000.0, 204)
        header = (
            "ENVI\nsamples = 512\nlines = 512\nbands = 204\ndata type = 4\n"
            "interleave = bil\nbyte order = 0\n"
            "wavelength = {" + ", ".join(f"{v:.6f}" for v in wl) + "}\n"
        )
        (tmp_path / "iq.hdr").write_text(header)
        np.zeros(512 * 512 * 204, dtype="<f4").tofile(tmp_path / "iq.raw")
        cube = read_envi(tmp_path / "iq.hdr", tmp_path / "iq.raw")
        assert (cube.rows, cube.cols, cube.bands) == (512, 512, 204)
        assert cube.wavelengths_nm.size == 204
        np.testing.assert_allclose(cube.wavelengths_nm, wl, atol=1e-5)

    def test_tiny_roundtrip(self, tmp_path):
        cube = HyperCube(data=np.full((1, 1, 1), 0.5), wavelengths_nm=[550.0])
        write_envi(cube, tmp_path / "t.hdr", tmp_path / "t.raw")
        back = read_envi(tmp_path / "t.hdr", tmp_path / "t.raw")
        assert back.data[0, 0, 0] == 0.5

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("byte_order", [0, 1])
    def test_roundtrip_all_layouts(self, tmp_path, interleave, byte_order):
        rng = np.random.default_rng(7)
        # float32-representable values so the f4 round-trip is bit exact
        data = rng.uniform(0, 1, size=(4, 5, 6)).astype("f4").astype("f8")
        cube = HyperCube(data=data, wavelengths_nm=np.linspace(400, 900, 6))
        write_envi(cube, tmp_path / "c.hdr", tmp_path / "c.raw",
                   interleave=interleave, byte_order=byte_order)
        back = read_envi(tmp_path / "c.hdr", tmp_path / "c.raw")
        np.testing.assert_array_equal(back.data, cube.data)
        np.testing.assert_array_equal(back.wavelengths_nm, cube.wavelengths_nm)
        mapped = open_envi(tmp_path / "c.hdr", tmp_path / "c.raw")  # stored dtype, not float64
        assert mapped.data.dtype == np.dtype((">" if byte_order else "<") + "f4")
        np.testing.assert_array_equal(mapped.data, cube.data)
        np.testing.assert_array_equal(mapped.wavelengths_nm, cube.wavelengths_nm)

    def test_interleaves_agree_elementwise(self, tmp_path):
        cube = make_cube(seed=3)
        cubes = {}
        for il in ("bsq", "bil", "bip"):
            write_envi(cube, tmp_path / f"{il}.hdr", tmp_path / f"{il}.raw",
                       interleave=il, dtype="f8")
            cubes[il] = read_envi(tmp_path / f"{il}.hdr", tmp_path / f"{il}.raw")
        np.testing.assert_array_equal(cubes["bsq"].data, cubes["bil"].data)
        np.testing.assert_array_equal(cubes["bil"].data, cubes["bip"].data)
        np.testing.assert_array_equal(cubes["bsq"].data, cube.data)

    def test_float64_roundtrip_bit_exact(self, tmp_path):
        cube = make_cube(seed=11)
        write_envi(cube, tmp_path / "d.hdr", tmp_path / "d.raw", dtype="f8")
        back = read_envi(tmp_path / "d.hdr", tmp_path / "d.raw")
        np.testing.assert_array_equal(back.data, cube.data)

    def test_invalid_cube_rejected_before_write(self, tmp_path):
        cube = make_cube()
        cube.wavelengths_nm = cube.wavelengths_nm[::-1].copy()  # mutate behind the validator
        with pytest.raises(ValueError, match="strictly increasing"):
            write_envi(cube, tmp_path / "x.hdr", tmp_path / "x.raw")
        assert not (tmp_path / "x.raw").exists()


class TestMaskIO:
    def test_pgm_roundtrip(self, tmp_path):
        labels = np.array([[0, 1, 255], [3, 3, 0]], dtype=np.uint8)
        mask = LabelMask(labels=labels, palette={0: "background", 1: "bee", 3: "mite"})
        write_label_mask_pgm(mask, tmp_path / "m.pgm")
        back = read_label_mask(tmp_path / "m.pgm", palette=mask.palette)
        np.testing.assert_array_equal(back.labels, labels)

    def test_envi_mask_roundtrip(self, tmp_path):
        labels = np.arange(12, dtype=np.uint8).reshape(3, 4)
        mask = LabelMask(labels=labels, palette={int(v): f"c{v}" for v in labels.ravel()})
        write_label_mask_envi(mask, tmp_path / "m.hdr", tmp_path / "m.raw")
        back = read_label_mask(tmp_path / "m.hdr", tmp_path / "m.raw", palette=mask.palette)
        np.testing.assert_array_equal(back.labels, labels)

    def test_palette_invariant(self):
        with pytest.raises(ValueError, match="absent from palette"):
            LabelMask(labels=np.array([[0, 7]]), palette={0: "background"})
        # unlabeled never needs a palette entry
        LabelMask(labels=np.array([[0, 255]]), palette={0: "background"})


class TestFlatten:
    def test_scan_order(self):
        cube = HyperCube(
            data=np.arange(12, dtype=float).reshape(2, 2, 3),
            wavelengths_nm=[400.0, 500.0, 600.0],
        )
        X = flatten(cube)
        assert X.shape == (4, 3)
        for i, (row, col) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            np.testing.assert_array_equal(X[i], cube.data[row, col])
        assert np.shares_memory(X, cube.data)


def simple_scene(noise=0.0, shadow=None, blobs=None, occlusion="error"):
    classes = [
        ClassSpec(label=0, name="background", knots=[(400.0, 0.8), (1000.0, 0.9)]),
        ClassSpec(label=1, name="bee", knots=[(400.0, 0.2), (700.0, 0.5), (1000.0, 0.3)]),
        ClassSpec(label=3, name="mite", knots=[(400.0, 0.1), (700.0, 0.2), (1000.0, 0.6)]),
    ]
    return SceneSpec(
        rows=8, cols=8, wavelengths_nm=np.linspace(400, 1000, 12), classes=classes,
        background=0, blobs=blobs or [], noise_sigma=noise, shadow=shadow,
        occlusion=occlusion,
    )


class TestSynthScene:
    def test_zero_noise_equals_template(self):
        spec = simple_scene()
        cube, mask = synth_scene(spec, seed=1)
        template = spec.classes[0].template(spec.wavelengths_nm)
        assert np.all(mask.labels == 0)
        np.testing.assert_allclose(
            cube.data, np.broadcast_to(template, cube.data.shape)
        )

    def test_disjoint_templates_separate_classes(self):
        spec = simple_scene(blobs=[BlobSpec(label=1, row=0, col=0, height=4, width=4),
                                   BlobSpec(label=3, row=4, col=4, height=4, width=4)])
        cube, mask = synth_scene(spec, seed=1)
        X = cube.data.reshape(-1, cube.bands)
        labels = mask.labels.ravel()
        bee = X[labels == 1]
        mite = X[labels == 3]
        dists = np.linalg.norm(bee[:, None, :] - mite[None, :, :], axis=2)
        assert np.min(dists) > 0

    def test_seeded_determinism(self):
        spec = simple_scene(noise=0.01)
        cube1, _ = synth_scene(spec, seed=123)
        cube2, _ = synth_scene(spec, seed=123)
        np.testing.assert_array_equal(cube1.data, cube2.data)
        cube3, _ = synth_scene(spec, seed=124)
        assert not np.array_equal(cube1.data, cube3.data)

    def test_overlap_rejected_without_order(self):
        blobs = [BlobSpec(label=1, row=0, col=0, height=4, width=4),
                 BlobSpec(label=3, row=2, col=2, height=4, width=4)]
        with pytest.raises(ValueError, match="overlaps"):
            synth_scene(simple_scene(blobs=blobs), seed=0)
        _, mask = synth_scene(simple_scene(blobs=blobs, occlusion="order"), seed=0)
        assert mask.labels[3, 3] == 3  # later blob painted on top

    def test_shadow_ramp(self):
        spec = simple_scene(shadow=ShadowSpec(strength=0.5, axis="col"))
        cube, _ = synth_scene(spec, seed=0)
        template = spec.classes[0].template(spec.wavelengths_nm)
        np.testing.assert_allclose(cube.data[0, 0], template)
        np.testing.assert_allclose(cube.data[0, -1], 0.5 * template)

    def test_ellipse_blob_inside_box(self):
        spec = simple_scene(blobs=[BlobSpec(label=3, row=1, col=1, height=5, width=5,
                                            shape="ellipse")])
        _, mask = synth_scene(spec, seed=0)
        assert mask.labels[3, 3] == 3  # center
        assert mask.labels[1, 1] == 0  # box corner stays background
