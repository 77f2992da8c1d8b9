"""Cube model, ENVI/PGM round-trips, flattening, and synthetic scenes."""

import tracemalloc

import numpy as np
import pytest

from spectral_sift.pipeline import _read_tile
from spectral_sift.specdata import envi
from spectral_sift.specdata import (
    BlobSpec,
    ClassSpec,
    EnviFormatError,
    HyperCube,
    EnviHeader,
    LabelMask,
    SceneSpec,
    ShadowSpec,
    flatten,
    format_envi_header,
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
        for bad in (np.nan, np.inf, -np.inf):  # Inf too, alone or beside a NaN
            data = np.zeros((2, 2, 2))
            data[1, 0, 1] = bad
            with pytest.raises(ValueError, match="NaN/Inf"):
                HyperCube(data=data, wavelengths_nm=[400.0, 500.0])
            data[0, 1, 0] = np.nan
            with pytest.raises(ValueError, match="NaN/Inf"):
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
            "some vendor field = ignored\n"
        )
        header = parse_envi_header(text)  # a key the package does not read still parses
        assert (header.samples, header.lines, header.bands) == (3, 2, 2)
        assert header.interleave == "bsq"
        np.testing.assert_allclose(header.wavelengths_nm, [400.0, 500.0])
        for repeated in ("Some  Vendor Field = again\n", "lines = 2\n"):
            with pytest.raises(EnviFormatError, match="duplicate header key"):
                parse_envi_header(text + repeated)

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
        checked = []

        def counting(name):
            reduce = getattr(np, name)

            def spy(x, *args, **kwargs):
                checked.append((name, np.size(x)))
                return reduce(x, *args, **kwargs)
            return spy

        for name in ("min", "max"):
            monkeypatch.setattr(np, name, counting(name))
        read_envi(tmp_path / "c.hdr", tmp_path / "c.raw")
        assert [name for name, size in checked if size == cube.data.size] == ["min", "max"]

    def test_memory_is_the_float64_cube_and_one_chunk(self, tmp_path, monkeypatch):
        # f4 BIL over 32 chunks: the stored payload is never in memory whole
        cube = make_cube(rows=64, cols=32, bands=64, seed=2)
        write_envi(cube, tmp_path / "c.hdr", tmp_path / "c.raw", interleave="bil", dtype="f4")
        monkeypatch.setattr(envi, "CHUNK_BYTES", cube.data.size * 4 // 32)
        tracemalloc.start()
        try:
            back = read_envi(tmp_path / "c.hdr", tmp_path / "c.raw")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.data, cube.data.astype("f4"))
        # slack: 64 KiB of small objects
        assert peak <= cube.data.nbytes + envi.CHUNK_BYTES + (1 << 16)

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
        opened = open_envi(tmp_path / "c.hdr", tmp_path / "c.raw")  # stored dtype, not float64
        assert opened.header.dtype() == np.dtype((">" if byte_order else "<") + "f4")
        tile = _read_tile(opened, 0, opened.rows, None)
        np.testing.assert_array_equal(tile.reshape(cube.data.shape), cube.data)
        np.testing.assert_array_equal(opened.wavelengths_nm, cube.wavelengths_nm)

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


class TestReadTile:
    """Row tiles read from a cube file in small chunks hold the values written."""

    class CountedReads:
        """The file object a cube file read opens, counting its ``readinto`` calls."""

        def __init__(self, fh, counts):
            self.fh, self.counts = fh, counts

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def seek(self, *args):
            return self.fh.seek(*args)

        def readinto(self, view):
            self.counts.append(len(view))
            return self.fh.readinto(view)

    @pytest.fixture
    def reads(self, monkeypatch):
        counts = []
        monkeypatch.setattr(envi, "open",
                            lambda *args, **kw: self.CountedReads(open(*args, **kw), counts),
                            raising=False)
        return counts

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    @pytest.mark.parametrize("byte_order", [0, 1])
    @pytest.mark.parametrize("columns", [None, [0, 2, 3, 6]])
    @pytest.mark.parametrize("chunk_rows", [1, 9])  # one row; more than a tile holds
    def test_tiles_equal_the_cube_read_whole(self, tmp_path, monkeypatch, reads, interleave,
                                             dtype, byte_order, columns, chunk_rows):
        cube = make_cube(rows=9, cols=5, bands=7, seed=5)
        write_envi(cube, tmp_path / "c.hdr", tmp_path / "c.raw", interleave=interleave,
                   dtype=dtype, byte_order=byte_order)
        X = flatten(cube).astype(dtype).astype(np.float64)  # the values as stored
        if columns is not None:
            X = X[:, columns]
        opened = open_envi(tmp_path / "c.hdr")
        width = X.shape[1]
        row_bytes = 5 * (width if interleave == "bsq" else 7) * int(dtype[1])
        monkeypatch.setattr(envi, "CHUNK_BYTES", chunk_rows * row_bytes + row_bytes // 2)
        out = np.full(9 * 5 * width, np.nan)
        for r0, rows in [(0, 9), (0, 4), (4, 4), (8, 4)]:  # the last tile is cut to one row
            reads.clear()
            for buffer in (None, out):
                tile = _read_tile(opened, r0, rows, columns, buffer)
                assert tile.dtype == np.float64 and tile.flags.c_contiguous
                assert tile.tobytes() == X[r0 * 5:(r0 + rows) * 5].tobytes()
            read_rows = min(rows, 9 - r0)
            # native float64 BIP is the tile's own layout: one read, straight into the tile
            direct = interleave == "bip" and columns is None and dtype == "f8" and byte_order == 0
            chunks = 1 if direct else -(-read_rows // chunk_rows)
            per_chunk = width if interleave == "bsq" else 1
            assert len(reads) == 2 * chunks * per_chunk

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_payload_shrunk_after_open_is_an_error(self, tmp_path, interleave):
        cube = make_cube(rows=8, cols=5, bands=7, seed=1)
        write_envi(cube, tmp_path / "c.hdr", tmp_path / "c.raw", interleave=interleave)
        opened = open_envi(tmp_path / "c.hdr")
        with open(tmp_path / "c.raw", "r+b") as fh:
            fh.truncate(fh.seek(0, 2) // 2)
        with pytest.raises(EnviFormatError, match=r"c\.raw ends before rows 2-7"):
            _read_tile(opened, 2, 6, None)


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

    @pytest.mark.parametrize("interleave", ["bil", "bip"])
    def test_envi_mask_any_interleave_after_a_header_offset(self, tmp_path, interleave):
        labels = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_label_mask_envi(LabelMask(labels=labels), tmp_path / "bsq.hdr",
                              tmp_path / "bsq.raw")
        header = EnviHeader(samples=4, lines=3, bands=1, data_type=1, interleave=interleave,
                            header_offset=16)
        (tmp_path / "m.hdr").write_text(format_envi_header(header))
        (tmp_path / "m.raw").write_bytes(b"\xff" * 16 + labels.tobytes())
        back = read_label_mask(tmp_path / "m.hdr", tmp_path / "m.raw")
        np.testing.assert_array_equal(back.labels, read_label_mask(tmp_path / "bsq.hdr").labels)

    def test_truncated_envi_mask_rejected(self, tmp_path):
        mask = LabelMask(labels=np.zeros((3, 4), dtype=np.uint8))
        write_label_mask_envi(mask, tmp_path / "m.hdr", tmp_path / "m.raw")
        (tmp_path / "m.raw").write_bytes(bytes(11))
        with pytest.raises(EnviFormatError, match="11 bytes, header implies 12"):
            read_label_mask(tmp_path / "m.hdr", tmp_path / "m.raw")

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
