"""ENVI-compatible file I/O plus 8-bit mask files (ENVI or PGM P5).

Headers are plain-text ``key = value`` files; list values are brace-enclosed
and may span lines. Keys are matched case- and whitespace-insensitively; a
key given twice is an error, and keys this package does not read are ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cube import INTERLEAVES, HyperCube, LabelMask, check_wavelengths


class EnviFormatError(ValueError):
    """Malformed header, inconsistent payload, or unsupported encoding."""


# ENVI data type codes -> numpy dtype characters (endianness applied separately)
DATA_TYPES = {
    1: "u1",
    2: "i2",
    3: "i4",
    4: "f4",
    5: "f8",
    12: "u2",
    13: "u4",
    14: "i8",
    15: "u8",
}
_DTYPE_CODES = {v: k for k, v in DATA_TYPES.items()}


@dataclass
class EnviHeader:
    samples: int
    lines: int
    bands: int
    data_type: int
    interleave: str
    byte_order: int = 0
    header_offset: int = 0
    wavelengths_nm: np.ndarray | None = None

    def dtype(self) -> np.dtype:
        """The payload's element type as stored, byte order included."""
        return np.dtype((">" if self.byte_order == 1 else "<") + DATA_TYPES[self.data_type])

    def payload_bytes(self) -> int:
        return self.samples * self.lines * self.bands * self.dtype().itemsize


def _split_header_entries(text: str):
    """Yield (key, value) pairs, joining brace lists that span lines."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.upper() == "ENVI" or line.startswith(";"):
            continue
        if "=" not in line:
            raise EnviFormatError(f"header line without '=': {line!r}")
        key, _, value = line.partition("=")
        value = value.strip()
        if value.startswith("{"):
            while "}" not in value:
                if i >= len(lines):
                    raise EnviFormatError(f"unterminated list for header key {key.strip()!r}")
                value += " " + lines[i].strip()
                i += 1
        yield key, value


def parse_envi_header(text: str) -> EnviHeader:
    """Parse ENVI header text into a structured header."""
    raw: dict[str, str] = {}
    for key, value in _split_header_entries(text):
        norm = " ".join(key.lower().split())
        if norm in raw:
            raise EnviFormatError(f"duplicate header key {norm!r}")
        raw[norm] = value

    def take_int(name: str) -> int:
        if name not in raw:
            raise EnviFormatError(f"missing required header key {name!r}")
        value = raw.pop(name)
        try:
            return int(value)
        except ValueError as exc:
            raise EnviFormatError(f"header key {name!r} is not an integer: {value!r}") from exc

    samples = take_int("samples")
    lines = take_int("lines")
    bands = take_int("bands")
    data_type = take_int("data type")
    if min(samples, lines, bands) < 1:
        raise EnviFormatError(f"samples, lines and bands must be positive, got "
                              f"{samples}, {lines}, {bands}")
    if data_type not in DATA_TYPES:
        raise EnviFormatError(f"unsupported data type code {data_type}")

    if "interleave" not in raw:
        raise EnviFormatError("missing required header key 'interleave'")
    interleave = raw.pop("interleave").lower()
    if interleave not in INTERLEAVES:
        raise EnviFormatError(f"unknown interleave {interleave!r}")

    byte_order = take_int("byte order") if "byte order" in raw else 0
    if byte_order not in (0, 1):
        raise EnviFormatError(f"byte order must be 0 or 1, got {byte_order}")
    header_offset = take_int("header offset") if "header offset" in raw else 0

    wavelengths = None
    if "wavelength" in raw:
        body = raw.pop("wavelength").strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise EnviFormatError("wavelength value must be a brace-enclosed list")
        items = [s for s in re.split(r"[,\s]+", body[1:-1].strip()) if s]
        try:
            wavelengths = np.array([float(s) for s in items], dtype=np.float64)
        except ValueError as exc:
            raise EnviFormatError(f"non-numeric wavelength entry: {exc}") from exc
        if wavelengths.size != bands:
            raise EnviFormatError(
                f"wavelength list has {wavelengths.size} entries for {bands} bands"
            )

    return EnviHeader(
        samples=samples,
        lines=lines,
        bands=bands,
        data_type=data_type,
        interleave=interleave,
        byte_order=byte_order,
        header_offset=header_offset,
        wavelengths_nm=wavelengths,
    )


def format_envi_header(header: EnviHeader) -> str:
    out = ["ENVI"]
    out.append(f"samples = {header.samples}")
    out.append(f"lines = {header.lines}")
    out.append(f"bands = {header.bands}")
    out.append(f"header offset = {header.header_offset}")
    out.append(f"data type = {header.data_type}")
    out.append(f"interleave = {header.interleave}")
    out.append(f"byte order = {header.byte_order}")
    if header.wavelengths_nm is not None:
        body = ", ".join(repr(float(v)) for v in header.wavelengths_nm)
        out.append("wavelength = { " + body + " }")
    return "\n".join(out) + "\n"


def _check_payload_size(header: EnviHeader, data_path: Path) -> None:
    size = max(data_path.stat().st_size - header.header_offset, 0)
    if size != header.payload_bytes():
        raise EnviFormatError(
            f"payload is {size} bytes, header implies {header.payload_bytes()} "
            f"({header.samples}x{header.lines}x{header.bands}, type {header.data_type})"
        )


def _infer_data_path(header_path: Path) -> Path:
    if header_path.suffix.lower() == ".hdr":
        for suffix in (".raw", ".dat", ".img", ""):
            candidate = header_path.with_suffix(suffix)
            if candidate != header_path and candidate.exists():
                return candidate
    raise EnviFormatError(f"cannot infer data file for header {header_path}")


#: stored bytes of a cube file that :meth:`CubeFile.read_rows` reads at once
#: (at least one row), into one buffer that the call reuses for all its
#: chunks, and at most one tile's rows as stored. The size of a float64
#: tile of fit or apply (``TILE_CELLS`` cells, 1 MiB), so the payload in
#: memory is one chunk per reading thread; not much smaller: one-row chunks
#: made a kmeans apply of a 256 x 256 f4 BIL cube take 0.14 s in place of
#: 0.08 s (two workers on 2 vCPUs).
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class CubeFile:
    """An ENVI cube left in its file, and the one decoder of its payload:
    every cube read, whole (``read_envi``) or in the row tiles of ``fit``,
    ``select-bands`` and ``apply``, goes through :meth:`read_rows`.

    It holds the checked header and the payload path, and no pixel:
    :meth:`read_rows` reads the rows a caller asks for from the file and
    converts them to float64; the caller checks them for NaN/Inf. The file
    size and the wavelength list are checked when the file is opened.
    """

    header: EnviHeader
    path: Path

    @property
    def rows(self) -> int:
        return self.header.lines

    @property
    def cols(self) -> int:
        return self.header.samples

    @property
    def bands(self) -> int:
        return self.header.bands

    @property
    def wavelengths_nm(self) -> np.ndarray:
        return self.header.wavelengths_nm

    @property
    def source(self) -> str:  # what an error about the values names
        return f"payload of {self.path}"

    def read_rows(self, r0: int, columns: list[int] | None, X: np.ndarray) -> None:
        """Fill the float64 pixels × columns matrix ``X`` (every band when
        ``columns`` is None) with the rows from ``r0`` on, reading at most
        :data:`CHUNK_BYTES` of the file (at least one row) at a time into one
        buffer and converting each chunk's columns into ``X``.

        BIL and BIP chunks are whole rows; a BSQ chunk takes one read per band
        in use. A native float64 BIP payload read in every band is already the
        layout of ``X``, so it is read straight into it. The file is opened
        here, so concurrent callers share no file position. Raises
        EnviFormatError if the payload is shorter than when it was opened.
        """
        header, cols, bands = self.header, self.cols, self.bands
        rows = X.shape[0] // cols
        dtype = header.dtype()
        with open(self.path, "rb", buffering=0) as fh:  # unbuffered: reads land in the arrays

            def read(element: int, into: np.ndarray) -> None:
                """Read the stored elements from ``element`` on into ``into``."""
                fh.seek(header.header_offset + element * dtype.itemsize)
                view = memoryview(into).cast("B")
                done = 0
                while done < view.nbytes:
                    count = fh.readinto(view[done:])
                    if not count:
                        raise EnviFormatError(
                            f"payload of {self.path} ends before rows {r0}-{r0 + rows - 1}: "
                            "it is shorter than when it was opened")
                    done += count

            if header.interleave == "bip" and columns is None and dtype == np.float64:
                read(r0 * cols * bands, X)
                return
            bsq = header.interleave == "bsq"
            read_bands = len(columns) if bsq and columns is not None else bands
            step = min(rows, max(1, CHUNK_BYTES // (cols * read_bands * dtype.itemsize)))
            buffer = np.empty(step * cols * read_bands, dtype=dtype)
            for c0 in range(0, rows, step):
                n = min(step, rows - c0)
                tile = X[c0 * cols:(c0 + n) * cols]
                chunk = buffer[:n * cols * read_bands]
                if bsq:  # (band, pixel): each band's rows lie together in the file
                    chunk = chunk.reshape(read_bands, n * cols)
                    for j, band in enumerate(range(bands) if columns is None else columns):
                        read((band * self.rows + r0 + c0) * cols, chunk[j])
                    np.copyto(tile, chunk.T)
                    continue
                read((r0 + c0) * cols * bands, chunk)
                if header.interleave == "bil":  # (row, band, sample)
                    chunk = chunk.reshape(n, bands, cols)
                    if columns is not None:
                        chunk = chunk[:, columns]
                    np.copyto(tile.reshape(n, cols, -1), chunk.transpose(0, 2, 1))
                else:  # bip: (pixel, band)
                    chunk = chunk.reshape(n * cols, bands)
                    np.copyto(tile, chunk if columns is None else chunk[:, columns])


def open_envi(header_path: str | Path, data_path: str | Path | None = None) -> CubeFile:
    """Check an ENVI cube for reading in parts, reading none of its payload:
    the header, the payload size and the wavelength list, which the header
    must carry."""
    header_path = Path(header_path)
    header = parse_envi_header(header_path.read_text())
    data_path = Path(data_path) if data_path is not None else _infer_data_path(header_path)
    _check_payload_size(header, data_path)
    if header.wavelengths_nm is None:
        raise EnviFormatError(f"header {header_path} has no wavelength list")
    try:
        check_wavelengths(header.wavelengths_nm, header.bands)
    except ValueError as exc:
        raise EnviFormatError(f"header {header_path}: {exc}") from None
    return CubeFile(header=header, path=data_path)


def read_envi(header_path: str | Path, data_path: str | Path | None = None) -> HyperCube:
    """Load a whole ENVI cube into memory; the header must carry a wavelength list.

    :func:`open_envi` and one :meth:`CubeFile.read_rows` of every row, straight
    into the float64 (row, col, band) array that the :class:`HyperCube` wraps,
    so the stored payload is in memory one chunk at a time. The cube checks
    every value for NaN/Inf once, as it is built.
    """
    cube = open_envi(header_path, data_path)
    data = np.empty((cube.rows, cube.cols, cube.bands))
    cube.read_rows(0, None, data.reshape(-1, cube.bands))
    try:
        return HyperCube(data=data, wavelengths_nm=cube.wavelengths_nm)
    except ValueError as exc:  # the header is checked: only the values can fail
        raise EnviFormatError(f"payload of {cube.path}: {exc}") from None


def write_envi(
    cube: HyperCube,
    header_path: str | Path,
    data_path: str | Path,
    interleave: str = "bsq",
    dtype: str = "f4",
    byte_order: int = 0,
) -> None:
    """Write a cube as an ENVI header + raw payload pair.

    ``dtype`` is "f4" or "f8"; reading the pair back reproduces the cube
    bit-exact at that float width.
    """
    cube.validate()
    interleave = interleave.lower()
    if interleave not in INTERLEAVES:
        raise ValueError(f"unknown interleave {interleave!r}")
    if dtype not in ("f4", "f8"):
        raise ValueError(f"cube payload dtype must be 'f4' or 'f8', got {dtype!r}")
    if byte_order not in (0, 1):
        raise ValueError("byte order must be 0 or 1")

    header = EnviHeader(
        samples=cube.cols,
        lines=cube.rows,
        bands=cube.bands,
        data_type=_DTYPE_CODES[dtype],
        interleave=interleave,
        byte_order=byte_order,
        wavelengths_nm=cube.wavelengths_nm,
    )
    Path(header_path).write_text(format_envi_header(header))

    if interleave == "bsq":
        arr = cube.data.transpose(2, 0, 1)
    elif interleave == "bil":
        arr = cube.data.transpose(0, 2, 1)
    else:
        arr = cube.data
    endian = ">" if byte_order == 1 else "<"
    Path(data_path).write_bytes(np.ascontiguousarray(arr).astype(endian + dtype).tobytes())


def write_label_mask_envi(mask: LabelMask, header_path: str | Path, data_path: str | Path) -> None:
    """Write a mask as a single-band 8-bit ENVI pair."""
    header = EnviHeader(
        samples=mask.cols, lines=mask.rows, bands=1, data_type=1, interleave="bsq", byte_order=0
    )
    Path(header_path).write_text(format_envi_header(header))
    Path(data_path).write_bytes(mask.labels.astype("u1").tobytes())


def write_label_mask_pgm(mask: LabelMask, path: str | Path) -> None:
    """Write a mask as a binary PGM (P5, maxval 255)."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mask.cols} {mask.rows}\n255\n".encode("ascii"))
        fh.write(mask.labels.astype("u1").tobytes())


def _read_pgm(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if not blob.startswith(b"P5"):
        raise EnviFormatError(f"{path} is not a binary PGM (P5) file")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed, then a single whitespace byte before the raster
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise EnviFormatError(f"truncated PGM header in {path}")
        ch = blob[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            pos = blob.index(b"\n", pos) + 1
        else:
            end = pos
            while end < len(blob) and not blob[end:end + 1].isspace():
                end += 1
            tokens.append(int(blob[pos:end]))
            pos = end
    width, height, maxval = tokens
    if maxval != 255:
        raise EnviFormatError(f"PGM maxval must be 255 for 8-bit masks, got {maxval}")
    raster = blob[pos + 1:]
    if len(raster) != width * height:
        raise EnviFormatError(f"PGM raster is {len(raster)} bytes, expected {width * height}")
    return np.frombuffer(raster, dtype="u1").reshape(height, width).copy()


def read_label_mask(
    path: str | Path,
    data_path: str | Path | None = None,
    palette: dict[int, str] | None = None,
) -> LabelMask:
    """Read a mask from a PGM (P5) file or an 8-bit single-band ENVI pair.
    One band lies in row order whatever the interleave, so it is read as is."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        labels = _read_pgm(path)
    else:
        header = parse_envi_header(path.read_text())
        if header.bands != 1 or header.data_type != 1:
            raise EnviFormatError("mask ENVI files must be single-band 8-bit (data type 1)")
        data_path = Path(data_path) if data_path is not None else _infer_data_path(path)
        _check_payload_size(header, data_path)
        labels = np.fromfile(data_path, dtype="u1", offset=header.header_offset)
        labels = labels.reshape(header.lines, header.samples)
    return LabelMask(labels=labels, palette=palette or {})
