"""ENVI-compatible file I/O plus 8-bit mask files (ENVI or PGM P5).

Headers are plain-text ``key = value`` files; list values are brace-enclosed
and may span lines. Keys are matched case- and whitespace-insensitively and
unrecognized keys are carried through verbatim so that rewritten headers do
not lose vendor fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
    extras: dict[str, str] = field(default_factory=dict)

    def itemsize(self) -> int:
        return int(np.dtype(DATA_TYPES[self.data_type]).itemsize)

    def payload_bytes(self) -> int:
        return self.samples * self.lines * self.bands * self.itemsize()


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
        extras=raw,
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
    for key, value in header.extras.items():
        out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


#: axes that turn each interleave's on-disk array into (row, col, band) order
_DISK_SHAPE = {
    "bsq": (("bands", "lines", "samples"), (1, 2, 0)),
    "bil": (("lines", "bands", "samples"), (0, 2, 1)),
    "bip": (("lines", "samples", "bands"), (0, 1, 2)),
}


def _open_payload(header: EnviHeader, data_path: Path, mapped: bool = False) -> np.ndarray:
    """The payload as a (row, col, band) view in its stored dtype, whatever the
    interleave: mapped read-only from the file when ``mapped``, else read into
    memory. The file size is checked first."""
    size = max(data_path.stat().st_size - header.header_offset, 0)
    if size != header.payload_bytes():
        raise EnviFormatError(
            f"payload is {size} bytes, header implies {header.payload_bytes()} "
            f"({header.samples}x{header.lines}x{header.bands}, type {header.data_type})"
        )
    dtype = np.dtype((">" if header.byte_order == 1 else "<") + DATA_TYPES[header.data_type])
    names, axes = _DISK_SHAPE[header.interleave]
    shape = tuple(getattr(header, name) for name in names)
    if mapped:
        disk = np.memmap(data_path, dtype=dtype, mode="r", offset=header.header_offset,
                         shape=shape)
    else:
        disk = np.fromfile(data_path, dtype=dtype, offset=header.header_offset).reshape(shape)
    return disk.transpose(axes)


def _infer_data_path(header_path: Path) -> Path:
    if header_path.suffix.lower() == ".hdr":
        for suffix in (".raw", ".dat", ".img", ""):
            candidate = header_path.with_suffix(suffix)
            if candidate != header_path and candidate.exists():
                return candidate
    raise EnviFormatError(f"cannot infer data file for header {header_path}")


@dataclass(frozen=True)
class MappedCube:
    """An ENVI cube mapped from its file, not read: what ``fit``,
    ``select-bands`` and ``apply`` read.

    ``data`` is a read-only (row, col, band) view of the payload in its stored
    dtype, so only the pages a caller touches are read, and they stay file
    cache that the operating system can reclaim. The file size and the
    wavelength list are checked when the file is opened; a reader converts
    the row tiles it uses to float64 and checks each for NaN/Inf itself. The
    file must not shrink while the view is in use.
    """

    data: np.ndarray
    wavelengths_nm: np.ndarray
    path: Path

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]


def _open_cube(header_path: str | Path, data_path: str | Path | None, mapped: bool):
    header_path = Path(header_path)
    header = parse_envi_header(header_path.read_text())
    data_path = Path(data_path) if data_path is not None else _infer_data_path(header_path)
    data = _open_payload(header, data_path, mapped)
    if header.wavelengths_nm is None:
        raise EnviFormatError(f"header {header_path} has no wavelength list")
    try:
        check_wavelengths(header.wavelengths_nm, header.bands)
    except ValueError as exc:
        raise EnviFormatError(f"header {header_path}: {exc}") from None
    return header, data, data_path


def open_envi(header_path: str | Path, data_path: str | Path | None = None) -> MappedCube:
    """Map an ENVI cube for reading in parts; the header must carry a wavelength list."""
    header, data, data_path = _open_cube(header_path, data_path, mapped=True)
    return MappedCube(data=data, wavelengths_nm=header.wavelengths_nm, path=data_path)


def read_envi(header_path: str | Path, data_path: str | Path | None = None) -> HyperCube:
    """Load a whole ENVI cube into memory; the header must carry a wavelength list.

    Values are converted to float64 and the array is put in (row, col, band)
    order whatever the on-disk interleave was; a native float64 BIP payload
    needs neither, so the array read from the file is the cube. The cube
    checks every value for NaN/Inf once, as it is built.
    """
    header, data, data_path = _open_cube(header_path, data_path, mapped=False)
    data = np.ascontiguousarray(data, dtype=np.float64)
    try:
        return HyperCube(data=data, wavelengths_nm=header.wavelengths_nm)
    except ValueError as exc:  # the header is checked: only the values can fail
        raise EnviFormatError(f"payload of {data_path}: {exc}") from None


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
    """Read a mask from a PGM (P5) file or an 8-bit single-band ENVI pair."""
    path = Path(path)
    if path.read_bytes()[:2] == b"P5":
        labels = _read_pgm(path)
    else:
        header = parse_envi_header(path.read_text())
        if header.bands != 1 or header.data_type != 1:
            raise EnviFormatError("mask ENVI files must be single-band 8-bit (data type 1)")
        data_path = Path(data_path) if data_path is not None else _infer_data_path(path)
        labels = _open_payload(header, data_path)[:, :, 0]
    return LabelMask(labels=labels, palette=palette or {})
