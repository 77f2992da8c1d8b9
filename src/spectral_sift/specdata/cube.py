"""Hyperspectral cube and label-mask data model.

A :class:`HyperCube` holds a whole cube in memory, in (row, col, band) order
as float64, regardless of how it was laid out on disk. Wavelengths are band
centers in nanometres and must be strictly increasing. The cube is the type
of file I/O and scene synthesis; the pipeline stages take its :func:`flatten`
pixels-by-bands matrix instead. ``apply`` does not load a cube: it reads row
tiles of an :class:`~spectral_sift.specdata.envi.MappedCube`, a view of the
file in its stored dtype, and converts each tile to float64 on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INTERLEAVES = ("bsq", "bil", "bip")

#: Reserved mask value for pixels without ground truth.
UNLABELED = 255


@dataclass
class HyperCube:
    """3-D reflectance array plus its spectral axis.

    Parameters
    ----------
    data : ndarray, shape (rows, cols, bands)
        Reflectance values (unitless). Stored as float64.
    wavelengths_nm : ndarray, shape (bands,)
        Band-center wavelengths in nm, strictly increasing.
    interleave : str
        Layout used (or to be used) on disk: "bsq", "bil" or "bip".
        Purely file metadata; in-memory access is always (row, col, band).
    """

    data: np.ndarray
    wavelengths_nm: np.ndarray
    interleave: str = "bsq"

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        self.wavelengths_nm = np.asarray(self.wavelengths_nm, dtype=np.float64)
        self.interleave = str(self.interleave).lower()
        self.validate()

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    def validate(self) -> None:
        if self.data.ndim != 3:
            raise ValueError(f"cube data must be 3-D (rows, cols, bands), got ndim={self.data.ndim}")
        if min(self.data.shape) < 1:
            raise ValueError(f"cube dimensions must all be >= 1, got shape {self.data.shape}")
        if self.wavelengths_nm.ndim != 1 or self.wavelengths_nm.size != self.bands:
            raise ValueError(
                f"wavelengths_nm must be a vector of length bands={self.bands}, "
                f"got shape {self.wavelengths_nm.shape}"
            )
        if self.bands > 1 and not np.all(np.diff(self.wavelengths_nm) > 0):
            raise ValueError("wavelengths_nm must be strictly increasing")
        if not np.all(np.isfinite(self.wavelengths_nm)):
            raise ValueError("wavelengths_nm contains NaN/Inf")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("cube data contains NaN/Inf")
        if self.interleave not in INTERLEAVES:
            raise ValueError(f"unknown interleave {self.interleave!r}, expected one of {INTERLEAVES}")


@dataclass
class LabelMask:
    """Per-pixel integer class labels aligned with a cube's spatial grid.

    Label value 255 (:data:`UNLABELED`) is reserved for pixels without
    ground truth; every other label present must have a palette entry.
    """

    labels: np.ndarray
    palette: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("mask labels must be integers")
        self.labels = self.labels.astype(np.uint8)
        self.palette = {int(k): str(v) for k, v in self.palette.items()}
        self.validate()

    @property
    def rows(self) -> int:
        return self.labels.shape[0]

    @property
    def cols(self) -> int:
        return self.labels.shape[1]

    def validate(self) -> None:
        if self.labels.ndim != 2:
            raise ValueError(f"mask labels must be 2-D, got ndim={self.labels.ndim}")
        present = set(int(v) for v in np.unique(self.labels)) - {UNLABELED}
        missing = present - set(self.palette)
        if self.palette and missing:
            raise ValueError(f"labels {sorted(missing)} present in mask but absent from palette")
        if UNLABELED in self.palette:
            raise ValueError(f"palette must not define the reserved unlabeled value {UNLABELED}")

    def matches(self, cube: HyperCube) -> bool:
        return (self.rows, self.cols) == (cube.rows, cube.cols)


def flatten(cube: HyperCube) -> np.ndarray:
    """The cube as a pixels-by-bands matrix, rows in row-major scan order.

    This is the matrix every pipeline stage works on: a band subset is a
    column selection and a per-pixel result reshapes to ``(rows, cols)``.
    It is a reshape view of ``cube.data`` (no copy when the data are
    contiguous), so writing to it writes to the cube.
    """
    return cube.data.reshape(cube.rows * cube.cols, cube.bands)


def nm_to_band(cube: HyperCube, target_nm: float) -> int:
    """Index of the band whose center is nearest ``target_nm``.

    Ties break toward the lower index. Targets outside the grid by more
    than half the edge band spacing are rejected.
    """
    w = cube.wavelengths_nm
    if cube.bands == 1:
        if target_nm != w[0]:
            raise ValueError(f"target {target_nm} nm outside single-band grid at {w[0]} nm")
        return 0
    lo = w[0] - (w[1] - w[0]) / 2.0
    hi = w[-1] + (w[-1] - w[-2]) / 2.0
    if not (lo <= target_nm <= hi):
        raise ValueError(f"target {target_nm} nm outside wavelength range [{lo}, {hi}] nm")
    return int(np.argmin(np.abs(w - target_nm)))
