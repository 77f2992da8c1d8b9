"""Hyperspectral cube and label-mask data model.

A :class:`HyperCube` holds a whole cube in memory, in (row, col, band) order
as float64. Scene synthesis makes one, the ENVI writer writes one, and
``read_envi`` loads one for tests and scripts. Every cube read, whole or in
row tiles, goes through a ``read_rows``: ``read_envi`` reads every row of a
:class:`~spectral_sift.specdata.envi.CubeFile` at once; fit and band
selection read row tiles of a cube file, and apply reads them from a cube
file or from a cube in memory.
Wavelengths are band centers in nanometres and must be strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INTERLEAVES = ("bsq", "bil", "bip")

#: Reserved mask value for pixels without ground truth.
UNLABELED = 255


def check_wavelengths(wavelengths_nm: np.ndarray, bands: int) -> None:
    """Raise ValueError unless the wavelengths are a finite, strictly
    increasing vector of one entry per band."""
    if wavelengths_nm.ndim != 1 or wavelengths_nm.size != bands:
        raise ValueError(
            f"wavelengths_nm must be a vector of length bands={bands}, "
            f"got shape {wavelengths_nm.shape}"
        )
    if not np.all(np.isfinite(wavelengths_nm)):
        raise ValueError("wavelengths_nm contains NaN/Inf")
    if bands > 1 and not np.all(np.diff(wavelengths_nm) > 0):
        raise ValueError("wavelengths_nm must be strictly increasing")


@dataclass
class HyperCube:
    """3-D reflectance array plus its spectral axis, wholly in memory;
    ``read_envi`` fills one through ``CubeFile.read_rows``.

    Parameters
    ----------
    data : ndarray, shape (rows, cols, bands)
        Reflectance values (unitless). Stored as float64, finite.
    wavelengths_nm : ndarray, shape (bands,)
        Band-center wavelengths in nm, strictly increasing.
    """

    data: np.ndarray
    wavelengths_nm: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        self.wavelengths_nm = np.asarray(self.wavelengths_nm, dtype=np.float64)
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

    source = "cube data"  # what an error about the values names

    def read_rows(self, r0: int, columns: list[int] | None, X: np.ndarray) -> None:
        """Copy the rows from ``r0`` on into the float64 pixels × columns matrix
        ``X`` (every band when ``columns`` is None), as ``CubeFile.read_rows`` does."""
        tile = self.data[r0:r0 + X.shape[0] // self.cols]
        if columns is not None:
            tile = tile[:, :, columns]  # take() would first copy every band of a strided view
        np.copyto(X.reshape(tile.shape), tile)

    def validate(self) -> None:
        if self.data.ndim != 3:
            raise ValueError(f"cube data must be 3-D (rows, cols, bands), got ndim={self.data.ndim}")
        if min(self.data.shape) < 1:
            raise ValueError(f"cube dimensions must all be >= 1, got shape {self.data.shape}")
        check_wavelengths(self.wavelengths_nm, self.bands)
        # NaN propagates through min and max and Inf becomes one: no whole-cube mask
        if not (np.isfinite(np.min(self.data)) and np.isfinite(np.max(self.data))):
            raise ValueError("cube data contains NaN/Inf")


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
        # a table of the 256 uint8 ids: np.unique's first call imports numpy.ma,
        # and np.bincount would cast every label to a 64-bit count index
        seen = np.zeros(256, dtype=bool)
        seen[self.labels.ravel()] = True
        present = set(np.flatnonzero(seen).tolist()) - {UNLABELED}
        missing = present - set(self.palette)
        if self.palette and missing:
            raise ValueError(f"labels {sorted(missing)} present in mask but absent from palette")
        if UNLABELED in self.palette:
            raise ValueError(f"palette must not define the reserved unlabeled value {UNLABELED}")

    def matches(self, cube) -> bool:
        """Whether a cube (in memory or in its file) has the mask's rows and columns."""
        return (self.rows, self.cols) == (cube.rows, cube.cols)


def flatten(cube: HyperCube) -> np.ndarray:
    """The cube as a pixels-by-bands matrix, rows in row-major scan order.

    A band subset is then a column selection and a per-pixel result reshapes
    to ``(rows, cols)``, the layout of each row tile that fit and apply read.
    It is a reshape view of ``cube.data`` (no copy when the data are
    contiguous), so writing to it writes to the cube.
    """
    return cube.data.reshape(cube.rows * cube.cols, cube.bands)
