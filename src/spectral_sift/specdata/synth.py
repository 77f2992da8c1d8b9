"""Synthetic scene generator for desk-scale testing.

Scenes are built from per-class spectral templates (piecewise-linear over
wavelength), rectangular or elliptical blobs placed on a background class,
i.i.d. Gaussian pixel noise, and an optional multiplicative shadow ramp.
Generation is fully deterministic under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..modelio import decode, load_json
from .cube import UNLABELED, HyperCube, LabelMask


@dataclass
class ClassSpec:
    """One material class: mask label, display name, spectral template knots."""

    label: int
    name: str
    knots: list[tuple[float, float]]  # (wavelength nm, reflectance), >= 1 knot

    def template(self, wavelengths_nm: np.ndarray) -> np.ndarray:
        xs = np.array([k[0] for k in self.knots], dtype=np.float64)
        ys = np.array([k[1] for k in self.knots], dtype=np.float64)
        order = np.argsort(xs)
        return np.interp(wavelengths_nm, xs[order], ys[order])


@dataclass
class BlobSpec:
    """Axis-aligned blob; "rect" fills the box, "ellipse" the inscribed ellipse."""

    label: int
    row: int
    col: int
    height: int
    width: int
    shape: str = "rect"


@dataclass
class ShadowSpec:
    """Multiplicative linear ramp: factor 1.0 at coordinate 0 down to 1 - strength."""

    strength: float
    axis: str = "col"


@dataclass
class SceneSpec:
    rows: int
    cols: int
    wavelengths_nm: np.ndarray
    classes: list[ClassSpec]
    background: int
    blobs: list[BlobSpec] = field(default_factory=list)
    noise_sigma: float = 0.0
    shadow: ShadowSpec | None = None
    gain: float = 1.0
    occlusion: str = "error"  # "error" rejects cross-class overlap, "order" paints later over earlier

    def __post_init__(self) -> None:
        self.wavelengths_nm = np.asarray(self.wavelengths_nm, dtype=np.float64)
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate class labels in scene")
        if UNLABELED in labels:
            raise ValueError(f"class label {UNLABELED} is reserved for unlabeled pixels")
        if self.background not in labels:
            raise ValueError(f"background label {self.background} has no class definition")
        if self.occlusion not in ("error", "order"):
            raise ValueError("occlusion must be 'error' or 'order'")
        known = set(labels)
        for blob in self.blobs:
            if blob.label not in known:
                raise ValueError(f"blob references undefined class label {blob.label}")
            if blob.shape not in ("rect", "ellipse"):
                raise ValueError(f"unknown blob shape {blob.shape!r}")

    @property
    def palette(self) -> dict[int, str]:
        return {c.label: c.name for c in self.classes}

    @classmethod
    def from_json(cls, path: str | Path) -> "SceneSpec":
        """Scene from a JSON file laid out field for field like this class."""
        return decode(cls, load_json(path))


def _blob_mask(spec: SceneSpec, blob: BlobSpec) -> np.ndarray:
    rr = np.arange(spec.rows)[:, None]
    cc = np.arange(spec.cols)[None, :]
    if blob.shape == "rect":
        return (rr >= blob.row) & (rr < blob.row + blob.height) & \
               (cc >= blob.col) & (cc < blob.col + blob.width)
    # ellipse inscribed in the bounding box
    cy = blob.row + (blob.height - 1) / 2.0
    cx = blob.col + (blob.width - 1) / 2.0
    ry = max(blob.height / 2.0, 0.5)
    rx = max(blob.width / 2.0, 0.5)
    return ((rr - cy) / ry) ** 2 + ((cc - cx) / rx) ** 2 <= 1.0


def synth_scene(spec: SceneSpec, seed: int = 0) -> tuple[HyperCube, LabelMask]:
    """Render a scene to a cube and its ground-truth mask.

    Per pixel: spectrum = template(class) * gain * shadow(row, col) + noise,
    noise ~ N(0, noise_sigma) i.i.d. per (pixel, band).
    """
    labels = np.full((spec.rows, spec.cols), spec.background, dtype=np.uint8)
    for blob in spec.blobs:
        inside = _blob_mask(spec, blob)
        if spec.occlusion == "error":
            clash = inside & (labels != spec.background) & (labels != blob.label)
            if np.any(clash):
                raise ValueError(
                    f"blob with label {blob.label} overlaps another class; "
                    "set occlusion='order' to allow painting over"
                )
        labels[inside] = blob.label

    templates = {c.label: c.template(spec.wavelengths_nm) for c in spec.classes}
    data = np.empty((spec.rows, spec.cols, spec.wavelengths_nm.size), dtype=np.float64)
    for label, template in templates.items():
        data[labels == label] = template

    factor = np.full((spec.rows, spec.cols), spec.gain, dtype=np.float64)
    if spec.shadow is not None:
        if spec.shadow.axis == "row":
            ramp = np.linspace(1.0, 1.0 - spec.shadow.strength, spec.rows)[:, None]
        elif spec.shadow.axis == "col":
            ramp = np.linspace(1.0, 1.0 - spec.shadow.strength, spec.cols)[None, :]
        else:
            raise ValueError(f"unknown shadow axis {spec.shadow.axis!r}")
        factor = factor * ramp
    data *= factor[:, :, None]

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        data += rng.normal(0.0, spec.noise_sigma, size=data.shape)

    cube = HyperCube(data=data, wavelengths_nm=spec.wavelengths_nm)
    mask = LabelMask(labels=labels, palette=spec.palette)
    return cube, mask
