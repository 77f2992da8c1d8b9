"""Hyperspectral data model, ENVI/PGM file I/O, and synthetic scenes."""

from .cube import (
    INTERLEAVES,
    UNLABELED,
    HyperCube,
    LabelMask,
    flatten,
)
from .envi import (
    DATA_TYPES,
    EnviFormatError,
    EnviHeader,
    MappedCube,
    format_envi_header,
    open_envi,
    parse_envi_header,
    read_envi,
    read_label_mask,
    write_envi,
    write_label_mask_envi,
    write_label_mask_pgm,
)
from .synth import BlobSpec, ClassSpec, SceneSpec, ShadowSpec, synth_scene

__all__ = [
    "INTERLEAVES",
    "UNLABELED",
    "HyperCube",
    "LabelMask",
    "flatten",
    "EnviFormatError",
    "EnviHeader",
    "MappedCube",
    "DATA_TYPES",
    "parse_envi_header",
    "format_envi_header",
    "open_envi",
    "read_envi",
    "write_envi",
    "read_label_mask",
    "write_label_mask_envi",
    "write_label_mask_pgm",
    "BlobSpec",
    "ClassSpec",
    "SceneSpec",
    "ShadowSpec",
    "synth_scene",
]
