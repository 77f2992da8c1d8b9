"""Synthetic bee scenes for the benchmark, deterministic under a seed.

Every scene has 204 bands over 400-1000 nm (the Specim IQ grid), a
background (label 0), elliptical 20x14 bees (label 1) with one 3x3 Varroa
mite (label 3) each, a multiplicative shadow ramp of 0.4 along the columns
and i.i.d. noise of sigma 0.01. Each scene has a fixed bee layout; the seed
draws its noise.

- S  (128 x 128,  6 bees): the training scene, written f8 BIP as
  ``spectral-sift synth`` writes it.
- S' (128 x 128,  6 bees, another layout): the held-out scene on which fits
  are scored. Written f8 BIP.
- M  (256 x 256, 24 bees): the held-out cube for ``apply``, written f4 BIL as
  the camera writes it (107 MB once read as f8).
- L  (512 x 512, 96 bees): the Specim IQ frame size. Recipe only, never
  rendered: kfpls ``apply`` holds several pixels x support float64 arrays at
  once (about 1.4 GB each at this size), which does not fit a 7 GB box.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from spectral_sift.specdata import (
    BlobSpec,
    ClassSpec,
    SceneSpec,
    ShadowSpec,
    synth_scene,
    write_envi,
    write_label_mask_envi,
    write_label_mask_pgm,
)

BANDS = 204
WAVELENGTHS_NM = np.linspace(400.0, 1000.0, BANDS)
BACKGROUND, BEE, MITE = 0, 1, 3
BEE_HEIGHT, BEE_WIDTH = 20, 14
MITE_SIZE = 3

# Reflectance knots (nm, reflectance). With this mite template the supervised
# escalation climbs to k = 6 on most noise draws (k_max is 12), so clustering
# does nearly all of a kmeans fit; a template closer to the bee's never passes.
CLASSES = [
    ClassSpec(BACKGROUND, "background", [(400.0, 0.62), (700.0, 0.70), (1000.0, 0.74)]),
    ClassSpec(BEE, "bee", [(400.0, 0.10), (600.0, 0.16), (750.0, 0.34), (1000.0, 0.42)]),
    ClassSpec(MITE, "mite", [(400.0, 0.08), (600.0, 0.35), (700.0, 0.45), (1000.0, 0.30)]),
]

#: size -> (rows, cols, bees)
SIZES = {"S": (128, 128, 6), "M": (256, 256, 24), "L": (512, 512, 96)}

#: scene -> its size and stream; the stream fixes the bee layout and keeps
#: the scenes' noise draws apart under one seed
SCENES = {"S": ("S", 0), "S_heldout": ("S", 1), "M": ("M", 2)}


def scene_spec(size: str, rng: np.random.Generator) -> SceneSpec:
    """Scene of the given size with bees dropped into distinct grid cells."""
    rows, cols, n_bees = SIZES[size]
    cell = 32
    cells = [(r, c) for r in range(0, rows, cell) for c in range(0, cols, cell)]
    picked = rng.choice(len(cells), size=n_bees, replace=False)
    blobs = []
    for i in sorted(int(p) for p in picked):
        r0, c0 = cells[i]
        row = r0 + int(rng.integers(1, cell - BEE_HEIGHT))
        col = c0 + int(rng.integers(1, cell - BEE_WIDTH))
        blobs.append(BlobSpec(BEE, row, col, BEE_HEIGHT, BEE_WIDTH, shape="ellipse"))
        mite_row = row + int(rng.integers(6, BEE_HEIGHT - 6 - MITE_SIZE + 1))
        mite_col = col + int(rng.integers(4, BEE_WIDTH - 4 - MITE_SIZE + 1))
        blobs.append(BlobSpec(MITE, mite_row, mite_col, MITE_SIZE, MITE_SIZE))
    return SceneSpec(
        rows=rows, cols=cols, wavelengths_nm=WAVELENGTHS_NM, classes=CLASSES,
        background=BACKGROUND, blobs=blobs, noise_sigma=0.01,
        shadow=ShadowSpec(strength=0.4, axis="col"), occlusion="order",
    )


def render(name: str, seed: int):
    """(cube, mask) for scene ``S``, ``S_heldout`` or ``M`` under ``seed``."""
    size, stream = SCENES[name]
    spec = scene_spec(size, np.random.default_rng(stream))
    return synth_scene(spec, seed=int(np.random.default_rng([seed, stream]).integers(2**32)))


def write_scene(name: str, seed: int, out_dir: Path) -> None:
    """Render one scene and write its cube, mask (ENVI and PGM) and palette."""
    cube, mask = render(name, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "M":
        write_envi(cube, out_dir / "cube.hdr", out_dir / "cube.raw", interleave="bil", dtype="f4")
    else:
        write_envi(cube, out_dir / "cube.hdr", out_dir / "cube.raw", interleave="bip", dtype="f8")
    write_label_mask_envi(mask, out_dir / "mask.hdr", out_dir / "mask.raw")
    write_label_mask_pgm(mask, out_dir / "mask.pgm")
    (out_dir / "palette.json").write_text(
        json.dumps({str(k): v for k, v in sorted(mask.palette.items())}) + "\n")
