#!/usr/bin/env bash
# Console smoke test: synth, fit, apply and inspect a tiny scene through the
# installed spectral-sift command, for both workflows. Run it with the package
# installed (python -m pip install .) and its environment active:
#
#     bash .github/console-smoke.sh
#
# It works in a new temporary directory and leaves the checkout as it is.
set -eo pipefail

spectral-sift --help
cd "$(mktemp -d)"
cat > scene.json <<'JSON'
{"rows": 40, "cols": 36,
 "wavelengths_nm": [400, 450, 500, 550, 600, 650, 700, 750, 800, 850, 900, 950, 1000],
 "classes": [
   {"label": 0, "name": "background", "knots": [[400, 0.62], [700, 0.70], [1000, 0.74]]},
   {"label": 1, "name": "bee", "knots": [[400, 0.10], [600, 0.16], [750, 0.34], [1000, 0.42]]},
   {"label": 3, "name": "mite", "knots": [[400, 0.08], [600, 0.35], [700, 0.45], [1000, 0.30]]}],
 "background": 0, "noise_sigma": 0.01, "shadow": {"strength": 0.4}, "occlusion": "order",
 "blobs": [{"label": 1, "row": 2, "col": 3, "height": 14, "width": 10, "shape": "ellipse"},
           {"label": 3, "row": 7, "col": 6, "height": 3, "width": 3},
           {"label": 1, "row": 22, "col": 21, "height": 14, "width": 10, "shape": "ellipse"},
           {"label": 3, "row": 27, "col": 24, "height": 3, "width": 3}]}
JSON
spectral-sift synth --scene scene.json --seed 0 --out scene
cat > kmeans.json <<'JSON'
{"inputs": {"cube_header": "scene/cube.hdr", "mask": "scene/mask.hdr",
            "palette": "scene/palette.json"}}
JSON
cat > kfpls.json <<'JSON'
{"workflow": "kfpls", "samples_per_class": 20,
 "kf": {"iterations": 1, "subsamplings_per_iter": 4},
 "inputs": {"cube_header": "scene/cube.hdr", "mask": "scene/mask.hdr",
            "palette": "scene/palette.json"}}
JSON
for workflow in kmeans kfpls; do
  spectral-sift fit --config $workflow.json --out $workflow
  spectral-sift apply --model $workflow/model.json --cube scene/cube.hdr --out $workflow/applied
  spectral-sift inspect --model $workflow/model.json --json > $workflow/inspect.json
  python -c "import json, sys; assert json.load(open(sys.argv[1]))['format_version'] == 5" $workflow/inspect.json
done
# fit and apply both workflows again from a float32 BIL copy, the layout of a
# camera frame, which fit reads mapped in row tiles
mkdir bil
python -c "from spectral_sift.specdata import read_envi, write_envi; write_envi(read_envi('scene/cube.hdr'), 'bil/cube.hdr', 'bil/cube.raw', interleave='bil', dtype='f4')"
for workflow in kmeans kfpls; do
  sed 's#scene/cube.hdr#bil/cube.hdr#' $workflow.json > bil/$workflow.json
  spectral-sift fit --config bil/$workflow.json --out bil/$workflow
  spectral-sift apply --model bil/$workflow/model.json --cube bil/cube.hdr --out bil/$workflow/applied
done
# diagnostics.json is standard JSON (no Infinity or NaN), and the KF trace has
# one row per configured iteration
python - <<'PY'
import csv, json

def refuse(name):
    raise ValueError(f"non-standard JSON constant {name} in diagnostics.json")

json.load(open("kfpls/diagnostics.json"), parse_constant=refuse)
rows = list(csv.DictReader(open("kfpls/kf_loss_trace.csv")))
assert len(rows) == 1, rows
PY
