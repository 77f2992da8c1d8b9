#!/usr/bin/env bash
# Console smoke test: synth, fit, apply and inspect a tiny scene through the
# installed spectral-sift command, for both workflows, and select bands on it
# with r2 and with covproc, with and without the clustering stop test. Run it
# with the package installed (python -m pip install .) and its environment
# active:
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
{"workflow": "kfpls", "samples_per_class": 100,
 "kf": {"iterations": 1, "subsamplings_per_iter": 4},
 "inputs": {"cube_header": "scene/cube.hdr", "mask": "scene/mask.hdr",
            "palette": "scene/palette.json"}}
JSON
# the baseline fit and apply run with no thread count set, where the CLI loads
# numpy under its own default of one OpenBLAS thread; the runs below with a
# count set must write the same bytes
for workflow in kmeans kfpls; do
  env -u OMP_NUM_THREADS -u OPENBLAS_NUM_THREADS spectral-sift fit --config $workflow.json --out $workflow
  env -u OMP_NUM_THREADS -u OPENBLAS_NUM_THREADS spectral-sift apply --model $workflow/model.json \
    --cube scene/cube.hdr --out $workflow/applied
  spectral-sift inspect --model $workflow/model.json --json > $workflow/inspect.json
  python -c "import json, sys; assert json.load(open(sys.argv[1]))['format_version'] == 5" $workflow/inspect.json
  spectral-sift inspect --model $workflow/model.json > $workflow/inspect.txt
  grep -q "^workflow: $workflow$" $workflow/inspect.txt
done
# where numpy's BLAS is OpenBLAS, a fit takes the Kernel Flows batches on a
# forked helper per further usable CPU, so the kfpls run above, with 4 batches,
# forked helpers on a runner of 2 or more CPUs; pinned to one CPU where taskset
# exists, it forks none and writes the same bytes
first_cpu=$(python -c "import os; print(min(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else '')")
if command -v taskset > /dev/null && [ -n "$first_cpu" ]; then
  taskset -c "$first_cpu" spectral-sift fit --config kfpls.json --out kfpls-cpu1 > /dev/null
  for name in model.json diagnostics.json kf_loss_trace.csv; do
    cmp kfpls/$name kfpls-cpu1/$name
  done
fi
# fit runs on one BLAS thread whatever OpenBLAS is set to, so 1 and 2 threads
# write the bytes of the run above (on macOS numpy has no OpenBLAS, and the
# variable changes nothing)
for workflow in kmeans kfpls; do
  for threads in 1 2; do
    OPENBLAS_NUM_THREADS=$threads spectral-sift fit --config $workflow.json --out $workflow-blas$threads > /dev/null
  done
  names="model.json diagnostics.json"
  if [ $workflow = kfpls ]; then names="$names kf_loss_trace.csv"; fi
  for name in $names; do
    cmp $workflow/$name $workflow-blas1/$name
    cmp $workflow/$name $workflow-blas2/$name
  done
done
# apply's tile rows do not depend on the CPU count and its workers run on one
# BLAS thread, so 1 and 2 threads, and a run pinned to one CPU where taskset
# exists, write the bytes of the unpinned run above. The kfpls model's 218
# support spectra give three 16-row tiles: unpinned on two or more CPUs,
# helper threads share them with the calling thread; pinned, the calling
# thread classifies all three alone.
for workflow in kmeans kfpls; do
  names="class_mask.raw counts.json"
  if [ $workflow = kmeans ]; then names="$names cluster_mask.raw"; fi
  runs="blas1 blas2"
  for threads in 1 2; do
    OPENBLAS_NUM_THREADS=$threads spectral-sift apply --model $workflow/model.json \
      --cube scene/cube.hdr --out $workflow/applied-blas$threads > /dev/null
  done
  if command -v taskset > /dev/null && [ -n "$first_cpu" ]; then
    taskset -c "$first_cpu" spectral-sift apply --model $workflow/model.json \
      --cube scene/cube.hdr --out $workflow/applied-cpu1 > /dev/null
    runs="$runs cpu1"
  fi
  for run in $runs; do
    for name in $names; do
      cmp $workflow/applied/$name $workflow/applied-$run/$name
    done
  done
done
# a scene whose three classes share one flat spectrum, without noise: every
# sampled spectrum is the same, so a kfpls fit is an input error, exit 1 with
# one line on stderr and no traceback, whether the lengthscale is derived from
# the pairwise distances or given
cat > flat.json <<'JSON'
{"rows": 12, "cols": 12,
 "wavelengths_nm": [400, 450, 500, 550, 600, 650, 700, 750, 800, 850, 900, 950, 1000],
 "classes": [
   {"label": 0, "name": "background", "knots": [[400, 0.5], [1000, 0.5]]},
   {"label": 1, "name": "bee", "knots": [[400, 0.5], [1000, 0.5]]},
   {"label": 3, "name": "mite", "knots": [[400, 0.5], [1000, 0.5]]}],
 "background": 0, "noise_sigma": 0, "occlusion": "order",
 "blobs": [{"label": 1, "row": 2, "col": 2, "height": 6, "width": 6},
           {"label": 3, "row": 4, "col": 4, "height": 2, "width": 2}]}
JSON
spectral-sift synth --scene flat.json --seed 0 --out flat > /dev/null
sed 's#scene/#flat/#g' kfpls.json > flat-kfpls.json
sed 's#"inputs"#"kernel": {"lengthscale": 1.0}, "inputs"#' flat-kfpls.json > flat-kfpls-ell.json
for case in "flat-kfpls:cannot derive a lengthscale: sampled spectra are identical" \
            "flat-kfpls-ell:degenerate training set: median pairwise distance is zero"; do
  config=${case%%:*}
  status=0
  spectral-sift fit --config $config.json --out $config > /dev/null 2> $config.err || status=$?
  test $status -eq 1
  test "$(wc -l < $config.err)" -eq 1
  grep -q "${case#*:}" $config.err
  if grep -q Traceback $config.err; then exit 1; fi
done
# band selection on the 13-band scene, keeping the last 2 bands out
cat > r2.json <<'JSON'
{"band_selection": {"method": "r2", "n_tail": 2, "target_count": 4},
 "inputs": {"cube_header": "scene/cube.hdr", "mask": "scene/mask.hdr",
            "palette": "scene/palette.json"}}
JSON
cat > covproc.json <<'JSON'
{"band_selection": {"method": "covproc", "n_tail": 2, "stop_by_clustering": true},
 "inputs": {"cube_header": "scene/cube.hdr", "mask": "scene/mask.hdr",
            "palette": "scene/palette.json"}}
JSON
cat > r2-stop.json <<'JSON'
{"band_selection": {"method": "r2", "n_tail": 2, "target_count": 6, "stop_by_clustering": true},
 "inputs": {"cube_header": "scene/cube.hdr", "mask": "scene/mask.hdr",
            "palette": "scene/palette.json"}}
JSON
for method in r2 covproc r2-stop; do
  spectral-sift select-bands --config $method.json --out $method > /dev/null
  python -c "import json, sys; assert json.load(open(sys.argv[1]))['bands_for_model']" $method/selection_report.json
done
# the stop test cuts r2's report to the prefix it keeps: the 3 init bands
# (init_m) and one R^2 per band added after them; fit keeps that prefix too
python - <<'PY'
import json
doc = json.load(open("r2-stop/selection_report.json"))
assert doc["selected"] == doc["bands_for_model"], doc
assert len(doc["trace"]) == len(doc["selected"]) - 3, doc
PY
# fit with either stop test keeps the selected prefix and the escalation that
# passed on it
for method in r2-stop covproc; do
  spectral-sift fit --config $method.json --out $method/fit > /dev/null
  python - $method <<'PY'
import json, sys
method = sys.argv[1]
bands = json.load(open(f"{method}/selection_report.json"))["bands_for_model"]
assert json.load(open(f"{method}/fit/model.json"))["band_subset"] == sorted(bands)
last = json.load(open(f"{method}/fit/diagnostics.json"))["escalation"][-1]
assert last["false_alarms"] == 0 and last["missed_mites"] == 0, last
PY
done
# r2 adds at least one band to its init_m: a target_count of 4 with init_m 4
# is a usage error, exit 1, and no report
sed 's#"target_count": 4#"init_m": 4, "target_count": 4#' r2.json > r2-init4.json
status=0
spectral-sift select-bands --config r2-init4.json --out r2-init4 > /dev/null 2>&1 || status=$?
test $status -eq 1
test ! -e r2-init4/selection_report.json
# with k_max 2 no band prefix passes the clustering stop test: a model-quality
# failure, exit 2, and no report
for method in covproc r2-stop; do
  sed 's#"inputs"#"cluster": {"k_max": 2}, "inputs"#' $method.json > $method-k2.json
  status=0
  spectral-sift select-bands --config $method-k2.json --out $method-k2 > /dev/null 2>&1 || status=$?
  test $status -eq 2
  test ! -e $method-k2/selection_report.json
done
# fit and apply both workflows, and select bands with r2 and with covproc,
# again from two float32 copies: BIL, the layout of a camera frame, and
# big-endian BSQ, whose row tiles are read one band at a time. Both hold the
# same values, so both give the same model, masks and selection reports.
# The scene stacked 8 times down the rows (320 x 36 px) is written in both
# layouts too: its 13 bands take two row tiles, which fit and band selection
# merge into one set of statistics.
mkdir bil bsq tall
python - <<'PY'
import numpy as np
from spectral_sift.specdata import (HyperCube, LabelMask, read_envi, read_label_mask,
                                    write_envi, write_label_mask_envi)
cube = read_envi("scene/cube.hdr")
write_envi(cube, "bil/cube.hdr", "bil/cube.raw", interleave="bil", dtype="f4")
write_envi(cube, "bsq/cube.hdr", "bsq/cube.raw", interleave="bsq", dtype="f4", byte_order=1)
tall = HyperCube(data=np.concatenate([cube.data] * 8), wavelengths_nm=cube.wavelengths_nm)
write_envi(tall, "tall/bil.hdr", "tall/bil.raw", interleave="bil", dtype="f4")
write_envi(tall, "tall/bsq.hdr", "tall/bsq.raw", interleave="bsq", dtype="f4", byte_order=1)
mask = read_label_mask("scene/mask.hdr")
write_label_mask_envi(LabelMask(labels=np.concatenate([mask.labels] * 8), palette=mask.palette),
                      "tall/mask.hdr", "tall/mask.raw")
PY
# both copies read back whole as the f8 scene cast through float32, and the
# ENVI mask reads as its PGM twin
python - <<'PY'
import numpy as np
from spectral_sift.specdata import read_envi, read_label_mask
expected = read_envi("scene/cube.hdr").data.astype("f4").astype("f8")
for copy in ("bil", "bsq"):
    assert np.array_equal(read_envi(f"{copy}/cube.hdr").data, expected), copy
assert np.array_equal(read_label_mask("scene/mask.hdr").labels,
                      read_label_mask("scene/mask.pgm").labels)
PY
for copy in bil bsq; do
  for workflow in kmeans kfpls; do
    sed "s#scene/cube.hdr#$copy/cube.hdr#" $workflow.json > $copy/$workflow.json
    spectral-sift fit --config $copy/$workflow.json --out $copy/$workflow
    spectral-sift apply --model $copy/$workflow/model.json --cube $copy/cube.hdr --out $copy/$workflow/applied
  done
  for method in r2 covproc; do
    sed "s#scene/cube.hdr#$copy/cube.hdr#" $method.json > $copy/$method.json
    spectral-sift select-bands --config $copy/$method.json --out $copy/$method > /dev/null
  done
done
for workflow in kmeans kfpls; do
  cmp bil/$workflow/model.json bsq/$workflow/model.json
  cmp bil/$workflow/applied/class_mask.raw bsq/$workflow/applied/class_mask.raw
done
for method in r2 covproc; do
  cmp bil/$method/selection_report.json bsq/$method/selection_report.json
done
for copy in bil bsq; do
  sed "s#scene/cube.hdr#tall/$copy.hdr#; s#scene/mask.hdr#tall/mask.hdr#" kmeans.json > tall/$copy-kmeans.json
  spectral-sift fit --config tall/$copy-kmeans.json --out tall/$copy-kmeans > /dev/null
  sed "s#scene/cube.hdr#tall/$copy.hdr#; s#scene/mask.hdr#tall/mask.hdr#" covproc.json > tall/$copy-covproc.json
  spectral-sift select-bands --config tall/$copy-covproc.json --out tall/$copy-covproc > /dev/null
done
cmp tall/bil-kmeans/model.json tall/bsq-kmeans/model.json
cmp tall/bil-covproc/selection_report.json tall/bsq-covproc/selection_report.json
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
