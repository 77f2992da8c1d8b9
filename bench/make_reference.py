"""Record the current program's outputs as the benchmark's reference.

    python3 bench/make_reference.py FIRST_SEED LAST_SEED

Runs every workload once per seed (each training variant once) and
rewrites ``bench/reference.json`` whole: escalation trajectories and
final k, Kernel Flows ``a*`` and lengthscale trajectories, band lists and
class-mask digests.
``run.py`` checks later runs against it, floats to a relative tolerance of
``workloads.FLOAT_RTOL``. Re-record only when a change is meant to alter
results, and say so. Each run is one cycle; take timings with ``run.py``.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

#: outputs that depend on the seed's held-out scenes; the rest are stored once, as "*"
SEEDED = ("heldout", "apply_kmeans", "apply_kfpls")


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    path = run.BENCH / "reference.json"
    doc = {"float_rtol": workloads.FLOAT_RTOL, "outputs": {}}
    for seed in range(first, last + 1):
        for name in workloads.WORKLOADS:
            result, workload = run.run(name, seed, 0.0, trace=False, reference={})
            if not result["correct"]:
                sys.stderr.write(f"{name} seed {seed}: outputs failed their checks\n")
                return 1
            outputs = doc["outputs"].setdefault(name, {})
            for key, labels in workload.recorded().items():
                for label, observed in labels.items():
                    part = str(seed) if label in SEEDED else "*"
                    known = outputs.setdefault(part, {}).setdefault(key, {})
                    if part == "*" and known.get(label, observed) != observed:
                        sys.stderr.write(f"{name} seed {seed}: {label}/{key} differs from "
                                         "the other seeds' though its input does not\n")
                        return 1
                    known[label] = observed
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
