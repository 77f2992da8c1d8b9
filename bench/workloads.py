"""The five benchmark workloads: timed CLI commands and their output checks.

Every timed command is one ``python -m spectral_sift.cli`` process, the way
users run it. A workload's *cycle* is the list of commands timed together;
a run repeats cycles while its time lasts. Set-up and held-out scoring run
in child processes too (``steps.py``), so the runner itself stays small and
each child's peak RSS is its own, not an inheritance of the runner's.

The benchmark seed only shapes the inputs; the program's own seed stays
fixed. The training scene S comes in ``VARIANTS`` fixed noise draws, and a
cycle on S runs its commands once on each. The draws are the same for
every seed: the escalation length and the Lloyd iteration counts swing fit
time by up to a third from one noise draw to the next, which would
otherwise show as run-to-run spread. The seed draws the held-out scenes S'
and M, so quality and apply outputs do change with it.

This module imports only the standard library.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = 3
K_MAX = 12
# on a 2-vCPU x86-64 VM a KF iteration on S takes about 2.2 s (the default
# 150 would take minutes) and a 16-band r2 search about 1.5 s
KF_ITERATIONS = 2
R2_TARGET = 16
#: rtol for Kernel Flows floats against the stored reference
FLOAT_RTOL = 1e-6
#: relative alpha gap under which two covproc prefixes count as tied
NEAR_TIE_RTOL = 1e-12

#: workload -> its command labels (on S, a cycle runs them on every variant)
LABELS = {
    "kmeans-fit-S": ("fit",),
    "kfpls-fit-S": ("fit",),
    "apply-kmeans-M": ("apply_kmeans",),
    "apply-kfpls-M": ("apply_kfpls",),
    "select-bands-S": ("select_r2", "select_covproc"),
}
WORKLOADS = tuple(LABELS)
#: apply workload -> the workflow of the model it applies to M
APPLY_MODELS = {"apply-kmeans-M": "kmeans", "apply-kfpls-M": "kfpls"}


@dataclass
class Command:
    """One timed CLI invocation and where its outputs land."""

    label: str  # fit, select_r2, select_covproc, apply_kmeans, apply_kfpls
    key: str  # reference key: the variant ("v0") or the model ("kmeans")
    argv: list[str]
    out: Path


@dataclass
class Workload:
    name: str
    work: Path
    seed: int
    reference: dict = field(default_factory=dict)  # key -> label -> expected outputs
    first_seen: dict = field(default_factory=dict)  # (label, key) -> outputs of the first run

    def commands(self, cycle: int, tag: str = "") -> list[Command]:
        out = self.work / "out" / f"c{cycle}{tag}"
        if self.name in APPLY_MODELS:
            m = APPLY_MODELS[self.name]
            return [Command(f"apply_{m}", m, ["apply", "--model", str(self.work / f"{m}.json"),
                                              "--cube", str(self.work / "M" / "cube.hdr"),
                                              "--out", str(out / m)], out / m)]
        verb = "fit" if self.name.endswith("fit-S") else "select-bands"
        return [
            Command(label, f"v{v}", [verb, "--config", str(self.work / f"{label}{v}.json"),
                                     "--out", str(out / f"{label}{v}")], out / f"{label}{v}")
            for v in range(VARIANTS) for label in LABELS[self.name]
        ]

    def check(self, cmd: Command) -> list[str]:
        """Problems with a finished command's outputs; empty when correct.

        Checks the invariants of the output, then compares it with the first
        run of the same command in this run (determinism) and with the stored
        reference of the seed commit when one exists for this seed.
        """
        try:
            observed, problems = _OBSERVERS[cmd.label](cmd.out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{cmd.label}: unreadable output: {exc}"]
        return problems + self.compare(cmd.label, cmd.key, observed)

    def compare(self, label: str, key: str, observed: dict) -> list[str]:
        problems = []
        seen = self.first_seen.setdefault((label, key), observed)
        if seen is not observed and seen != observed:
            problems.append(f"{label}/{key}: output differs from the first run in this run")
        expected = self.reference.get(key, {}).get(label)
        if expected is not None and not _matches(expected, observed):
            problems.append(f"{label}/{key}: output differs from the reference: "
                            f"expected {expected}, got {observed}")
        return problems

    def recorded(self) -> dict:
        """Every output observed in this run, shaped like a reference entry."""
        doc: dict = {}
        for (label, key), observed in self.first_seen.items():
            doc.setdefault(key, {})[label] = observed
        return doc


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _matches(expected, observed) -> bool:
    """Equal, except floats, which agree to ``FLOAT_RTOL``."""
    if isinstance(expected, float) or isinstance(observed, float):
        return isinstance(observed, (int, float)) and math.isclose(
            expected, observed, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    if isinstance(expected, dict):
        return (isinstance(observed, dict) and expected.keys() == observed.keys()
                and all(_matches(expected[k], observed[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(observed, list) and len(expected) == len(observed)
                and all(_matches(e, o) for e, o in zip(expected, observed)))
    return expected == observed


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _observe_kmeans_fit(out: Path) -> tuple[dict, list[str]]:
    diag = _read_json(out / "diagnostics.json")
    escalation = [[a["k"], a["false_alarms"], a["missed_mites"]] for a in diag["escalation"]]
    problems = []
    if escalation[-1][1:] != [0, 0] or diag["final_k"] != escalation[-1][0]:
        problems.append(f"fit: escalation did not pass: {escalation}")
    if diag["final_k"] >= K_MAX:
        problems.append(f"fit: escalation reached k_max at k={diag['final_k']}")
    return {"escalation": escalation, "final_k": diag["final_k"]}, problems


def _observe_kfpls_fit(out: Path) -> tuple[dict, list[str]]:
    diag = _read_json(out / "diagnostics.json")
    rows = (out / "kf_loss_trace.csv").read_text().split()[1:]
    trace = [[float(x) for x in row.split(",")] for row in rows]
    problems = []
    if len(trace) != KF_ITERATIONS or not all(math.isfinite(x) for r in trace for x in r):
        problems.append(f"fit: Kernel Flows trace is not {KF_ITERATIONS} finite rows")
    observed = {
        "a_star": diag["latent_variables"],
        "initial_lengthscale": diag["initial_lengthscale"],
        "lengthscale": diag["kernel"]["lengthscale"],
        "trace": trace,
    }
    return observed, problems


def _observe_fit(out: Path) -> tuple[dict, list[str]]:
    if (out / "kf_loss_trace.csv").exists():
        return _observe_kfpls_fit(out)
    return _observe_kmeans_fit(out)


def _observe_select(out: Path) -> tuple[dict, list[str]]:
    report = _read_json(out / "selection_report.json")
    problems = []
    observed = {"selected": report["selected"], "bands_for_model": report["bands_for_model"]}
    if report["method"] == "r2_forward" and len(report["selected"]) != R2_TARGET:
        problems.append(f"select_r2: {len(report['selected'])} bands, expected {R2_TARGET}")
    if "rounds" in report:
        observed["near_tie"] = any(_near_tie(r["alphas"]) for r in report["rounds"])
    return observed, problems


def _near_tie(alphas: list) -> bool:
    finite = [a for a in alphas if a is not None]
    best = max(finite)
    return sum(1 for a in finite if best - a <= NEAR_TIE_RTOL * best) > 1


def _observe_apply(out: Path) -> tuple[dict, list[str]]:
    summary = _read_json(out / "counts.json")
    raw = (out / "class_mask.raw").read_bytes()
    problems = []
    if sum(summary["counts"].values()) != summary["pixels"] or len(raw) != summary["pixels"]:
        problems.append(f"apply: counts {summary['counts']} do not cover {summary['pixels']} pixels")
    return {"digest": digest(raw), "counts": summary["counts"]}, problems


_OBSERVERS = {
    "fit": _observe_fit,
    "select_r2": _observe_select,
    "select_covproc": _observe_select,
    "apply_kmeans": _observe_apply,
    "apply_kfpls": _observe_apply,
}
