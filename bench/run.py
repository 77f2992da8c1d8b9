"""Benchmark of the spectral_sift CLI: fit, apply and band selection.

Run from the root of a checkout::

    python3 bench/run.py --workload kmeans-fit-S --seed 0 --seconds 15 --trace 0

One client, closed loop: the runner starts one CLI command at a time as a
fresh child process and waits for it, reading the child's own wall time and
peak RSS through ``os.wait4``. Commands repeat in cycles for ``--seconds``:
a run completes at least one cycle and ends at the cycle boundary nearest
to ``--seconds``, judged by the median cycle so far, so a long cycle does
not overrun the time by most of its length. On the S workloads a cycle
runs each training variant once. Every output is checked; a non-zero exit
or a failed check counts as a failed command.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs cycles
untraced and traced in turn (each traced command in its own process under
``bench/spans.py``) and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the machine and give each metric by name, unit and sample count.
The runner imports only the standard library, so that it stays small: a
child's ``ru_maxrss`` starts from the RSS of the process that spawned it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: set-up repetitions per run; setup_s is their median
SETUP_REPEATS = 3
#: available memory an apply workload needs before it starts: apply on M
#: peaks near 0.63 GB (kmeans) and 1.9 GB (kfpls) in its own process
MIN_AVAILABLE_MB = {"apply-kmeans-M": 1000, "apply-kfpls-M": 2600}
STARTUP_SAMPLES = 3

E2E_UNITS = {
    "setup_s": "s",
    "cycle_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "mite_recall": "ratio",
    "mite_precision": "ratio",
}

#: every command label, in workload order
CLI_LABELS = tuple(dict.fromkeys(label for labels in workloads.LABELS.values()
                                 for label in labels))
LAYER_UNITS = {"cli.startup_s": "s"}
for _label in CLI_LABELS:
    LAYER_UNITS[f"cli.{_label}_s"] = "s"
    LAYER_UNITS[f"cli.{_label}_rss_mb"] = "MB"
LAYER_UNITS.update(spans.LAYER_UNITS)
LAYER_UNITS["trace.overhead_frac"] = "ratio"


class StepError(RuntimeError):
    """A set-up or scoring step failed; the run cannot produce a result."""


@dataclass
class Done:
    label: str
    wall_s: float
    rss_mb: float
    problems: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(BENCH), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one child to completion; (exit code, wall s, peak RSS MB) of that child.

    Its standard output and error go to ``log/stdout.txt`` and ``log/stderr.txt``.
    """
    log.mkdir(parents=True, exist_ok=True)
    with open(log / "stdout.txt", "wb") as so, open(log / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_step(step: str, workload, log: Path, *extra: str) -> tuple[dict, float]:
    argv = [sys.executable, str(BENCH / "steps.py"), step, workload.name,
            str(workload.seed), str(workload.work), *extra]
    code, wall, _ = run_child(argv, log)
    if code != 0:
        tail = (log / "stderr.txt").read_text(errors="replace")[-2000:]
        raise StepError(f"{step} step of {workload.name} failed with exit code {code}:\n{tail}")
    return json.loads((log / "stdout.txt").read_text().splitlines()[-1]), wall


def run_command(workload, cmd, traced_spans: Path | None = None) -> Done:
    if traced_spans is None:
        argv = [sys.executable, "-m", "spectral_sift.cli", *cmd.argv]
    else:
        argv = [sys.executable, str(BENCH / "spans.py"), str(traced_spans), "--", *cmd.argv]
    code, wall, rss = run_child(argv, cmd.out)
    if code != 0:
        tail = (cmd.out / "stderr.txt").read_text(errors="replace")[-400:]
        problems = [f"{cmd.label}: exit code {code}: {tail}"]
    else:
        problems = workload.check(cmd)
    report(problems)
    return Done(cmd.label, wall, rss, problems)


def report(problems: list[str]) -> None:
    for p in problems:
        sys.stderr.write(p + "\n")


def available_mb() -> float:
    lines = Path("/proc/meminfo").read_text().splitlines()
    return int(next(ln for ln in lines if ln.startswith("MemAvailable:")).split()[1]) / 1024.0


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def another_cycle(cycles: list[float], start: float, seconds: float) -> bool:
    """True while one more cycle ends nearer to ``seconds`` than stopping now."""
    return not cycles or time.perf_counter() - start + median(cycles) / 2 < seconds


def info(name: str, value, unit: str, samples: int) -> None:
    print(json.dumps({"metric": name, "value": value, "unit": unit, "samples": samples}))


def measure(workload, seconds: float, logs: Path) -> dict:
    """Untraced cycles until the time is up, then held-out scoring; end-to-end metrics."""
    done: list[Done] = []
    cycles: list[float] = []
    start = time.perf_counter()
    while another_cycle(cycles, start, seconds):
        results = [run_command(workload, c) for c in workload.commands(len(cycles))]
        cycles.append(sum(r.wall_s for r in results))
        done += results

    try:
        scored, _ = run_step("score", workload, logs / "score")
        problems = [p for key, d in scored["heldout"].items()
                    for p in workload.compare("heldout", key, {"digest": d})]
        scorings = len(scored["heldout"])
    except StepError as exc:  # e.g. the fit it scores failed: one more failure, not a crash
        scored, problems, scorings = {"recall": 0.0, "precision": 0.0}, [str(exc)], 1
    report(problems)

    for label in workloads.LABELS[workload.name]:
        runs = [d for d in done if d.label == label]
        info(f"{label}_s", median([d.wall_s for d in runs]), "s", len(runs))
        info(f"{label}_rss_mb", max(d.rss_mb for d in runs), "MB", len(runs))
    attempted = len(done) + scorings
    failed = sum(1 for d in done if d.problems) + len(problems)
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(cycles),
        "metrics": {
            "cycle_s": median(cycles),
            "peak_rss_mb": max(d.rss_mb for d in done),
            "ok_frac": 1.0 - failed / attempted,
            "mite_recall": scored["recall"],
            "mite_precision": scored["precision"],
        },
    }


def measure_traced(workload, seconds: float, logs: Path) -> dict:
    """Untraced and traced cycles in turn; per-layer metrics, medians over cycles."""
    startups = [run_child([sys.executable, "-m", "spectral_sift.cli", "--help"],
                          logs / f"startup{i}")[1] for i in range(STARTUP_SAMPLES)]
    done: list[Done] = []
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while another_cycle([p + t for p, t in zip(plain, traced)], start, seconds):
        cycle = len(plain)
        results = [run_command(workload, c) for c in workload.commands(cycle)]
        plain.append(sum(r.wall_s for r in results))
        done += results
        merged: list[spans.Span] = []
        traced_wall = 0.0
        for c in workload.commands(cycle, tag="-traced"):
            path = c.out / "spans.json"
            r = run_command(workload, c, traced_spans=path)
            done.append(r)
            traced_wall += r.wall_s
            if path.exists():
                merged += spans.offset(spans.read_spans(path), len(merged))
        traced.append(traced_wall)
        layers.append(spans.layer_metrics(merged))

    metrics = {"cli.startup_s": median(startups)}
    for label in CLI_LABELS:
        runs = [d for d in done if d.label == label]
        metrics[f"cli.{label}_s"] = median([d.wall_s for d in runs])
        metrics[f"cli.{label}_rss_mb"] = max((d.rss_mb for d in runs), default=0.0)
    for name in spans.LAYER_UNITS:
        metrics[name] = median([m[name] for m in layers])
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    return {
        "attempted": len(done),
        "failed": sum(1 for d in done if d.problems),
        "samples": len(traced),
        "metrics": metrics,
    }


def load_reference(workload: str, seed: int) -> dict:
    """Expected outputs: those of the training variants (key ``*``, the
    same for every seed) merged with the seed's own, when it was recorded."""
    outputs = json.loads((BENCH / "reference.json").read_text())["outputs"].get(workload, {})
    reference: dict = {}
    for part in (outputs.get("*", {}), outputs.get(str(seed), {})):
        for key, labels in part.items():
            reference.setdefault(key, {}).update(labels)
    return reference


def run(name: str, seed: int, seconds: float, trace: bool, reference: dict | None = None,
        tiny: bool = False) -> tuple[dict, "workloads.Workload"]:
    """One benchmark run; returns the result object printed last, and the workload."""
    if reference is None:
        reference = load_reference(name, seed)
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    logs = run_dir / "logs"
    workload = workloads.Workload(name=name, work=run_dir / "work", seed=seed,
                                  reference=reference)
    env = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
           "mem_available_mb": round(available_mb())}
    needed = MIN_AVAILABLE_MB.get(name, 0)
    if env["mem_available_mb"] < needed:
        raise StepError(f"{name} needs {needed} MB of available memory; "
                        f"only {env['mem_available_mb']} MB is available")
    extra = ("--tiny",) if tiny else ()
    try:
        if trace:
            step_env, _ = run_step("setup", workload, logs / "setup0", *extra)
            result = measure_traced(workload, seconds, logs)
            units = LAYER_UNITS
        else:
            setups = []
            for i in range(SETUP_REPEATS):
                step_env, wall = run_step("setup", workload, logs / f"setup{i}", *extra)
                setups.append(wall)
            result = measure(workload, seconds, logs)
            result["metrics"]["setup_s"] = median(setups)
            units = E2E_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env.update(step_env)
    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                      "reference_outputs": bool(reference), "environment": env}))
    for metric, unit in units.items():
        info(metric, result["metrics"][metric], unit, result["samples"])
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": u} for m, u in units.items()},
    }, workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: run_child kills and reaps the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "spectral_sift" / "cli.py").is_file():
        sys.stderr.write(f"no spectral_sift sources under {SRC}; run from a checkout\n")
        return 1
    try:
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except StepError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
