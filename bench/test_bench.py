"""Tests of the benchmark itself; they take seconds.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_what_the_runner_emits():
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == run.E2E_UNITS
    assert _units("per_layer") == run.LAYER_UNITS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result, _ = run.run(name, seed=3, seconds=0.0, trace=trace, reference={}, tiny=True)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = _units("per_layer" if trace else "end_to_end")
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_tiny_run_checks_outputs_against_a_reference():
    _, workload = run.run("kmeans-fit-S", seed=4, seconds=0.0, trace=False, reference={},
                          tiny=True)
    recorded = workload.recorded()
    assert set(recorded) == {f"v{v}" for v in range(workloads.VARIANTS)}
    result, _ = run.run("kmeans-fit-S", seed=4, seconds=0.0, trace=False,
                        reference=recorded, tiny=True)
    assert result["correct"]
    recorded["v1"]["fit"]["final_k"] += 1
    result, _ = run.run("kmeans-fit-S", seed=4, seconds=0.0, trace=False,
                        reference=recorded, tiny=True)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_tracer_restores_every_wrapped_attribute():
    import importlib

    modules = {name: importlib.import_module(name) for name, *_ in spans.WRAPPED}
    before = {(m, a): getattr(modules[m], a) for m, a, *_ in spans.WRAPPED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(modules[m], a) is not fn for (m, a), fn in before.items())
        from spectral_sift import cluster
        import numpy as np

        X = np.random.default_rng(0).normal(size=(40, 3))
        cluster.kmeans_fit(X, 3, seed=1)
    finally:
        tracer.restore()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())
    names = [s.name for s in tracer.spans]
    assert names == ["cluster.kmeans_fit", "cluster.kmeanspp_init", "cluster.lloyd"]
    assert tracer.spans[1].parent == tracer.spans[0].id
    assert tracer.spans[0].info == 3


def test_self_time_subtracts_the_union_of_children():
    s = [spans.Span(0, "root", None, 0.0, 10.0), spans.Span(1, "a", 0, 1.0, 4.0),
         spans.Span(2, "b", 0, 3.0, 5.0), spans.Span(3, "c", 1, 1.5, 2.0)]
    assert spans.self_seconds(s, s[0]) == pytest.approx(6.0)
    assert spans.self_seconds(s, s[1]) == pytest.approx(2.5)


def test_floats_match_to_the_stated_tolerance():
    assert workloads._matches({"x": [1.0, 2]}, {"x": [1.0 + 1e-9, 2]})
    assert not workloads._matches({"x": [1.0, 2]}, {"x": [1.0 + 1e-3, 2]})
    assert not workloads._matches({"x": [1.0, 2]}, {"x": [1.0, 3]})
