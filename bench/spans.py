"""In-memory spans around the public functions of each ``spectral_sift`` module.

Nothing under ``src/`` changes: a :class:`Tracer` replaces module attributes
with timing wrappers and puts the originals back on :meth:`Tracer.restore`.
Each function is wrapped where its caller looks it up. ``wavesel`` does
``from .pls import fit_simpls``, so the wrapped name is
``spectral_sift.wavesel.fit_simpls``; the cluster escalation calls
``kmeans_fit``, ``kmeanspp_init`` and ``lloyd_iterations`` through the
``cluster`` module globals, and ``kernel`` calls its own ``cdist`` import.

A span is ``(id, name, parent, start, end, rss_rise_mb, error, info)``,
where ``rss_rise_mb`` is the rise of the process's ``ru_maxrss`` high-water
mark across the call and ``info`` holds a count the wrapper computed
(the escalation ``k``, the cells of a distance matrix, columns handed to
clustering). Spans stay in memory and are written out when the traced
command ends.

Run as a script, it traces one CLI command in a fresh process::

    python bench/spans.py SPANS.json -- fit --config run.json
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

#: (module, attribute, span name, how to read ``info`` from args/result)
WRAPPED = [
    ("spectral_sift.cli", "read_envi", "specdata.read_envi", None),
    ("spectral_sift.pipeline", "read_envi", "specdata.read_envi", None),
    ("spectral_sift.pipeline", "flatten", "specdata.flatten", None),
    ("spectral_sift.pipeline", "write_label_mask_envi", "specdata.write_masks", None),
    ("spectral_sift.pipeline", "write_label_mask_pgm", "specdata.write_masks", None),
    ("spectral_sift.preprocess", "fit_scale", "preprocess.fit_scale", None),
    ("spectral_sift.preprocess", "apply_scale", "preprocess.apply_scale", None),
    ("spectral_sift.pca", "fit_pca", "pca.fit_pca", None),
    ("spectral_sift.pca", "project", "pca.project", None),
    ("spectral_sift.pca", "reconstruct", "pca.reconstruct", "result_cols"),
    ("spectral_sift.cluster", "fit_supervised", "cluster.fit_supervised", None),
    ("spectral_sift.cluster", "kmeans_fit", "cluster.kmeans_fit", "k"),
    ("spectral_sift.cluster", "kmeanspp_init", "cluster.kmeanspp_init", None),
    ("spectral_sift.cluster", "lloyd_iterations", "cluster.lloyd", None),
    ("spectral_sift.cluster", "assign", "cluster.assign", None),
    ("spectral_sift.kernel", "kf_optimize", "kernel.kf_optimize", None),
    ("spectral_sift.kernel", "draw_kf_batches", "kernel.draw_kf_batches", None),
    ("spectral_sift.kernel", "kf_loss", "kernel.kf_loss", None),
    ("spectral_sift.kernel", "fit_kernel_pls", "kernel.fit_kernel_pls", None),
    ("spectral_sift.kernel", "kernel_matrix", "kernel.kernel_matrix", None),
    ("spectral_sift.kernel", "cdist", "kernel.cdist", "cells"),
    ("spectral_sift.kernel", "predict_indicators", "kernel.predict_indicators", None),
    ("spectral_sift.kernel", "classify", "kernel.classify", None),
    ("spectral_sift.wavesel", "fit_simpls", "pls.fit_simpls", None),
    ("spectral_sift.wavesel", "r2_forward_select", "wavesel.r2_forward_select", "skips"),
    ("spectral_sift.wavesel", "covproc_select", "wavesel.covproc_select", None),
    ("spectral_sift.cli", "fit_pipeline", "pipeline.fit_pipeline", None),
    ("spectral_sift.cli", "apply_pipeline", "pipeline.apply_pipeline", None),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    rss_rise_mb: float = 0.0
    error: str | None = None
    info: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _info(kind: str | None, args: tuple, result) -> int | None:
    if kind == "k":
        return int(args[1])
    if kind == "cells":
        return int(len(args[0]) * len(args[1]))
    if kind == "result_cols":
        return int(result.shape[1])
    return None


class Tracer:
    """Records spans around wrapped module attributes until restored."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        span.rss_rise_mb = _maxrss_mb()  # start value until close()
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = time.perf_counter()
        span.rss_rise_mb = _maxrss_mb() - span.rss_rise_mb
        span.error = None if error is None else type(error).__name__
        self._stack.pop()

    def _wrapper(self, fn, name: str, kind: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                if kind == "skips":  # r2_forward_select warns once per band it skips
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    span.info = sum("skipped" in str(w.message) for w in caught)
                else:
                    result = fn(*args, **kwargs)
                    span.info = _info(kind, args, result)
            except BaseException as exc:
                self.close(span, exc)
                raise
            self.close(span)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, kind in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # a renamed function fails the traced run
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, kind))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_seconds(spans: list[Span], span: Span) -> float:
    """Span duration minus the part of it that its direct children cover."""
    children = sorted((s.start, s.end) for s in spans if s.parent == span.id)
    covered, cursor = 0.0, span.start
    for start, end in children:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.seconds - covered


def _kf_iterations(spans: list[Span], opt: Span) -> list[float]:
    """One interval per Kernel Flows iteration, from one batch draw to the
    next; the last ends with the last loss evaluation before the a-grid fits."""
    draws = [s for s in spans if s.parent == opt.id and s.name == "kernel.draw_kf_batches"]
    losses = [s for s in spans if s.parent == opt.id and s.name == "kernel.kf_loss"]
    out = []
    for i, draw in enumerate(draws):
        limit = draws[i + 1].start if i + 1 < len(draws) else opt.end
        ends = [s.end for s in losses if draw.start <= s.start < limit]
        if ends:
            out.append(max(ends) - draw.start)
    return out


#: per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "specdata.read_envi_s": "s",
    "specdata.read_envi_rss_mb": "MB",
    "specdata.flatten_s": "s",
    "specdata.write_masks_s": "s",
    "preprocess.fit_scale_s": "s",
    "preprocess.apply_scale_s": "s",
    "pca.fit_pca_s": "s",
    "pca.reconstruct_s": "s",
    "pca.reconstruct_cols": "count",
    "pca.project_s": "s",
    "cluster.fit_supervised_s": "s",
    "cluster.fit_supervised_calls": "count",
    "cluster.attempts": "count",
    "cluster.final_k": "count",
    "cluster.kmeans_fit_s": "s",
    "cluster.kmeanspp_init_s": "s",
    "cluster.lloyd_s": "s",
    "cluster.useful_frac": "ratio",
    "cluster.assign_s": "s",
    "kernel.kf_optimize_s": "s",
    "kernel.kf_iter_s": "s",
    "kernel.kf_iterations": "count",
    "kernel.kf_loss_calls": "count",
    "kernel.fit_kernel_pls_calls": "count",
    "kernel.fit_kernel_pls_s": "s",
    "kernel.degenerate_retries": "count",
    "kernel.cdist_calls": "count",
    "kernel.cdist_s": "s",
    "kernel.cdist_cells": "count",
    "kernel.kernel_matrix_s": "s",
    "kernel.predict_indicators_s": "s",
    "kernel.classify_rss_mb": "MB",
    "pls.fit_simpls_calls": "count",
    "pls.fit_simpls_s": "s",
    "wavesel.r2_forward_select_s": "s",
    "wavesel.covproc_select_s": "s",
    "wavesel.degenerate_skips": "count",
    "pipeline.fit_pipeline_self_s": "s",
    "pipeline.apply_pipeline_self_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over every traced command of one cycle.

    Times are summed over calls; ``*_rss_mb`` is the largest rise of the
    RSS high-water mark across one call; ``cluster.final_k`` is the largest
    final k of a passing escalation; ``kernel.kf_iter_s`` is the median
    iteration time.
    """
    def total(name: str) -> float:  # no wrapped function calls itself
        return sum(s.seconds for s in spans if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def rss(name: str) -> float:
        return max((s.rss_rise_mb for s in spans if s.name == name), default=0.0)

    m: dict[str, float] = {
        "specdata.read_envi_s": total("specdata.read_envi"),
        "specdata.read_envi_rss_mb": rss("specdata.read_envi"),
        "specdata.flatten_s": total("specdata.flatten"),
        "specdata.write_masks_s": total("specdata.write_masks"),
        "preprocess.fit_scale_s": total("preprocess.fit_scale"),
        "preprocess.apply_scale_s": total("preprocess.apply_scale"),
        "pca.fit_pca_s": total("pca.fit_pca"),
        "pca.reconstruct_s": total("pca.reconstruct"),
        "pca.reconstruct_cols": max((s.info or 0 for s in spans if s.name == "pca.reconstruct"),
                                    default=0),
        "pca.project_s": total("pca.project"),
        "cluster.fit_supervised_s": total("cluster.fit_supervised"),
        "cluster.fit_supervised_calls": calls("cluster.fit_supervised"),
        "cluster.attempts": calls("cluster.kmeans_fit"),
        "cluster.kmeans_fit_s": total("cluster.kmeans_fit"),
        "cluster.kmeanspp_init_s": total("cluster.kmeanspp_init"),
        "cluster.lloyd_s": total("cluster.lloyd"),
        "cluster.assign_s": total("cluster.assign"),
        "kernel.kf_optimize_s": total("kernel.kf_optimize"),
        "kernel.kf_loss_calls": calls("kernel.kf_loss"),
        "kernel.fit_kernel_pls_calls": calls("kernel.fit_kernel_pls"),
        "kernel.fit_kernel_pls_s": total("kernel.fit_kernel_pls"),
        "kernel.degenerate_retries": sum(1 for s in spans if s.name == "kernel.fit_kernel_pls"
                                         and s.error == "DegenerateDataError"),
        "kernel.cdist_calls": calls("kernel.cdist"),
        "kernel.cdist_s": total("kernel.cdist"),
        "kernel.cdist_cells": sum(s.info or 0 for s in spans if s.name == "kernel.cdist"),
        "kernel.kernel_matrix_s": total("kernel.kernel_matrix"),
        "kernel.predict_indicators_s": total("kernel.predict_indicators"),
        "kernel.classify_rss_mb": rss("kernel.classify"),
        "pls.fit_simpls_calls": calls("pls.fit_simpls"),
        "pls.fit_simpls_s": total("pls.fit_simpls"),
        "wavesel.r2_forward_select_s": total("wavesel.r2_forward_select"),
        "wavesel.covproc_select_s": total("wavesel.covproc_select"),
        "wavesel.degenerate_skips": sum(s.info or 0 for s in spans
                                        if s.name == "wavesel.r2_forward_select"),
        "pipeline.fit_pipeline_self_s": sum(self_seconds(spans, s) for s in spans
                                            if s.name == "pipeline.fit_pipeline"),
        "pipeline.apply_pipeline_self_s": sum(self_seconds(spans, s) for s in spans
                                              if s.name == "pipeline.apply_pipeline"),
    }

    # escalation: the last kmeans_fit of a passing fit_supervised is the useful one
    final_k, useful = 0, 0.0
    for fs in (s for s in spans if s.name == "cluster.fit_supervised"):
        tries = [s for s in spans if s.parent == fs.id and s.name == "cluster.kmeans_fit"]
        if fs.error is None and tries:
            final_k = max(final_k, tries[-1].info or 0)
            useful += tries[-1].seconds
    m["cluster.final_k"] = final_k
    kmeans_total = m["cluster.kmeans_fit_s"]
    m["cluster.useful_frac"] = useful / kmeans_total if kmeans_total > 0 else 0.0

    iters = [t for opt in spans if opt.name == "kernel.kf_optimize"
             for t in _kf_iterations(spans, opt)]
    m["kernel.kf_iterations"] = len(iters)
    m["kernel.kf_iter_s"] = statistics.median(iters) if iters else 0.0
    return {name: float(m[name]) for name in LAYER_UNITS}


def offset(spans: list[Span], n: int) -> list[Span]:
    """Shift span ids by ``n``, to merge spans written by several processes."""
    for s in spans:
        s.id += n
        s.parent = None if s.parent is None else s.parent + n
    return spans


def write_spans(spans: list[Span], path: Path) -> None:
    path.write_text(json.dumps([asdict(s) for s in spans]) + "\n")


def read_spans(path: Path) -> list[Span]:
    return [Span(**doc) for doc in json.loads(path.read_text())]


def main(argv: list[str]) -> int:
    """``spans.py SPANS.json -- <cli args>``: run one traced CLI command."""
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write("usage: spans.py SPANS.json -- <spectral-sift arguments>\n")
        return 1
    from spectral_sift import cli

    tracer = Tracer()
    tracer.install()
    span = tracer.open("cli." + argv[2])
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.close(span)
        tracer.restore()
        write_spans(tracer.spans, Path(argv[0]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
