"""Batch command-line front end.

One process per command, logs on stderr, machine-readable JSON results on
stdout. Exit codes: 0 success, 1 usage or input error, 2 model-quality
failure (cluster escalation exhausted, kernel optimization degenerate).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .cluster import EscalationError
from .kernel import KfConvergenceError, save_loss_trace
from .modelio import dumps
from .pipeline import (
    EXIT_OK,
    EXIT_QUALITY,
    EXIT_USAGE,
    ConfigError,
    PipelineModel,
    RunConfig,
    fit_pipeline,
    apply_pipeline,
    inspect_model,
    run_band_selection,
    load_inputs,
    run_synth,
    write_apply_outputs,
)
from .specdata import EnviFormatError, open_envi
from .specdata import read_envi  # noqa: F401  bench/spans.py traces cli.read_envi by name

log = logging.getLogger("spectral_sift")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); 2 is reserved for quality failures
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spectral-sift", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="calibrate a pipeline from a cube + label mask")
    p_fit.add_argument("--config", required=True, help="run-configuration JSON file")
    p_fit.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_fit.add_argument("--out", default=None, help="override the config output directory")

    p_apply = sub.add_parser("apply", help="classify a new cube with a stored model")
    p_apply.add_argument("--model", required=True, help="model JSON file from 'fit'")
    p_apply.add_argument("--cube", required=True, help="ENVI header of the cube to classify")
    p_apply.add_argument("--cube-data", default=None, help="payload path if not inferable")
    p_apply.add_argument("--out", required=True, help="output directory for masks and counts")

    p_sel = sub.add_parser("select-bands", help="run wavelength selection only")
    p_sel.add_argument("--config", required=True)
    p_sel.add_argument("--seed", type=int, default=None)
    p_sel.add_argument("--out", default=None)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--scene", required=True, help="scene description JSON file")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    p_insp = sub.add_parser("inspect", help="summarize a stored model")
    p_insp.add_argument("--model", required=True)
    p_insp.add_argument("--json", action="store_true", help="emit the summary as JSON only")
    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    return config


def _emit(doc: dict) -> None:
    sys.stdout.write(dumps(doc))


def _cmd_fit(args) -> int:
    config = _load_config(args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, diagnostics = fit_pipeline(config)
    trace = diagnostics.pop("_kf_trace", None)
    if trace is not None:
        save_loss_trace(trace, out / "kf_loss_trace.csv")
    model.save(out / "model.json")
    (out / "diagnostics.json").write_text(dumps(diagnostics))
    log.info("model written to %s", out / "model.json")
    _emit({"model": str(out / "model.json"), "diagnostics": diagnostics})
    return EXIT_OK


def _cmd_apply(args) -> int:
    model = PipelineModel.load(args.model)
    result = apply_pipeline(model, open_envi(args.cube, args.cube_data))
    summary = write_apply_outputs(result, args.out)
    _emit(summary)
    return EXIT_OK


def _cmd_select_bands(args) -> int:
    config = _load_config(args)
    if config.band_selection.method == "none":
        raise ConfigError("select-bands needs band_selection.method of 'r2' or 'covproc'")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cube, mask = load_inputs(config)
    report, bands = run_band_selection(cube, mask.labels.ravel(), config)
    doc = report.to_dict()
    doc["bands_for_model"] = [int(b) for b in bands]
    doc["bands_for_model_nm"] = [float(cube.wavelengths_nm[b]) for b in bands]
    (out / "selection_report.json").write_text(dumps(doc))
    _emit(doc)
    return EXIT_OK


def _cmd_synth(args) -> int:
    summary = run_synth(args.scene, seed=args.seed, out_dir=args.out)
    _emit(summary)
    return EXIT_OK


def _cmd_inspect(args) -> int:
    model = PipelineModel.load(args.model)
    doc = inspect_model(model)
    if args.json:
        _emit(doc)
        return EXIT_OK
    lines = [f"workflow: {doc['workflow']}", f"bands: {doc['bands']}"]
    if "explained_variance_ratio" in doc:
        lines.append("explained variance:")
        for name, ratio in doc["explained_variance_ratio"].items():
            lines.append(f"  {name}: {100.0 * ratio:.3f}%")
    if "selected_components" in doc:
        lines.append("selected components: " + ", ".join(doc["selected_components"]))
    if "clusters" in doc:
        lines.append(f"clusters: k={doc['clusters']['k']}")
        for j, cls in doc["clusters"]["class_of_cluster"].items():
            lines.append(f"  cluster {j}: {cls}")
    if "kernel" in doc:
        kdoc = doc["kernel"]
        lines.append(
            f"kernel: {kdoc['family']} lengthscale={kdoc['lengthscale']:.6g} "
            f"latent_variables={kdoc['latent_variables']}"
        )
        lines.append(f"  support spectra: {kdoc['support_spectra']}, classes: {kdoc['classes']}")
    if "band_selection" in doc:
        sel = doc["band_selection"]
        nm = sel["selected_nm"]
        nm_text = "" if nm is None else " (" + ", ".join(f"{v:.2f} nm" for v in nm) + ")"
        lines.append(f"band selection [{sel['method']}]: {sel['selected']}{nm_text}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "apply": _cmd_apply,
    "select-bands": _cmd_select_bands,
    "synth": _cmd_synth,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        log.error("usage: %s", exc)
        return EXIT_USAGE
    except (EscalationError, KfConvergenceError) as exc:
        log.error("model quality failure: %s", exc)
        return EXIT_QUALITY
    except (ConfigError, EnviFormatError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
