"""One JSON codec for every dataclass the package reads or writes.

Run configs, scene files and model files are dataclasses laid out field by
field: :func:`encode` writes each field under its name, :func:`decode`
rebuilds the dataclass from its annotations (so field defaults are the only
defaults) and rejects an unknown, missing or mistyped key with a
:class:`ConfigError` naming its dotted path. A model file (format 5) is the
encoded ``PipelineModel`` plus ``format_version``. Float arrays travel as
base64 little-endian float64 with an explicit shape, byte-for-byte
reproducible; integer and boolean arrays stay plain JSON lists, and a plain
list of numbers (a scene's wavelengths) also decodes into an array field.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import types
import typing
from pathlib import Path

import numpy as np

#: 5: no PCA singular values are stored (4 stored no kernel variance, scaling
#: epsilon or component-selection rule; 3 wrote every model dataclass field by
#: field by :func:`encode`; 2 kept per-class layouts; 1 stored kmeans
#: centroids in spectrum space)
FORMAT_VERSION = 5


class ConfigError(ValueError):
    """Invalid or unknown run-configuration, scene or model-file content."""


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(doc["shape"])


def encode(value):
    """JSON-ready form of a dataclass, array, container or scalar."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return encode_array(value) if value.dtype.kind == "f" else value.tolist()
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def dumps(value) -> str:
    """Encoded ``value`` as the package writes every JSON file: sorted keys,
    two-space indent, one trailing newline."""
    return json.dumps(encode(value), sort_keys=True, indent=2) + "\n"


def load_json(path: str | Path):
    """Parsed content of a JSON file; bad syntax is a ConfigError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def decode(tp, doc, path: str = ""):
    """Build a value of annotated type ``tp`` from its JSON form ``doc``."""
    where = path or "document"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if doc is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return decode(tp, doc, path)
    if dataclasses.is_dataclass(tp):
        if not isinstance(doc, dict):
            raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
        hints = typing.get_type_hints(tp)
        fields = {f.name: f for f in dataclasses.fields(tp) if f.init}
        for key in doc:
            if key not in fields:
                raise ConfigError(f"unknown key {path + '.' if path else ''}{key}")
        kwargs = {}
        for name, f in fields.items():
            sub = f"{path}.{name}" if path else name
            if name in doc:
                kwargs[name] = decode(hints[name], doc[name], sub)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"missing key {sub}")
        try:
            return tp(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if tp is np.ndarray and isinstance(doc, (dict, list)):
        try:
            return decode_array(doc) if isinstance(doc, dict) else np.asarray(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where} is not an array: {exc}") from exc
    if origin in (list, tuple) and isinstance(doc, list):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if fixed and len(doc) != len(args):
            raise ConfigError(f"{where} must hold {len(args)} items, got {len(doc)}")
        items = [decode(args[i] if fixed else args[0], v, f"{where}[{i}]")
                 for i, v in enumerate(doc)]
        return tuple(items) if origin is tuple else items
    if origin is dict and isinstance(doc, dict):
        key_type, value_type = args
        return {
            decode(key_type, int(k) if key_type is int and k.lstrip("-").isdigit() else k,
                   f"{where}.{k}"): decode(value_type, v, f"{where}.{k}")
            for k, v in doc.items()
        }
    if tp is float and isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return float(doc)
    if tp is int and isinstance(doc, int) and not isinstance(doc, bool):
        return doc
    if tp in (str, bool, dict) and isinstance(doc, tp):
        return doc
    raise ConfigError(f"{where} must be {getattr(tp, '__name__', tp)}, got {doc!r}")
