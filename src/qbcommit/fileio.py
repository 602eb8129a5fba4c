"""Reading and writing protocols, scan configs, and analysis reports.

Protocols travel as JSON with every complex entry written as an [re, im]
pair, row major. Report objects are rendered through ``jsonable`` so the
same dictionary backs the JSON output and the text rendering, and dumping is
byte deterministic (sorted keys, shortest float repr).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math

import numpy as np

from .errors import ProtocolFileError
from .families import FAMILY_REGISTRY
from .protocol import KrausFamily, ProtocolSpec


def matrix_to_pairs(mat) -> list:
    """Nested [re, im] pairs for an array of any shape."""
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _finite_numbers(values, what: str) -> list:
    """``values`` as floats, each checked to be a finite JSON number, not a bool."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ProtocolFileError(f"{what} must be JSON numbers")
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        floats = [math.inf]
    if not all(math.isfinite(v) for v in floats):
        raise ProtocolFileError(f"{what} must be finite")
    return floats


def matrix_from_pairs(data, what: str = "matrix") -> np.ndarray:
    """Complex matrix from nested [re, im] pairs; the shape is checked, and
    each entry must be a finite JSON number."""
    arr = np.asarray(data, dtype=object)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ProtocolFileError(
            f"{what}: expected a matrix of [re, im] pairs, got shape {arr.shape}"
        )
    arr = np.array(_finite_numbers(arr.ravel().tolist(), f"{what}: entries")).reshape(arr.shape)
    return arr[..., 0] + 1j * arr[..., 1]


def _family_from_json(data, what: str) -> KrausFamily:
    if not isinstance(data, list) or not data:
        raise ProtocolFileError(f"{what}: expected a nonempty list of matrices")
    ops = [matrix_from_pairs(op, f"{what}[{i}]") for i, op in enumerate(data)]
    for i, op in enumerate(ops):
        if op.shape != ops[0].shape:
            raise ProtocolFileError(
                f"{what}: operator {i} has shape {op.shape}, expected {ops[0].shape}"
            )
    return KrausFamily(ops)


def parse_protocol(data) -> ProtocolSpec:
    """Protocol from an already decoded JSON object; other keys are ignored."""
    if not isinstance(data, dict):
        raise ProtocolFileError("protocol file must hold a JSON object")
    label = data.get("label")
    if not isinstance(label, str) or not label:
        raise ProtocolFileError("protocol needs a nonempty string 'label'")
    for key in ("bit0", "bit1"):
        if key not in data:
            raise ProtocolFileError(f"protocol is missing '{key}'")
    bit0 = _family_from_json(data["bit0"], "bit0")
    bit1 = _family_from_json(data["bit1"], "bit1")
    for key, got in (("dim_in", bit0.dim_in), ("dim_out", bit0.dim_out)):
        declared = data.get(key, got)
        if type(declared) is not int:  # bool is an int subclass, and not a dimension
            raise ProtocolFileError(f"'{key}' must be an integer, got {declared!r}")
        if declared != got:
            raise ProtocolFileError(
                f"declared {key}={declared} but the operators have {key}={got}"
            )
    try:
        return ProtocolSpec(label=label, bit0=bit0, bit1=bit1)
    except ValueError as exc:
        raise ProtocolFileError(str(exc))


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ProtocolFileError(f"{path}: not valid JSON ({exc})")


def load_protocol(path) -> ProtocolSpec:
    """Protocol from a JSON file; malformed content raises ProtocolFileError."""
    data = _read_json(path)
    try:
        return parse_protocol(data)
    except ProtocolFileError as exc:
        raise ProtocolFileError(f"{path}: {exc}")


def serialize_protocol(spec: ProtocolSpec) -> dict:
    return {
        "label": spec.label,
        "dim_in": spec.dim_in,
        "dim_out": spec.dim_out,
        "bit0": matrix_to_pairs(spec.bit0.ops),
        "bit1": matrix_to_pairs(spec.bit1.ops),
    }


def write_protocol_file(path, spec: ProtocolSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(serialize_protocol(spec)))


@dataclasses.dataclass
class ScanConfig:
    """One resolved scan request: a family callable plus its parameter list."""

    family: object
    params: list
    label: str


def load_scan_config(path) -> ScanConfig:
    """Scan config from JSON: family name, parameter list, optional options;
    each parameter and option value must be a finite number."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ProtocolFileError(f"{path}: scan config must hold a JSON object")
    name = data.get("family")
    if name not in FAMILY_REGISTRY:
        known = ", ".join(sorted(FAMILY_REGISTRY))
        raise ProtocolFileError(
            f"{path}: unknown family {name!r}, known families: {known}"
        )
    params = data.get("params")
    if not isinstance(params, list) or not params:
        raise ProtocolFileError(f"{path}: 'params' must be a nonempty list")
    params = _finite_numbers(params, f"{path}: 'params' entries")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolFileError(f"{path}: 'options' must be an object")
    options = dict(zip(options, _finite_numbers(options.values(), f"{path}: 'options' values")))
    base = FAMILY_REGISTRY[name]
    try:
        inspect.signature(base).bind(params[0], **options)
    except TypeError as exc:
        raise ProtocolFileError(f"{path}: 'options' do not fit family {name!r} ({exc})")
    family = functools.partial(base, **options)
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ProtocolFileError(f"{path}: 'label' must be a string")
    return ScanConfig(family=family, params=params, label=label or f"{name}-scan")


def jsonable(obj):
    """Plain JSON-ready data from reports, arrays, and numpy scalars.

    Complex arrays and scalars become nested [re, im] pairs; real arrays
    become plain lists; dataclasses become dictionaries of their fields.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return matrix_to_pairs(obj)
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def dump_json(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
