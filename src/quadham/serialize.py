"""Deterministic JSON/CSV emitters for the command-line payloads.

Floats are rendered with fixed formats (%.12e in JSON, %.9e in CSV) so byte
output is reproducible across runs and platforms; keys are emitted sorted.
A dataclass record is emitted as the JSON object of its fields.
The JSON encoder is hand-rolled because the stdlib encoder does not let a
caller pin the float format.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import json
import math
import numbers

import numpy as np

from ._version import __version__
from .errors import NonFiniteResultError

_JSON_FLOAT = "%.12e"
_CSV_FLOAT = "%.9e"


def _float_token(value: float, fmt: str) -> str:
    if not math.isfinite(value):
        raise NonFiniteResultError(f"cannot serialise non-finite float {value!r}")
    return fmt % value


def _emit(obj, fmt: str) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, enum.Enum):
        return _emit(obj.value, fmt)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _float_token(float(obj), fmt)
    if isinstance(obj, numbers.Complex):
        z = complex(obj)
        return ('{"im": %s, "re": %s}'
                % (_float_token(z.imag, fmt), _float_token(z.real, fmt)))
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist(), fmt)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}: {_emit(obj[key], fmt)}")
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v, fmt) for v in obj) + "]"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _emit({f.name: getattr(obj, f.name)
                      for f in dataclasses.fields(obj)}, fmt)
    raise TypeError(f"cannot serialise {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    """Deterministic JSON text with a trailing newline."""
    return _emit(obj, _JSON_FLOAT) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return _csv_cell(value.value)
    if isinstance(value, str):
        if "," in value or "\n" in value or '"' in value:
            escaped = value.replace('"', '""')
            return f'"{escaped}"'
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return _float_token(float(value), _CSV_FLOAT)
    if isinstance(value, numbers.Complex):
        z = complex(value)
        im = _float_token(z.imag, _CSV_FLOAT)
        sign = "" if im.startswith("-") else "+"
        return f"{_float_token(z.real, _CSV_FLOAT)}{sign}{im}j"
    raise TypeError(f"cannot serialise {type(value).__name__} to CSV")


def dumps_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [_csv_cell(v) for v in row]
        if len(cells) != len(header):
            raise ValueError("row width does not match header")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def envelope(config: dict, results) -> dict:
    """Wrap a payload with version, echoed config, and a UTC timestamp."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {
        "version": __version__,
        "config": config,
        "timestamp": stamp,
        "results": results,
    }
