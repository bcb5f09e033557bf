"""Deterministic JSON/CSV emitters for the command-line payloads.

Floats are rendered with fixed formats (%.12e in JSON, %.9e in CSV) so byte
output is reproducible across runs and platforms; keys are emitted sorted.
A dataclass record is emitted as the JSON object of its fields.
JSON values and CSV cells share one dispatch: a value of exact type float,
int, str, list, tuple, dict, None or bool goes straight to its token, a JSON
record to its fields; any other type (subclass, enum, numpy scalar or array,
complex, a CSV record) takes an ordered chain of isinstance checks.
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
_quote = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls


def _float_token(value: float, fmt: str) -> str:
    if not math.isfinite(value):
        raise NonFiniteResultError(f"cannot serialise non-finite float {value!r}")
    return fmt % value


def _text(s: str, csv: bool) -> str:
    if not csv:
        return _quote(s)
    bare = "," not in s and "\n" not in s and '"' not in s
    return s if bare else '"' + s.replace('"', '""') + '"'


def _emit(obj, fmt: str, csv: bool) -> str:
    """JSON text of obj, or its CSV cell when csv is set."""
    t = type(obj)
    if t is float and math.isfinite(obj):  # else the chain raises
        return fmt % obj
    if t is int:
        return str(obj)
    if t is str:
        return _text(obj, csv)
    if obj is None:
        return "" if csv else "null"
    if t is bool:
        return "true" if obj else "false"
    if not csv and dataclasses.is_dataclass(t):  # a record, before the ABCs
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif csv or (t is not list and t is not tuple and t is not dict):
        if isinstance(obj, enum.Enum):
            return _emit(obj.value, fmt, csv)
        if isinstance(obj, str):
            return _text(obj, csv)
        if isinstance(obj, numbers.Integral):
            return str(int(obj))
        if isinstance(obj, numbers.Real):
            return _float_token(float(obj), fmt)
        if isinstance(obj, numbers.Complex):
            z = complex(obj)
            im, re = _float_token(z.imag, fmt), _float_token(z.real, fmt)
            if csv:
                return f"{re}{'' if im.startswith('-') else '+'}{im}j"
            return '{"im": %s, "re": %s}' % (im, re)
        if csv:
            raise TypeError(f"cannot serialise {t.__name__} to CSV")
        if isinstance(obj, np.ndarray):
            return _emit(obj.tolist(), fmt, False)
        if not isinstance(obj, (dict, list, tuple)):
            raise TypeError(f"cannot serialise {t.__name__} to JSON")
    if not isinstance(obj, dict):
        return "[" + ", ".join([_emit(v, fmt, False) for v in obj]) + "]"
    items = []
    for key in sorted(obj):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        items.append(f"{_quote(key)}: {_emit(obj[key], fmt, False)}")
    return "{" + ", ".join(items) + "}"


def dumps_json(obj) -> str:
    """Deterministic JSON text with a trailing newline."""
    return _emit(obj, _JSON_FLOAT, False) + "\n"


def dumps_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [_emit(v, _CSV_FLOAT, True) for v in row]
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
