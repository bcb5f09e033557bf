import dataclasses
import enum
import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadham import (
    Classification,
    DimensionlessModel,
    FockTruncation,
    NonFiniteResultError,
    build_model,
    classify_spectrum,
    cli,
    compare_with_lattice,
    oracle_spectrum,
    phase_scan,
    serialize,
    spectrum_lattice,
)
from quadham.serialize import dumps_csv, dumps_json
from make_goldens import CASES


def osc(b):
    return build_model(DimensionlessModel(mu=1.0, k=1.0, b=b))


class TestRecords:
    def test_lattice_level(self):
        level = spectrum_lattice(classify_spectrum(osc(1.0)), 3)[3]
        as_dict = {"energy": level.energy, "degeneracy": level.degeneracy,
                   "infinite": level.infinite,
                   "states": [list(s) for s in level.states]}
        assert level.degeneracy == 2
        assert dumps_json(level) == dumps_json(as_dict)

    def test_comparison_report_nests_rows(self):
        form = osc(1.0)
        report = classify_spectrum(form)
        comp = compare_with_lattice(
            oracle_spectrum(form, FockTruncation(4, 2)),
            spectrum_lattice(report, 4), max_levels=3,
            classification=report.classification)
        rows = [{"expected_energy": r.expected_energy,
                 "observed_energy": r.observed_energy, "abs_diff": r.abs_diff,
                 "expected_degeneracy": r.expected_degeneracy,
                 "observed_degeneracy": r.observed_degeneracy}
                for r in comp.rows]
        as_dict = {"mode": comp.mode, "status": comp.status,
                   "n_compared": comp.n_compared,
                   "max_abs_diff": comp.max_abs_diff,
                   "degeneracies_agree": comp.degeneracies_agree,
                   "notes": comp.notes, "rows": rows}
        assert len(rows) == 3
        assert dumps_json(comp) == dumps_json(as_dict)

    def test_scan_sample_holds_enum(self):
        sample = phase_scan(0.0, 4.0, 5).samples[2]
        as_dict = {"b": sample.b, "classification": sample.classification.value,
                   "margin": sample.margin,
                   "ground_energy": sample.ground_energy,
                   "generators": list(sample.generators)}
        assert dumps_json(sample) == dumps_json(as_dict)
        assert '"classification": "CriticalInfiniteMultiplicity"' in \
            dumps_json(sample)

    def test_dimensionless_model(self):
        d = DimensionlessModel(mu=1.5, k=0.5, b=-0.25, energy_scale=2.0)
        as_dict = {"mu": 1.5, "k": 0.5, "b": -0.25, "energy_scale": 2.0}
        assert dumps_json(d) == dumps_json(as_dict)

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            dumps_json({"x": object()})
        with pytest.raises(TypeError):
            dumps_json(DimensionlessModel)


class TestCsvCells:
    @pytest.mark.parametrize("z", [1 + 2j, 1 - 2j, -0.5 + 0.25j,
                                   complex(3.0, -0.0), complex(-1.0, 0.0)])
    def test_complex_round_trips(self, z):
        text = dumps_csv(["z"], [(z,)])
        cell = text.splitlines()[1]
        back = complex(cell)
        assert back == z
        assert math.copysign(1.0, back.imag) == math.copysign(1.0, z.imag)


# ---- reference emitters: one ordered isinstance chain for every value -------

def _ref_float(value, fmt):
    if not math.isfinite(value):
        raise NonFiniteResultError(f"cannot serialise non-finite float {value!r}")
    return fmt % value


def _ref_emit(obj, fmt):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, enum.Enum):
        return _ref_emit(obj.value, fmt)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _ref_float(float(obj), fmt)
    if isinstance(obj, numbers.Complex):
        z = complex(obj)
        return ('{"im": %s, "re": %s}'
                % (_ref_float(z.imag, fmt), _ref_float(z.real, fmt)))
    if isinstance(obj, np.ndarray):
        return _ref_emit(obj.tolist(), fmt)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}: {_ref_emit(obj[key], fmt)}")
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_ref_emit(v, fmt) for v in obj) + "]"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _ref_emit({f.name: getattr(obj, f.name)
                          for f in dataclasses.fields(obj)}, fmt)
    raise TypeError(f"cannot serialise {type(obj).__name__} to JSON")


def _ref_csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return _ref_csv_cell(value.value)
    if isinstance(value, str):
        if "," in value or "\n" in value or '"' in value:
            escaped = value.replace('"', '""')
            return f'"{escaped}"'
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return _ref_float(float(value), "%.9e")
    if isinstance(value, numbers.Complex):
        z = complex(value)
        im = _ref_float(z.imag, "%.9e")
        sign = "" if im.startswith("-") else "+"
        return f"{_ref_float(z.real, '%.9e')}{sign}{im}j"
    raise TypeError(f"cannot serialise {type(value).__name__} to CSV")


def ref_dumps_json(obj):
    return _ref_emit(obj, "%.12e") + "\n"


def ref_dumps_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = [_ref_csv_cell(v) for v in row]
        if len(cells) != len(header):
            raise ValueError("row width does not match header")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def outcome(dumps, *args):
    """The text, or the type and message of what was raised."""
    try:
        return dumps(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# ---- differential checks against the chain ----------------------------------

class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Tagged(float):
    pass


DIFFERENTIAL = settings(derandomize=True, deadline=None, database=None,
                        max_examples=300)
_scan = phase_scan(0.0, 4.0, 5)
_form = build_model(DimensionlessModel(1.0, 1.0, 1.0))
_report = classify_spectrum(_form)
RECORDS = [
    DimensionlessModel(mu=1.5, k=0.5, b=-0.25, energy_scale=2.0),
    *_scan.samples, *_scan.transitions,
    *spectrum_lattice(_report, 3),
    compare_with_lattice(oracle_spectrum(_form, FockTruncation(4, 2)),
                         spectrum_lattice(_report, 4), max_levels=3,
                         classification=_report.classification),
]
finite = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL_TEXTS = ['', 'a,b', 'say "hi"', 'two\nlines', '""', 'Zeeman \u2013 \u03bc\u00b2',
                 '\U0001d49c', '\\', 'tab\tand\rreturn', ',"\n', '\x00\x7f']
texts = st.text() | st.sampled_from(SPECIAL_TEXTS)
scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-10**400, 10**400),
    finite, st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                             1e308, -1e308, 1.7976931348623157e308]),
    texts,
    st.sampled_from(list(Classification) + list(Level)),
    finite.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    finite.map(Tagged), st.complex_numbers(allow_nan=False, allow_infinity=False),
)
leaves = scalars | st.sampled_from(RECORDS) | st.lists(finite, max_size=6).map(
    np.array) | st.integers(0, 9).map(lambda n: np.arange(n * 2.0).reshape(n, 2))
payloads = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(texts, inner, max_size=5),
    max_leaves=30)
cells = scalars | leaves | st.lists(scalars, max_size=2)


def assert_same_json(obj):
    assert outcome(dumps_json, obj) == outcome(ref_dumps_json, obj)


def assert_same_csv(header, rows):
    assert outcome(dumps_csv, header, rows) == outcome(ref_dumps_csv, header, rows)


class TestAgainstTheIsinstanceChain:
    @DIFFERENTIAL
    @given(payloads)
    def test_json(self, obj):
        assert_same_json(obj)

    @DIFFERENTIAL
    @given(st.lists(st.lists(cells, min_size=3, max_size=3), max_size=6),
           st.lists(scalars, max_size=4))
    def test_csv(self, rows, odd_row):
        assert_same_csv(["a", "b", "c"], rows)
        assert_same_csv(["a", "b", "c"], rows + [odd_row])

    @pytest.mark.parametrize("text", SPECIAL_TEXTS)
    def test_special_text(self, text):
        assert_same_json({text: [text, Tagged(1.5)]})
        assert_same_csv(["t", "u"], [(text, text + ","), (text + "\n", '"')])

    @settings(DIFFERENTIAL, max_examples=100)
    @given(st.data(), st.sampled_from([math.nan, math.inf, -math.inf,
                                       np.float64(math.nan), Tagged(math.inf),
                                       complex(1.0, math.nan),
                                       complex(-math.inf, 2.0),
                                       complex(math.nan, -math.inf)]))
    def test_non_finite_at_any_depth(self, data, bad):
        finite_payloads = st.recursive(
            scalars, lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(texts, inner, max_size=3), max_leaves=10)
        obj = bad
        for _ in range(data.draw(st.integers(0, 4))):
            around = data.draw(st.lists(finite_payloads, max_size=3))
            at = data.draw(st.integers(0, len(around)))
            if data.draw(st.booleans()):
                obj = around[:at] + [obj] + around[at:]
            else:
                obj = {**{f"k{i}": v for i, v in enumerate(around)}, "bad": obj}
        raised = outcome(dumps_json, obj)
        assert raised[0] is NonFiniteResultError
        assert raised == outcome(ref_dumps_json, obj)
        row = data.draw(st.lists(scalars, min_size=2, max_size=2))
        row.insert(data.draw(st.integers(0, 2)), bad)
        raised = outcome(dumps_csv, ["a", "b", "c"], [row])
        assert raised[0] is NonFiniteResultError
        assert raised == outcome(ref_dumps_csv, ["a", "b", "c"], [row])

    @pytest.mark.parametrize("obj", [
        {1: 2.0}, {("a",): 1}, {Level.LOW: 1}, {None: 0}, {"a": 1, 2: 3},
        [1.0, {"x": {3.0: "y"}}],
        object(), {"x": object()}, [set()], (b"bytes",), {"x": np.bool_(True)},
        DimensionlessModel, frozenset(), Ellipsis],
        ids=lambda o: type(o).__name__)
    def test_rejections(self, obj):
        assert_same_json(obj)
        assert_same_csv(["v"], [(obj,)])
        with pytest.raises(TypeError):
            dumps_json(obj)
        with pytest.raises(TypeError):
            dumps_csv(["v"], [(obj,)])


K4_SPECTRUM = ["spectrum", "--config", "K4", "--max-quanta", "8"]


@pytest.mark.parametrize("argv", [argv for _, argv in CASES] + [K4_SPECTRUM],
                         ids=[name for name, _ in CASES] + ["spectrum_k4_q8"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_payloads_match_the_chain(argv, fmt, tmp_path, monkeypatch):
    k4 = argv is K4_SPECTRUM
    if k4:
        cfg = tmp_path / "k4.json"
        cfg.write_text(json.dumps({"preset": "random-pd", "K": 4, "seed": 3}),
                       encoding="utf-8")
        argv = [str(cfg) if a == "K4" else a for a in argv]
    seen = []
    real_json, real_csv = serialize.dumps_json, serialize.dumps_csv
    monkeypatch.setattr(serialize, "dumps_json",
                        lambda obj: seen.append((real_json, ref_dumps_json, obj))
                        or real_json(obj))
    monkeypatch.setattr(serialize, "dumps_csv",
                        lambda header, rows: seen.append(
                            (real_csv, ref_dumps_csv, header, rows))
                        or real_csv(header, rows))
    out = tmp_path / "out"
    assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
    (dumps, ref, *args), = seen
    text = dumps(*args)
    assert text == ref(*args) == out.read_text(encoding="utf-8")
    if k4 and fmt == "csv":
        assert text.count("\n") == 1 + 495  # header and one row a state
