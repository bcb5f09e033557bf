import math

import pytest

from quadham import (
    DimensionlessModel,
    FockTruncation,
    build_model,
    classify_spectrum,
    compare_with_lattice,
    oracle_spectrum,
    phase_scan,
    spectrum_lattice,
)
from quadham.serialize import dumps_csv, dumps_json


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
