"""The tolerance scale must be a finite, positive number wherever it is set.

An infinite scale makes every tolerance infinite, so a bounded form would
fail to pair; it is rejected up front instead.
"""

import json
import math

import pytest

from quadham import DimensionlessModel, build_model, classify_spectrum, cli
from quadham import tolerances

OSC_B1 = build_model(DimensionlessModel(mu=1.0, k=1.0, b=1.0))


@pytest.mark.parametrize("raw", ["inf", "-inf", "1e400", "nan", "-1", "0"])
def test_env_scale_must_be_finite_and_positive(raw, monkeypatch):
    monkeypatch.setenv("QUADHAM_TOL_SCALE", raw)
    with pytest.raises(ValueError, match="QUADHAM_TOL_SCALE"):
        tolerances.tol_scale()
    with pytest.raises(ValueError, match="QUADHAM_TOL_SCALE"):
        classify_spectrum(OSC_B1)


@pytest.mark.parametrize("value", [math.inf, 1e400, math.nan, 0.0, -1.0])
def test_config_scale_must_be_finite_and_positive(value, monkeypatch):
    monkeypatch.delenv("QUADHAM_TOL_SCALE", raising=False)
    with pytest.raises(ValueError):
        tolerances.set_config_scale(value)
    assert tolerances.tol_scale() == 1.0


def test_overflowing_product_rejected(monkeypatch):
    monkeypatch.setenv("QUADHAM_TOL_SCALE", "1e300")
    tolerances.set_config_scale(1e300)
    try:
        with pytest.raises(ValueError, match="overflows"):
            tolerances.tol_scale()
    finally:
        tolerances.set_config_scale(1.0)


@pytest.mark.parametrize("payload", [
    {"preset": "oscillator-b", "b": 1.0},
    {"K": 2, "gamma": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]},
], ids=["preset", "explicit-gamma"])
@pytest.mark.parametrize("raw", ["inf", "1e400", "-1"])
def test_cli_reports_bad_env_scale_as_config_error(payload, raw, tmp_path,
                                                   monkeypatch, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.setenv("QUADHAM_TOL_SCALE", raw)
    assert cli.main(["analyze", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert tolerances._config_scale == 1.0
