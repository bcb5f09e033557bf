"""The tolerance scale must be a finite, positive number wherever it is set.

An infinite scale makes every tolerance infinite, so a bounded form would
fail to pair; it is rejected up front instead.
"""

import contextvars
import json
import math
import threading

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
    assert tolerances._CONFIG_SCALE.get() == 1.0


def test_env_scale_change_takes_effect_on_the_next_call(monkeypatch):
    # each raw value is parsed once, but the variable is read on every call
    monkeypatch.setenv("QUADHAM_TOL_SCALE", "2")
    assert tolerances.pairing_tol(0.0) == 2e-9
    monkeypatch.setenv("QUADHAM_TOL_SCALE", "4")
    assert tolerances.pairing_tol(0.0) == 4e-9
    monkeypatch.delenv("QUADHAM_TOL_SCALE")
    assert tolerances.pairing_tol(0.0) == 1e-9


@pytest.mark.parametrize("raw", ["abc", "-1"])
def test_bad_env_scale_raises_on_every_call(raw, monkeypatch):
    monkeypatch.setenv("QUADHAM_TOL_SCALE", raw)
    for _ in range(2):
        with pytest.raises(ValueError, match="QUADHAM_TOL_SCALE"):
            tolerances.pairing_tol(0.0)


def _caller_scale_after_cli(argv):
    """Exit code of a CLI run and the caller's config scale after it."""
    tolerances.set_config_scale(3.0)
    code = cli.main(argv)
    return code, tolerances.tol_scale()


@pytest.mark.parametrize("payload, code", [
    ({"preset": "oscillator-b", "b": 1.0}, 0),
    ({"preset": "oscillator-b", "b": 1.0, "tol_scale": -1.0}, 2),
    ({"preset": "harmonic"}, 2),
], ids=["success", "bad-tol-scale", "unknown-preset"])
def test_cli_restores_the_callers_config_scale(payload, code, tmp_path, monkeypatch,
                                               capsys):
    # a library caller's scale survives an in-process CLI run, which itself
    # runs at the config's scale (1 by default: threshold 1.0e-08 below)
    monkeypatch.delenv("QUADHAM_TOL_SCALE", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["verify", "--config", str(path), "--n-max", "4", "--out", str(out)]
    got, after = contextvars.copy_context().run(_caller_scale_after_cli, argv)
    assert (got, after) == (code, 3.0)
    if code == 0:
        assert "threshold 1.0e-08" in out.read_text(encoding="utf-8")
    assert tolerances.tol_scale() == 1.0


def test_config_scale_is_per_thread(monkeypatch):
    monkeypatch.delenv("QUADHAM_TOL_SCALE", raising=False)
    seen = []

    def other():
        seen.append(tolerances.tol_scale())

    def body():
        tolerances.set_config_scale(5.0)
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return tolerances.tol_scale()

    assert contextvars.copy_context().run(body) == 5.0
    assert seen == [1.0]
    assert tolerances.tol_scale() == 1.0
