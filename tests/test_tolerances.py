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
from conftest import scaled_tolerances


@pytest.mark.parametrize("value", [math.inf, -math.inf, 1e400, math.nan, 0.0, -1.0])
def test_config_scale_must_be_finite_and_positive(value):
    with pytest.raises(ValueError):
        tolerances.set_config_scale(value)
    assert tolerances.tol_scale() == 1.0


@pytest.mark.parametrize("payload", [
    {"preset": "oscillator-b", "b": 1.0},
    {"K": 2, "gamma": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]},
], ids=["preset", "explicit-gamma"])
@pytest.mark.parametrize("raw", ["1e400", "-1", "0"])
def test_cli_reports_bad_config_scale_as_config_error(payload, raw, tmp_path,
                                                      capsys):
    # 1e400 parses to inf; a rejected scale is never installed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload)[:-1] + f', "tol_scale": {raw}}}',
                    encoding="utf-8")
    assert cli.main(["analyze", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "quadham: config error: config key 'tol_scale' must be a positive number\n")
    assert tolerances.tol_scale() == 1.0


def test_scale_change_takes_effect_on_the_next_call():
    # the scale is read on every call, and each block restores the one outside it
    with scaled_tolerances(2.0):
        assert tolerances.pairing_tol(0.0) == 2e-9
        with scaled_tolerances(4.0):
            assert tolerances.pairing_tol(0.0) == 4e-9
        assert tolerances.pairing_tol(0.0) == 2e-9
    assert tolerances.pairing_tol(0.0) == 1e-9


# each tolerance function and a sample argument (a norm or a maximum)
_TOLERANCE_ARGS = {
    "pairing_tol": (3.0,), "zero_frequency_tol": (3.0,),
    "definiteness_tol": (3.0,), "ladder_residual_tol": (3.0,),
    "offset_imag_tol": (), "machine_zero_tol": (3.0,), "cluster_tol": (3.0,),
    "lattice_merge_tol": (3.0,), "annihilation_tol": (3.0,),
    "oracle_shell_tol": (), "oracle_variational_tol": (),
}


def test_every_tolerance_function_is_listed():
    assert set(_TOLERANCE_ARGS) == {
        name for name in vars(tolerances) if name.endswith("_tol")}


@pytest.mark.parametrize("name", list(_TOLERANCE_ARGS))
def test_every_tolerance_is_multiplied_by_the_scale(name):
    fn, args = getattr(tolerances, name), _TOLERANCE_ARGS[name]
    base = fn(*args)
    assert base > 0.0
    with scaled_tolerances(8.0):
        assert fn(*args) == 8.0 * base
    assert fn(*args) == base


def test_library_scale_rescues_near_critical():
    # the library route to the scale gives the verdict that the config key
    # tol_scale gives the CLI (test_cli's test_tol_scale_rescues_near_critical)
    q = build_model(DimensionlessModel(mu=1.0, k=1.0, b=2.000001))
    assert classify_spectrum(q).classification.value == "UnboundedLattice"
    with scaled_tolerances(1e6):
        assert classify_spectrum(q).classification.value == \
            "CriticalInfiniteMultiplicity"


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
def test_cli_restores_the_callers_config_scale(payload, code, tmp_path, capsys):
    # a library caller's scale survives an in-process CLI run, which itself
    # runs at the config's scale (1 by default: threshold 1.0e-08 below)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["verify", "--config", str(path), "--n-max", "4", "--out", str(out)]
    got, after = contextvars.copy_context().run(_caller_scale_after_cli, argv)
    assert (got, after) == (code, 3.0)
    if code == 0:
        assert "threshold 1.0e-08" in out.read_text(encoding="utf-8")
    assert tolerances.tol_scale() == 1.0


def test_config_scale_is_per_thread():
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
