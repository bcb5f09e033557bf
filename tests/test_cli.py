import json
import math
import pathlib
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import quadham
from quadham import cli, models, serialize, spectral
from make_goldens import CASES, DATA, GOLDEN, golden_form, stable_text

OSC_B1 = str(DATA / "osc_b1.json")
# the b = 2 model in the symplectically squeezed variables diag(1.2, 1, 1/1.2, 1)
_S = np.diag([1.2, 1.0, 1 / 1.2, 1.0])
SQUEEZED_B2 = (_S @ quadham.build_model(quadham.DimensionlessModel(1.0, 1.0, 2.0)).gamma
               @ _S).tolist()


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(list(args) + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return code, text


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestGoldenOutputs:
    @pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
    def test_matches_stored_output(self, name, argv, tmp_path):
        code, text = run_cli(argv, tmp_path, name)
        assert code == 0
        stored = (GOLDEN / name).read_text(encoding="utf-8")
        assert stable_text(name, text) == stored

    def test_json_repeats_byte_identically(self, tmp_path):
        args = ["analyze", "--config", OSC_B1]
        _, first = run_cli(args, tmp_path, "a.json")
        _, second = run_cli(args, tmp_path, "b.json")
        strip = lambda t: serialize.dumps_json(golden_form(json.loads(t)))
        assert strip(first) == strip(second)

    def test_csv_repeats_byte_identically(self, tmp_path):
        args = ["scan", "--config", OSC_B1, "--from", "0", "--to", "4",
                "--steps", "9", "--format", "csv"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second


class TestEnvelope:
    def test_structure(self, tmp_path):
        code, text = run_cli(["analyze", "--config", OSC_B1], tmp_path)
        assert code == 0
        env = json.loads(text)
        assert set(env) == {"version", "config", "timestamp", "results"}
        assert env["version"] == quadham.__version__
        assert env["config"] == {"preset": "oscillator-b", "b": 1.0}
        assert "T" in env["timestamp"]

    def test_stdout_default(self, tmp_path, capsys):
        code = cli.main(["analyze", "--config", OSC_B1])
        assert code == 0
        captured = capsys.readouterr()
        env = json.loads(captured.out)
        assert env["results"]["classification"] == "BoundedBelowDiscrete"

    def test_results_content(self, tmp_path):
        _, text = run_cli(["analyze", "--config", OSC_B1], tmp_path)
        res = json.loads(text)["results"]
        assert res["ground_energy"] == 2.0
        assert res["lattice_generators"] == [3.0, 1.0]
        assert len(res["frequency_pairs"]) == 2
        assert res["frequency_pairs"][0]["norm_constant"] == 1.0


class TestConfigHandling:
    def test_explicit_gamma(self, tmp_path):
        cfg = write_config(tmp_path, {
            "K": 1,
            "gamma": [[1.0, 0.0], [0.0, 1.0]],
            "offset": 0.5,
        })
        code, text = run_cli(["analyze", "--config", cfg], tmp_path)
        assert code == 0
        res = json.loads(text)["results"]
        assert res["classification"] == "BoundedBelowDiscrete"
        assert res["ground_energy"] == 1.5

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "random-pd", "K": 2,
                                      "seed": 11})
        _, base = run_cli(["analyze", "--config", cfg], tmp_path, "a.json")
        _, forced = run_cli(["analyze", "--config", cfg, "--seed", "5"],
                            tmp_path, "b.json")
        assert json.loads(base)["config"]["seed"] == 11
        assert json.loads(forced)["config"]["seed"] == 5
        ga = json.loads(base)["results"]["adjoint_eigenvalues"]
        gb = json.loads(forced)["results"]["adjoint_eigenvalues"]
        assert ga != gb

    def test_tol_scale_rescues_near_critical(self, tmp_path):
        # a hair past the boundary: strict tolerances say unbounded, a huge
        # relaxation folds the margin into the critical band
        strict = write_config(tmp_path, {"preset": "oscillator-b",
                                         "b": 2.000001}, "strict.json")
        loose = write_config(tmp_path, {"preset": "oscillator-b",
                                        "b": 2.000001,
                                        "tol_scale": 1e6}, "loose.json")
        _, t1 = run_cli(["analyze", "--config", strict], tmp_path, "s.json")
        _, t2 = run_cli(["analyze", "--config", loose], tmp_path, "l.json")
        assert json.loads(t1)["results"]["classification"] == \
            "UnboundedLattice"
        assert json.loads(t2)["results"]["classification"] == \
            "CriticalInfiniteMultiplicity"

    def test_loose_tol_scale_pairs_a_definite_form(self, tmp_path, capsys):
        # at tol_scale 1e8 (t = 0.405) the frequencies 2.168 and 2.532 merge;
        # their mirrors merge the same way, so the form still pairs
        cfg = write_config(tmp_path, {"preset": "random-pd", "K": 3, "seed": 4,
                                      "tol_scale": 1e8})
        code, text = run_cli(["analyze", "--config", cfg], tmp_path)
        assert (code, capsys.readouterr().err) == (0, "")
        res = json.loads(text)["results"]
        assert res["classification"] == "BoundedBelowDiscrete"
        assert res["lattice_generators"] == pytest.approx([2.800344, 2.350012, 2.350012],
                                                          abs=1e-6)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["analyze", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(bad)]) == 2

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "mystery", "b": 1.0})
        assert cli.main(["analyze", "--config", cfg]) == 2

    def test_preset_and_gamma_conflict(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "oscillator-b", "b": 1.0,
                                      "gamma": [[1.0]]})
        assert cli.main(["analyze", "--config", cfg]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "oscillator-b"})
        assert cli.main(["analyze", "--config", cfg]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "oscillator-b", "b": 1.0,
                                      "tilt": 3.0})
        assert cli.main(["analyze", "--config", cfg]) == 2

    def test_asymmetric_gamma(self, tmp_path):
        cfg = write_config(tmp_path, {"K": 1,
                                      "gamma": [[1.0, 0.3], [0.0, 1.0]]})
        assert cli.main(["analyze", "--config", cfg]) == 2

    def test_wrong_gamma_shape(self, tmp_path):
        cfg = write_config(tmp_path, {"K": 2,
                                      "gamma": [[1.0, 0.0], [0.0, 1.0]]})
        assert cli.main(["analyze", "--config", cfg]) == 2

    def test_scan_needs_model_preset(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "sb", "B": 1.0})
        code = cli.main(["scan", "--config", cfg, "--from", "0", "--to", "1"])
        assert code == 2

    def test_wavefunction_needs_symmetric_model(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "oscillator-b", "b": 1.0,
                                      "mu": 2.0})
        assert cli.main(["wavefunction", "--config", cfg, "0", "0"]) == 2

    def test_wavefunction_sb_needs_field_two(self, tmp_path):
        good = write_config(tmp_path, {"preset": "sb", "B": -2.0}, "g.json")
        bad = write_config(tmp_path, {"preset": "sb", "B": 3.0}, "b.json")
        assert cli.main(["wavefunction", "--config", good, "--out",
                         str(tmp_path / "w.json"), "0", "1"]) == 0
        assert cli.main(["wavefunction", "--config", bad, "0", "1"]) == 2

    def test_runtime_failure_is_three(self, tmp_path, capsys):
        # spectrum of the defective zero-field operator has no lattice
        cfg = write_config(tmp_path, {"preset": "sb", "B": 0.0})
        code = cli.main(["spectrum", "--config", cfg])
        assert code == 3
        assert "quadham: error" in capsys.readouterr().err

    def test_lapack_failure_is_three(self, tmp_path, capsys):
        # the b = 1e308 model's cluster SVD does not converge; the overflow on
        # the way there must not reach stderr as a numpy warning
        cfg = write_config(tmp_path, {"preset": "oscillator-b", "b": 1e308})
        for command in ("analyze", "spectrum", "verify"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, text = run_cli([command, "--config", cfg], tmp_path)
            assert code == 3 and text is None, command
            assert capsys.readouterr().err == (
                "quadham: error: eigensolver did not converge: "
                "SVD did not converge\n"), command

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_its_own_error(self, fmt, tmp_path, monkeypatch,
                                                capsys):
        def nan_analyze(form, model):
            return {"energy": float("nan")}, (["energy"], [(float("nan"),)])

        monkeypatch.setattr(cli, "_cmd_analyze", nan_analyze)
        code = cli.main(["analyze", "--config", OSC_B1, "--format", fmt])
        assert code == 3
        assert capsys.readouterr().err == (
            "quadham: error: cannot serialise non-finite float nan\n")
        with pytest.raises(ValueError):  # callers catching ValueError still do
            serialize.dumps_json(float("inf"))
        with pytest.raises(quadham.NonFiniteResultError):
            serialize.dumps_csv(["x"], [(complex(1.0, float("nan")),)])

    def test_usage_error_is_two(self, capsys):
        assert cli.main(["analyze"]) == 2

    def test_help_is_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["analyze", "--help"]) == 0

    def test_bad_tol_scale(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "oscillator-b", "b": 1.0,
                                      "tol_scale": -2.0})
        assert cli.main(["analyze", "--config", cfg]) == 2

    @pytest.mark.parametrize("scale", [0, float("inf"), float("nan"), True, "1", None])
    def test_tol_scale_type_and_range_share_one_message(self, scale, tmp_path, capsys):
        # the type check and set_config_scale's range check map to one error
        cfg = write_config(tmp_path, {"preset": "oscillator-b", "b": 1.0,
                                      "tol_scale": scale})
        assert cli.main(["analyze", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "quadham: config error: config key 'tol_scale' must be a positive number\n")


class TestVerifyCommand:
    def test_not_applicable_for_defective(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "sb", "B": 0.0})
        code, text = run_cli(["verify", "--config", cfg, "--n-max", "4"],
                             tmp_path)
        assert code == 0
        res = json.loads(text)["results"]
        assert res["classification"] == "DefectiveExceptional"
        assert res["comparison"]["status"] == "NOT_APPLICABLE"
        assert res["shell_exact_upto"] == 0

    def test_not_applicable_needs_no_truncation(self, tmp_path):
        # no matrix is built for a form without a lattice, so the Fock cap
        # does not apply; dim still reports (n_max + 1)^K
        cfg = write_config(tmp_path, {"preset": "sb", "B": 0.0})
        code, text = run_cli(["verify", "--config", cfg, "--n-max", "70"],
                             tmp_path)
        assert code == 0
        res = json.loads(text)["results"]
        assert res["comparison"]["status"] == "NOT_APPLICABLE"
        assert res["dim"] == 71 ** 2

    def test_random_pd_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "random-pd", "K": 2,
                                      "seed": 3})
        code, text = run_cli(["verify", "--config", cfg, "--n-max", "16",
                              "--max-quanta", "6"], tmp_path)
        assert code == 0
        comp = json.loads(text)["results"]["comparison"]
        assert comp["mode"] == "variational"
        assert comp["status"] == "PASS"


    @pytest.mark.parametrize("payload", [
        {"K": 2, "gamma": SQUEEZED_B2}, {"preset": "sb", "B": 1.0}], ids=["squeezed b=2", "sb B=1"])
    def test_critical_without_shells_not_applicable(self, payload, tmp_path):
        code, text = run_cli(["verify", "--config", write_config(tmp_path, payload),
                              "--n-max", "12"], tmp_path)
        assert code == 0
        res = json.loads(text)["results"]
        assert res["classification"] == "CriticalInfiniteMultiplicity"
        assert res["shell_exact_upto"] == 0
        comp = res["comparison"]
        assert (comp["status"], comp["mode"], comp["rows"]) == ("NOT_APPLICABLE", "none", [])
        assert comp["notes"].startswith("infinite multiplicity without shell structure")

    def test_oversized_request_fails_before_assembly(self, tmp_path, capsys,
                                                     monkeypatch):
        built = []
        monkeypatch.setattr(cli, "oracle_spectrum",
                            lambda *args: built.append(args))
        code, text = run_cli(["verify", "--config", OSC_B1, "--n-max", "70"],
                             tmp_path)
        assert code == 3
        assert text is None
        assert "exceeds cap" in capsys.readouterr().err
        assert built == []


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "quadham.cli", "analyze",
             "--config", OSC_B1],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        env = json.loads(proc.stdout)
        assert env["results"]["classification"] == "BoundedBelowDiscrete"

    def test_missing_required_option(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quadham.cli", "analyze"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "--config" in proc.stderr


class TestPhysicalPreset:
    PHYS = {"preset": "physical", "m1": 1, "m2": 2, "k1": 4, "k2": 1,
            "omega": 2}

    def model(self, hbar=1.0):
        return quadham.reduce_to_dimensionless(quadham.PhysicalParameters(
            m1=1.0, m2=2.0, k1=4.0, k2=1.0, omega=2.0, hbar=hbar))

    @pytest.mark.parametrize("hbar", [None, 0.5])
    def test_analyze(self, hbar, tmp_path):
        payload = dict(self.PHYS) if hbar is None else dict(self.PHYS, hbar=hbar)
        code, text = run_cli(["analyze", "--config",
                              write_config(tmp_path, payload)], tmp_path)
        assert code == 0
        env = json.loads(text)
        assert env["config"] == payload
        res = env["results"]
        d = self.model(1.0 if hbar is None else hbar)
        assert res["model"] == json.loads(serialize.dumps_json(d))
        report = quadham.classify_spectrum(quadham.build_model(d))
        assert res["classification"] == report.classification.value
        assert res["lattice_generators"] == json.loads(
            serialize.dumps_json(list(report.lattice_generators)))

    def test_scan_csv(self, tmp_path):
        code, text = run_cli(["scan", "--config",
                              write_config(tmp_path, self.PHYS),
                              "--from", "0", "--to", "2", "--steps", "5",
                              "--format", "csv"], tmp_path)
        assert code == 0
        d = self.model()
        res = quadham.phase_scan(0.0, 2.0, 5, mu=d.mu, k=d.k)
        rows = [(s.b, s.classification.value, s.margin, s.ground_energy)
                for s in res.samples]
        assert text == serialize.dumps_csv(
            ["b", "classification", "margin", "ground_energy"], rows)


class TestAnalyzeCallCounts:
    def test_two_decompositions_and_two_adjoints(self, tmp_path, monkeypatch):
        # bench/test_smoke.py pins both counts at 2 per analyze job, counted
        # at the module attributes bench/spans.py rebinds; ROADMAP items 4
        # and 6 change both counts together, with a single-pass analyze
        calls = {"eigen_decompose": 0, "adjoint_representation": 0}
        for mod in (spectral, cli):
            for name in calls:
                def counted(*args, _fn=getattr(mod, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(mod, name, counted)
        assert run_cli(["analyze", "--config", OSC_B1], tmp_path)[0] == 0
        assert calls == {"eigen_decompose": 2, "adjoint_representation": 2}


class TestParserBuiltOnce:
    def test_two_calls_build_one_parser(self, tmp_path):
        cli._build_parser.cache_clear()
        assert run_cli(["analyze", "--config", OSC_B1], tmp_path, "a.json")[0] == 0
        assert run_cli(["spectrum", "--config", OSC_B1, "--format", "csv"],
                       tmp_path, "b.csv")[0] == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_second_call_keeps_no_values_of_the_first(self, tmp_path):
        code, first = run_cli(["spectrum", "--config", OSC_B1, "--max-quanta",
                               "2", "--format", "csv"], tmp_path, "a.csv")
        assert code == 0 and first.startswith("n1,n2,energy")
        code, second = run_cli(["spectrum", "--config", OSC_B1], tmp_path,
                               "b.json")
        assert code == 0
        assert json.loads(second)["results"]["max_quanta"] == 4


class TestRequestLimits:
    def test_oversized_wavefunction_fails_before_any_ladder_step(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        build = cli.build_eigenfunction
        monkeypatch.setattr(cli, "build_eigenfunction",
                            lambda *args: calls.append(args) or build(*args))
        m = cli.MAX_WAVEFUNCTION_QUANTA // 2
        code, text = run_cli(["wavefunction", "--config", OSC_B1, str(m + 1),
                              str(cli.MAX_WAVEFUNCTION_QUANTA - m)], tmp_path)
        assert code == 2 and text is None
        assert "config error" in capsys.readouterr().err
        assert calls == []
        assert run_cli(["wavefunction", "--config", OSC_B1, "1", "1"],
                       tmp_path)[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_oversized_lattice_is_a_config_error(self, command, tmp_path,
                                                 capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "oracle_spectrum",
                            lambda *args: built.append(args))
        code, text = run_cli([command, "--config", OSC_B1, "--max-quanta",
                              "1000000"], tmp_path)
        assert code == 2 and text is None
        assert "exceed cap" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("bounds, message", [
        (("nan", "1"), "--from and --to must be finite"),
        (("0", "inf"), "--from and --to must be finite"),
        (("-inf", "1"), "--from and --to must be finite"),
        (("0", "1", "--steps", "10001"),
         "--steps 10001 exceeds the limit of 10000 samples"),
        (("-1e308", "1e308"), "--to minus --from must be finite"),
    ], ids=["nan", "inf", "-inf", "steps", "overflowing-span"])
    def test_bad_scan_fails_before_any_sample(self, bounds, message, tmp_path,
                                              capsys, monkeypatch, recwarn):
        calls = []
        scan = models.phase_scan
        monkeypatch.setattr(models, "phase_scan",
                            lambda *args, **kw: calls.append(args) or scan(*args, **kw))
        code, text = run_cli(["scan", "--config", OSC_B1, f"--from={bounds[0]}",
                              f"--to={bounds[1]}", *bounds[2:]], tmp_path)
        assert code == 2 and text is None
        assert capsys.readouterr().err == f"quadham: config error: {message}\n"
        assert calls == []
        assert len(recwarn) == 0
        assert cli.MAX_SCAN_STEPS == 10**4
        assert run_cli(["scan", "--config", OSC_B1, "--from", "0", "--to", "1",
                        "--steps", "3"], tmp_path)[0] == 0
        assert len(calls) == 1

    def test_too_many_random_modes_fails_before_any_form(self, tmp_path, capsys,
                                                         monkeypatch):
        calls = []
        build = models.random_positive_definite_form
        monkeypatch.setattr(models, "random_positive_definite_form",
                            lambda *args: calls.append(args) or build(*args))
        too_many = write_config(tmp_path, {"preset": "random-pd", "K": 65, "seed": 0})
        code, text = run_cli(["analyze", "--config", too_many], tmp_path)
        assert code == 2 and text is None
        assert capsys.readouterr().err == ("quadham: config error: config key "
                                           "'K' = 65 exceeds the limit of 64 modes\n")
        assert calls == []
        assert cli.MAX_RANDOM_MODES == 64
        small = write_config(tmp_path, {"preset": "random-pd", "K": 3, "seed": 0},
                             "small.json")
        assert run_cli(["analyze", "--config", small], tmp_path)[0] == 0
        assert len(calls) == 1


class TestConfigErrorTexts:
    OSC_B = {"preset": "oscillator-b", "b": 1.0}

    @pytest.mark.parametrize("payload, message", [
        ({"preset": "mystery", "b": 1.0},
         "unknown preset 'mystery'; expected one of oscillator-b, physical, "
         "random-pd, sb"),
        ({"preset": "physical", "m1": 1, "omega": 1},
         "preset 'physical' needs key(s): k1, k2, m2"),
        ({"preset": "oscillator-b", "b": 1.0, "tilt": 3.0, "zeta": 1},
         "unknown key(s) for preset 'oscillator-b': tilt, zeta"),
        # K is checked before spread
        ({"preset": "random-pd", "K": 2.5, "seed": 1, "spread": 3},
         "config key 'K' must be an integer"),
        ({"preset": "random-pd", "K": 2, "seed": 1, "spread": 3},
         "config key 'spread' must be [lo, hi]"),
        ({"preset": "physical", "m1": "x", "m2": 1, "k1": 1, "k2": 1, "omega": 1},
         "config key 'm1' must be a number"),
        ({"preset": "oscillator-b", "b": 1.0, "mu": -1},
         "mu must be positive and finite"),
        ({"preset": "random-pd", "K": 0, "seed": 1},
         "config key 'K' must be a positive integer"),
        ({"preset": "random-pd", "K": -1, "seed": 1},
         "config key 'K' must be a positive integer"),
        ({"preset": "random-pd", "K": 2, "seed": -5},
         "config key 'seed' must be a non-negative integer"),
        ([1, 2], "config must be a JSON object"),
        ({"K": 1, "offset": 0.0},
         "config needs either 'preset' or an explicit 'gamma'"),
        ({"K": 1, "gamma": [[1.0, 0.0], [0.0, 1.0]], "tilt": 1},
         "unknown key(s) in explicit config: tilt"),
        ({"gamma": [[1.0, 0.0], [0.0, 1.0]]},
         "explicit config needs the mode count 'K'"),
        ({"K": 0, "gamma": []}, "config key 'K' must be a positive integer"),
        ({"preset": "random-pd", "K": 2, "seed": 1.5},
         "config key 'seed' must be an integer"),
        # json writes and reads the NaN literal
        ({"K": 1, "gamma": [[math.nan, 0.0], [0.0, 1.0]]},
         "'gamma' contains non-finite entries"),
    ], ids=["preset", "missing", "unknown", "K", "spread", "m1", "mu",
            "random-K-0", "random-K-negative", "random-seed-negative", "not-object",
            "explicit-no-gamma", "explicit-unknown", "explicit-no-K",
            "explicit-K-0", "random-seed-fraction", "explicit-gamma-nan"])
    def test_message(self, payload, message, tmp_path, capsys):
        code = cli.main(["analyze", "--config", write_config(tmp_path, payload)])
        assert code == 2
        assert capsys.readouterr().err == f"quadham: config error: {message}\n"

    @pytest.mark.parametrize("argv, payload, message", [
        (["analyze", "--seed", "-5"], {"preset": "random-pd", "K": 2, "seed": 1},
         "config key 'seed' must be a non-negative integer"),
        (["scan", "--from", "0", "--to", "1", "--steps", "0"], OSC_B,
         "--steps must be at least 1"),
        (["verify", "--n-max", "-1"], OSC_B, "--n-max must be non-negative"),
        (["verify", "--max-quanta", "-1"], OSC_B, "--max-quanta must be non-negative"),
        (["verify", "--max-levels", "0"], OSC_B, "--max-levels must be at least 1"),
        (["spectrum", "--max-quanta", "-1"], OSC_B,
         "--max-quanta must be non-negative"),
        (["wavefunction", "-1", "0"], OSC_B,
         "quantum numbers m and n must be non-negative"),
        (["wavefunction", "0", "0"], {"preset": "sb", "B": 1.0},
         "exact eigenfunctions for the 'sb' preset need |B| = 2, where the form "
         "coincides with the symmetric model"),
        (["wavefunction", "0", "0"], {"preset": "random-pd", "K": 2, "seed": 1},
         "the wavefunction command supports the 'oscillator-b' preset with "
         "mu = k = 1, or the 'sb' preset with |B| = 2"),
    ], ids=["seed-option", "scan-steps", "verify-n-max", "verify-max-quanta",
            "verify-max-levels", "spectrum-max-quanta", "wavefunction-m",
            "wavefunction-sb", "wavefunction-random-pd"])
    def test_command_message(self, argv, payload, message, tmp_path, capsys):
        code, text = run_cli(argv + ["--config", write_config(tmp_path, payload)],
                             tmp_path)
        assert code == 2 and text is None
        assert capsys.readouterr().err == f"quadham: config error: {message}\n"


BIG = 10**400  # a JSON int beyond the float range


class TestNumbersBeyondTheFloatRange:
    @pytest.mark.parametrize("payload, message", [
        ({"preset": "oscillator-b", "b": BIG}, "config key 'b' must be finite"),
        ({"preset": "oscillator-b", "b": 1.0, "mu": -BIG},
         "config key 'mu' must be finite"),
        ({"preset": "oscillator-b", "b": 1.0, "tol_scale": BIG},
         "config key 'tol_scale' must be a positive number"),
        ({"preset": "physical", "m1": 1, "m2": 1, "k1": 1, "k2": 1, "omega": BIG},
         "config key 'omega' must be finite"),
        ({"preset": "sb", "B": -BIG}, "config key 'B' must be finite"),
        ({"preset": "random-pd", "K": 1, "seed": 1, "spread": [0.5, BIG]},
         "config key 'spread' must be [lo, hi]"),
        ({"preset": "random-pd", "K": 1, "seed": 1, "spread": [0.5, math.inf]},
         "config key 'spread' must be [lo, hi]"),
        ({"K": 1, "gamma": [[1.0, 0.0], [0.0, 1.0]], "offset": BIG},
         "config key 'offset' must be finite"),
        ({"K": 1, "gamma": [[BIG, 0.0], [0.0, 1.0]]},
         "'gamma' must be a numeric matrix: int too large to convert to float"),
    ], ids=["b", "mu", "tol_scale", "omega", "B", "spread", "spread-inf", "offset",
            "gamma"])
    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    def test_config_error(self, payload, message, command, tmp_path, capsys):
        code, text = run_cli([command, "--config", write_config(tmp_path, payload)],
                             tmp_path)
        assert code == 2 and text is None
        assert capsys.readouterr().err == f"quadham: config error: {message}\n"


class TestWavefunctionUsesTheBuiltForm:
    @pytest.mark.parametrize("payload, builds", [
        ({"preset": "oscillator-b", "b": -0.75}, 1),
        ({"preset": "sb", "B": 2.0}, 0),
        ({"preset": "sb", "B": -2.0}, 0)])
    def test_one_form_per_run(self, payload, builds, tmp_path, monkeypatch):
        calls = []
        build = models.build_model
        monkeypatch.setattr(models, "build_model",
                            lambda d: calls.append(d) or build(d))
        code, text = run_cli(["wavefunction", "--config",
                              write_config(tmp_path, payload), "2", "1"], tmp_path)
        assert code == 0
        assert len(calls) == builds
        res = json.loads(text)["results"]
        b = res["b"]
        assert res["energy"] == float(quadham.symmetric_energy(Fraction(b), 2, 1))
        assert res["eigen_check"] == "exact"


class TestScanBuildsNoForm:
    PHYSICAL = {"preset": "physical", "m1": 1.0, "m2": 1.5, "k1": 1.0, "k2": 0.8,
                "omega": 0.2}

    @pytest.mark.parametrize("payload, bounds", [
        ({"preset": "oscillator-b", "b": 1.0}, ("-3", "3")),
        (PHYSICAL, ("-0.9", "0.9"))], ids=["oscillator-b", "physical"])
    def test_scan_reads_only_the_model(self, payload, bounds, tmp_path, monkeypatch):
        calls = []
        build = models.build_model
        monkeypatch.setattr(models, "build_model",
                            lambda d: calls.append(d) or build(d))
        code, text = run_cli(["scan", "--config", write_config(tmp_path, payload),
                              "--from", bounds[0], "--to", bounds[1], "--steps", "7"],
                             tmp_path)
        assert code == 0
        assert calls == []
        assert len(json.loads(text)["results"]["samples"]) == 7
        assert run_cli(["analyze", "--config", write_config(tmp_path, payload)],
                       tmp_path)[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("payload, message", [
        ({"preset": "sb", "B": 1.0},
         "scan sweeps the coupling of an oscillator model; use the "
         "'oscillator-b' or 'physical' preset"),
        ({"preset": "oscillator-b", "b": 1, "mu": 1e-320}, "1/mu must be finite"),
    ], ids=["sb", "tiny-mu"])
    def test_rejections_keep_their_messages(self, payload, message, tmp_path,
                                            capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(models, "build_model", calls.append)
        code, text = run_cli(["scan", "--config", write_config(tmp_path, payload),
                              "--from", "0", "--to", "1"], tmp_path)
        assert code == 2 and text is None
        assert capsys.readouterr().err == f"quadham: config error: {message}\n"
        assert calls == []
