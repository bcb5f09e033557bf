"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_workload_names_match_spec():
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == workloads.WORKLOADS == run.WORKLOADS


def _first(jobs, key):
    return next(job for job in jobs if key in job.expect)


@pytest.mark.parametrize("workload,key,shift", [
    ("analysis_sweep", "energies", lambda e: [x + 1e-3 for x in e]),
    ("exact_states", "energy", lambda e: e + 1),
    ("oracle_verify", "max_diff", lambda e: 0.0),
    ("cli_mix", "rows", lambda rows: rows[1:]),
])
def test_wrong_expectation_counts_as_failed(tmp_path, workload, key, shift):
    jobs = workloads.make_jobs(workload, 7, "tiny", tmp_path)
    good = _first(jobs, key)
    bad = workloads.Job(good.kind, good.params,
                        {**good.expect, key: shift(good.expect[key])})
    loop = run.Loop([good, bad])
    loop.run(rounds=1)
    assert len(loop.times) == 2
    assert len(loop.failures) == 1, loop.failures


def test_traced_times_add_up_and_counts_are_exact(tmp_path):
    jobs = workloads.make_jobs("cli_mix", 7, "tiny", tmp_path)
    untraced, loop, tracer = run.traced_run(jobs, rounds=1)
    assert not loop.failures
    m, missing = run.per_layer(loop, untraced, tracer)
    assert missing == []
    layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert m["spectral.eigen_decompose.calls_per_job"] == 2.0
    assert m["phase_space.adjoint_representation.calls_per_job"] == 2.0
    # every library attribute points at the original function again
    import quadham
    assert quadham.classify_spectrum.__module__ == "quadham.spectral"
    assert not hasattr(quadham.classify_spectrum, "__wrapped__")


def test_missing_layer_function_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SELF_TIMES", run.SELF_TIMES + ("fock.gone",))
    jobs = workloads.make_jobs("analysis_sweep", 7, "tiny", tmp_path)[:1]
    untraced, loop, tracer = run.traced_run(jobs, rounds=1)
    m, missing = run.per_layer(loop, untraced, tracer)
    assert missing == ["fock.gone"] and m["fock.gone.self_s"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("bench/run.py", "--workload", "cli_mix", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
