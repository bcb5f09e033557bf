"""quadham benchmark runner.

    python3 bench/run.py --workload oracle_verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from any directory of a source checkout; quadham is imported from its
``src/``.  One process and one caller run the workload in a closed loop: the
next job starts when the previous one returns.  Jobs run in whole rounds of
the seed's job list, and a new round starts only while it is expected to end
within ``--seconds``.  BLAS runs on BLAS_THREADS threads.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the rounds
untraced for half the time, then the same rounds again with every public
layer function wrapped in a span, and reports per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs each workload in its own fresh process and prints
every metric with its unit.  Results, spans and a copy of the environment go
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans

BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared host steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("oracle_verify", "exact_states", "analysis_sweep", "cli_mix")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s", "job_s.p90": "s",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}
# layer functions whose own time ("self_s") per traced job is reported
SELF_TIMES = (
    "fock.build_fock_matrix", "fock.oracle_spectrum", "fock.compare_with_lattice",
    "wavefunctions.build_eigenfunction", "wavefunctions.apply_linear_form",
    "wavefunctions.inner", "wavefunctions.normalized_copy",
    "wavefunctions.apply_quadratic_form", "wavefunctions.is_scalar_multiple_exact",
    "spectral.classify_spectrum", "spectral.eigen_decompose",
    "spectral.pair_frequencies", "spectral.spectrum_lattice",
    "phase_space.adjoint_representation", "models.phase_scan",
    "serialize.dumps_json", "serialize.dumps_csv", "cli.main",
)
LAYERS = ("fock", "wavefunctions", "spectral", "phase_space", "models",
          "serialize", "cli")
# per-layer metric -> unit
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "fock.states": "count", "fock.dense_bytes": "B", "fock.max_abs_diff": "energy",
    "fock.useful_eigen_frac": "frac",
    "wavefunctions.state_terms": "count", "wavefunctions.inner.pair_useful_frac": "frac",
    "spectral.spectrum_lattice.states": "count", "serialize.bytes_out": "B",
    "spectral.eigen_decompose.calls_per_job": "calls/job",
    "phase_space.adjoint_representation.calls_per_job": "calls/job",
    "models.build_model.calls_per_scan_sample": "calls/sample",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_frac": "frac", "trace.unattributed_frac": "frac",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every job, for the smoke test")
    return p.parse_args(argv)


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---- set-up and environment -------------------------------------------------

def measure_setup(n: int, workdir: pathlib.Path) -> list[float]:
    """Wall seconds for a fresh interpreter to import quadham and touch each layer."""
    config = workdir / "probe_config.json"
    config.write_text('{"preset": "oscillator-b", "b": 0.5}', encoding="utf-8")
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(config)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quadham").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


# ---- the closed loop --------------------------------------------------------

class Loop:
    """Runs whole rounds of jobs and keeps per-job times, failures and counts."""

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.ctx: dict = {}
        self.times: list[float] = []
        self.failures: list[str] = []
        self.stats: list[dict] = []
        self.rounds = 0

    def run(self, seconds: float | None = None, rounds: int | None = None):
        import workloads

        start = time.perf_counter()
        while True:
            for job in self.jobs:
                self._one(job, workloads)
            self.rounds += 1
            if rounds is not None:
                if self.rounds >= rounds:
                    return
            else:
                elapsed = time.perf_counter() - start
                if elapsed * (self.rounds + 1) / self.rounds > seconds:
                    return

    def best_times(self) -> list[float]:
        """Each job's fastest time over the rounds run.

        The host's speed swings by up to 1.6x over windows of a few seconds;
        the fastest repeat of a job is the estimate those swings move least.
        """
        n = len(self.jobs)
        return [min(self.times[j::n]) for j in range(n)]

    def _one(self, job, workloads):
        tracer = self.tracer
        if tracer is not None:
            tracer.job = len(self.times)
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out, error = workloads.run_job(job), None
        except Exception as exc:  # noqa: BLE001 - a raising job is counted, not fatal
            out, error = None, exc
        self.times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        stats = {}
        if error is None:
            try:
                stats = workloads.check_job(job, out, self.ctx)
            except Exception as exc:  # noqa: BLE001 - checks report, never abort
                error = exc
        if error is not None:
            self.failures.append(f"{job.kind} {_describe(job)}: "
                                 f"{type(error).__name__}: {error}")
        self.stats.append(stats)


def traced_run(jobs, seconds: float | None = None, rounds: int | None = None):
    """Rounds untraced, then as many rounds again with every layer traced."""
    untraced = Loop(jobs)
    untraced.run(seconds=seconds, rounds=rounds)
    tracer = spans.Tracer()
    tracer.install()
    try:
        loop = Loop(jobs, tracer)
        loop.run(rounds=untraced.rounds)
    finally:
        tracer.uninstall()
    return untraced, loop, tracer


def _describe(job) -> str:
    p = job.params
    if "argv" in p:
        return " ".join(p["argv"][:1] + p["argv"][3:5])
    return ", ".join(f"{k}={v}" for k, v in p.items() if k != "form")


# ---- metrics ----------------------------------------------------------------

def end_to_end(loop: Loop, setup: list[float]) -> dict:
    t = loop.best_times()
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(t) / sum(t),
        "job_s.p50": statistics.median(t),
        "job_s.p90": _p90(t),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(loop.failures) / len(loop.times),
    }


def per_layer(loop: Loop, untraced: Loop, tracer) -> tuple[dict, list[str]]:
    n = len(loop.times)
    wall = sum(loop.times)
    self_t = tracer.self_times()
    missing = [name for name in SELF_TIMES if name not in tracer.wrapped]
    m = {f"{name}.self_s": self_t.get(name, 0.0) / n for name in SELF_TIMES}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_t.items()
                                   if k.startswith(layer + ".")) / n

    def total(key):
        return sum(s.get(key, 0) for s in loop.stats)

    dims = [s["fock_dim"] for s in loop.stats if "fock_dim" in s]
    m["fock.states"] = sum(dims) / n
    m["fock.dense_bytes"] = sum(16 * d * d for d in dims) / n
    m["fock.max_abs_diff"] = max((s["max_abs_diff"] for s in loop.stats
                                  if "max_abs_diff" in s), default=0.0)
    m["fock.useful_eigen_frac"] = total("n_compared") / sum(dims) if dims else 0.0
    m["wavefunctions.state_terms"] = total("state_terms") / n
    pairs = total("pairs")
    m["wavefunctions.inner.pair_useful_frac"] = (
        total("useful_pairs") / pairs if pairs else 0.0)
    m["spectral.spectrum_lattice.states"] = total("lattice_states") / n
    m["serialize.bytes_out"] = total("bytes_out") / n

    # exact call counts: per CLI 'analyze' job, and per scanned sample
    analyze = [j for j, s in enumerate(loop.stats) if s.get("cmd") == "analyze"]
    for name in ("spectral.eigen_decompose", "phase_space.adjoint_representation"):
        calls = tracer.calls_by_job(name)
        m[f"{name}.calls_per_job"] = (
            sum(calls.get(j, 0) for j in analyze) / len(analyze) if analyze else 0.0)
    scans = [j for j, s in enumerate(loop.stats) if s.get("scan_samples")]
    samples = sum(loop.stats[j]["scan_samples"] for j in scans)
    calls = tracer.calls_by_job("models.build_model")
    m["models.build_model.calls_per_scan_sample"] = (
        sum(calls.get(j, 0) for j in scans) / samples if samples else 0.0)

    covered = tracer.covered()
    m["trace.wall_s"] = wall / n
    m["trace.unattributed_s"] = (wall - covered) / n
    m["trace.unattributed_frac"] = (wall - covered) / wall
    m["trace.overhead_frac"] = sum(loop.best_times()) / sum(untraced.best_times()) - 1.0
    return m, missing


# ---- entry points -----------------------------------------------------------

def run_workload(args) -> int:
    if not (ROOT / "src" / "quadham" / "__init__.py").is_file():
        print(f"bench: no quadham sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = [] if args.trace else measure_setup(SETUP_PROBES, workdir)
        jobs = workloads.make_jobs(args.workload, args.seed, args.size, workdir)
        if args.trace:
            untraced, loop, tracer = traced_run(jobs, seconds=args.seconds / 2)
            metrics, missing = per_layer(loop, untraced, tracer)
            units = PER_LAYER
            (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.dump()),
                                                   encoding="utf-8")
            failures = untraced.failures + loop.failures
            attempted = len(untraced.times) + len(loop.times)
        else:
            loop = Loop(jobs)
            loop.run(seconds=args.seconds)
            metrics, missing = end_to_end(loop, setup), []
            units = END_TO_END
            failures, attempted = loop.failures, len(loop.times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    per_round = [sum(loop.times[i:i + len(jobs)])
                 for i in range(0, len(loop.times), len(jobs))]
    record = {"workload": args.workload, "seconds": args.seconds,
              "size": args.size, "jobs_per_round": len(jobs),
              "round_s": per_round, "job_s": loop.times[:len(jobs)],
              "env": env, "missing": missing,
              "failures": failures, "setup_runs_s": setup, **result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1),
                                            encoding="utf-8")
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name in missing:
        print(f"missing layer function: {name}", file=sys.stderr)
    print(f"workload {args.workload}: {attempted} jobs ({len(jobs)} per round, "
          f"{loop.rounds} rounds), {len(failures)} failed")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric with its unit."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        status |= 0 if res["correct"] else 1
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:48s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
