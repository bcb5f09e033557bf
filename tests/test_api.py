import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import quadham


def test_every_exported_name_resolves():
    missing = [name for name in quadham.__all__ if not hasattr(quadham, name)]
    assert missing == []
    assert len(set(quadham.__all__)) == len(quadham.__all__)


def test_traced_benchmark_names_are_public_layer_functions():
    # the traced benchmark run reads 0 for a per-layer metric whose function
    # was renamed or made private, so each name must resolve here
    spec = json.loads((pathlib.Path(__file__).parents[1] / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    traced = [n.split(".")[:2] for n in names
              if n.endswith(".self_s") and n.count(".") == 2]
    assert traced
    bad = []
    for layer, func in traced:
        mod = importlib.import_module(f"quadham.{layer}")
        obj = getattr(mod, func, None)
        if (func.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__):
            bad.append(f"{layer}.{func}")
    assert bad == []


def test_import_and_oracle_stay_numpy_only():
    # scipy is installed next to numpy but is not a declared dependency, so
    # neither the import nor the Fock oracle may pull it in
    src = pathlib.Path(quadham.__file__).parents[1]
    code = (
        "import sys, quadham\n"
        "q = quadham.random_positive_definite_form(2, seed=1)\n"
        "quadham.oracle_spectrum(q, quadham.FockTruncation(4, 2))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
