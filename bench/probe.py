"""Set-up probe: import quadham and make the first tiny call into each layer.

    python3 bench/probe.py CONFIG.json

Run in a fresh interpreter; the benchmark times the whole process.
"""

import contextlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import quadham as qh  # noqa: E402
from quadham import cli, serialize  # noqa: E402

form = qh.build_model(qh.DimensionlessModel(mu=1.0, k=1.0, b=0.5))
report = qh.classify_spectrum(form)
qh.spectrum_lattice(report, 1)
qh.oracle_spectrum(form, qh.FockTruncation(n_max=1, K=2))
z_m, z_n = qh.symmetric_raising_pair()
qh.build_eigenfunction(z_m.form, z_n.form, 1, 0)
serialize.dumps_json({"energy": report.ground_energy})
serialize.dumps_csv(["energy"], [(report.ground_energy,)])
with contextlib.redirect_stdout(io.StringIO()):
    if cli.main(["analyze", "--config", sys.argv[1]]) != 0:
        raise SystemExit("analyze failed")
