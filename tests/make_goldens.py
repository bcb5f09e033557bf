"""Regenerate the stored CLI outputs under tests/golden/.

Run from the repository root after an intentional output change:

    python3 tests/make_goldens.py

JSON envelopes are stored with the timestamp stripped so the files are
byte-stable; CSV output is stored as produced.
"""

import json
import pathlib
import tempfile

from quadham import cli, serialize

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

OSC_B1 = str(DATA / "osc_b1.json")
OSC_B2 = str(DATA / "osc_b2.json")

CASES = [
    ("analyze_oscillator_b1.json",
     ["analyze", "--config", OSC_B1]),
    ("spectrum_critical_b2.json",
     ["spectrum", "--config", OSC_B2, "--max-quanta", "4"]),
    ("spectrum_oscillator_b1.csv",
     ["spectrum", "--config", OSC_B1, "--max-quanta", "3",
      "--format", "csv"]),
    ("verify_oscillator_b1.json",
     ["verify", "--config", OSC_B1, "--n-max", "6"]),
    ("scan_boundary.csv",
     ["scan", "--config", OSC_B1, "--from", "0", "--to", "4",
      "--steps", "5", "--format", "csv"]),
    ("wavefunction_11.json",
     ["wavefunction", "--config", OSC_B1, "1", "1"]),
    ("wavefunction_11.csv",
     ["wavefunction", "--config", OSC_B1, "--format", "csv", "1", "1"]),
]


def golden_form(env: dict) -> dict:
    """The comparable part of an envelope: everything but the timestamp."""
    return {k: v for k, v in env.items() if k != "timestamp"}


def stable_text(name: str, text: str) -> str:
    if name.endswith(".json"):
        return serialize.dumps_json(golden_form(json.loads(text)))
    return text


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / name
            code = cli.main(argv + ["--out", str(out)])
            if code != 0:
                raise SystemExit(f"case {name} exited with code {code}")
            text = out.read_text(encoding="utf-8")
        (GOLDEN / name).write_text(stable_text(name, text), encoding="utf-8")
        print(f"wrote tests/golden/{name}")


if __name__ == "__main__":
    regenerate()
