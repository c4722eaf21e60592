"""SHA-256 fingerprints of gofevid's outputs at seed 17 (``tests/golden.json``).

``test_golden.py`` recomputes them and names every output whose bytes moved.
A change that is meant to move an output regenerates the file, from the
repository root, with

    PYTHONPATH=src python tests/make_golden.py

which prints the names of the digests that moved against the file it
replaces; list them, with the reason, in CHANGES.md.  The file records
the stream layout and the numpy and scipy versions it was made under:
generator streams are not promised across numpy versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import scipy

from gofevid import cli, sim
from gofevid.pearson import MIN_POWER_REPS

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 17
SCENARIO_REPS = {"table1_models": MIN_POWER_REPS}  # its floor; the others run 200
REPORTS = {  # output name -> CLI arguments; each runs with -f json
    "evidence-lof": ["evidence-lof", "--fixture", "die"],
    "evidence-equiv": ["evidence-equiv", "--fixture", "die"],
    "fit-poisson": ["fit-poisson", "--fixture", "alpha"],
    "fit-normal": ["fit-normal", "normal500.txt"],
    "samplesize": ["samplesize", "--m0", "3.3", "--r", "6"],
}


def versions() -> dict:
    return {"stream_layout": sim.STREAM_LAYOUT, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _report(argv: list[str]) -> bytes:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main([*argv, "-f", "json"])
    if code != 0:
        raise RuntimeError(f"gofevid {' '.join(argv)} exited {code}")
    return text.getvalue().encode()


def outputs() -> dict[str, bytes]:
    """Output name -> bytes: every scenario's CSV and JSON, and the CLI reports."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for scenario in sim.SCENARIOS:
            config = sim.SimConfig(scenario, SCENARIO_REPS.get(scenario, 200), SEED)
            sim.run_scenario(config, out_dir=tmp)
            for ext in ("csv", "json"):
                out[f"{scenario}.{ext}"] = (tmp / f"{scenario}.{ext}").read_bytes()
        # 500 values from a generator that does not go through gofevid
        values = np.random.Generator(np.random.Philox(key=SEED)).normal(10.0, 2.0, size=500)
        (tmp / "normal500.txt").write_text("".join(f"{v!r}\n" for v in values.tolist()))
        for name, argv in REPORTS.items():
            out[name] = _report([str(tmp / a) if a.endswith(".txt") else a for a in argv])
    return out


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs().items()}


def moved(old: dict, new: dict) -> list[str]:
    """Names of the outputs whose digest differs between two golden records,
    including outputs that only one of them has."""
    a, b = old.get("digests", {}), new["digests"]
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {**versions(), "digests": digests()}
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
    for key in versions():
        if old.get(key) != new[key]:
            print(f"{key}: {old.get(key)} -> {new[key]}")
    names = moved(old, new)
    print(f"{len(names)} of {len(new['digests'])} digests moved" + "".join(f"\n  {n}" for n in names))
