import os
import subprocess
import sys
from pathlib import Path

import pytest

import gofevid


def _run_fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this checkout's gofevid."""
    src = str(Path(gofevid.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; the package uses
    # scipy.special only, and must not pull scipy.stats in by accident
    out = _run_fresh("import sys, gofevid; print('scipy.stats' in sys.modules)")
    assert out.strip() == "False"


def test_scipy_integrate_loads_only_for_J():
    # scipy.integrate (and the scipy.optimize it pulls in) costs about 0.3 s;
    # only the J quadrature needs it, so it loads at the first J call
    out = _run_fresh(
        "import sys, gofevid, gofevid.cli\n"
        "gofevid.cli.main(['samplesize', '--m0', '3', '--r', '6', '-f', 'json'])\n"
        "print([m in sys.modules for m in ('scipy.integrate', 'scipy.optimize')])\n"
        "print(repr(gofevid.J_noncentral(5, 12, 6)))\n")
    lines = out.splitlines()
    assert lines[-2] == "[False, False]"
    assert float(lines[-1]) == pytest.approx(0.8187850131043298, rel=1e-12)
