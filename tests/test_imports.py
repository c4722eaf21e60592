import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_power_calls_import_nothing():
    # the scalar chi-squared calls evaluate SciPy's kernels through
    # scipy.special.cython_special; importing it with the package keeps its
    # one-off load out of the first power, test or quantile call
    out = _run_fresh(
        "import sys, gofevid as G\n"
        "print('scipy.special.cython_special' in sys.modules)\n"
        "loaded = set(sys.modules)\n"
        "p = G.EquivalenceParams(5.0, 12.0)\n"
        "for lam in (0.0, 1.0, 13.5):\n"
        "    G.power_lack_of_fit(0.05, 5.0, lam)\n"
        "    G.power_lack_of_fit(1e-12, 5.0, lam)\n"
        "    G.power_equivalence(0.05, p, lam)\n"
        "G.equivalence_test(1.0, p, 0.05)\n"
        "G.chisq_quantile(0.05, G.ChiSqParams(5.0, 12.0))\n"
        "G.multinomial_power_mc(G.RandomStream(1), 100, [0.25] * 4, [0.25] * 4, 0.05, 1000)\n"
        "print(sorted(set(sys.modules) - loaded))\n")
    assert out.splitlines() == ["True", "[]"]


def test_scipy_integrate_never_loads():
    # scipy.integrate (and the scipy.optimize it pulls in) costs about 0.3 s
    # and 25 MB; J runs on a fixed rule, so neither ever loads
    out = _run_fresh(
        "import sys, gofevid, gofevid.cli\n"
        "gofevid.cli.main(['samplesize', '--m0', '3', '--r', '6', '-f', 'json'])\n"
        "j = gofevid.J_noncentral(5, 12, 6)\n"
        "print([m in sys.modules for m in ('scipy.integrate', 'scipy.optimize')])\n"
        "print(repr(j))\n")
    lines = out.splitlines()
    assert lines[-2] == "[False, False]"
    # mpmath quadrature of the Bessel-form densities (tests/oracles.py::ncx2_J_mp)
    assert float(lines[-1]) == pytest.approx(0.81878501377484501, rel=1e-12, abs=0.0)


def test_report_and_power_calls_leave_scipy_stats_and_integrate_unloaded(tmp_path):
    # scipy.integrate adds about 25 MB of resident memory and scipy.stats about
    # 45 MB; the reports and the power, test and sample-size calls need neither
    data = tmp_path / "normal500.txt"
    data.write_text("\n".join(map(repr, np.random.default_rng(1).normal(size=500).tolist())))
    commands = [["evidence-lof", "--fixture", "die"], ["evidence-equiv", "--fixture", "die"],
                ["samplesize", "--m0", "3.3", "--r", "6"], ["fit-poisson", "--fixture", "alpha"],
                ["fit-normal", str(data)]]
    out = _run_fresh(
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "import gofevid as G\n"
        "from gofevid import cli\n"
        f"for command in {commands!r}:\n"
        "    for fmt in ('text', 'json', 'csv'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert cli.main(command + ['-f', fmt]) == 0, command\n"
        "p = G.EquivalenceParams(5.0, 12.0)\n"
        "G.power_lack_of_fit(0.05, 5.0, 13.5)\n"
        "G.power_equivalence(0.05, p, 1.0)\n"
        "G.equivalence_test(1.0, p, 0.05)\n"
        "G.sample_size(3.3, 5.0, 6, 0.5)\n"
        "G.chisq_cdf(np.linspace(0.0, 40.0, 200), G.ChiSqParams(5.0, 12.0))\n"
        "G.chisq_density(np.linspace(0.1, 40.0, 200), G.ChiSqParams(5.0, 12.0))\n"
        "print([m in sys.modules for m in ('scipy.stats', 'scipy.integrate')])\n")
    assert out.splitlines()[-1] == "[False, False]"
