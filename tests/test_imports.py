import os
import subprocess
import sys
from pathlib import Path

import gofevid


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; the package uses
    # scipy.special only, and must not pull scipy.stats in by accident
    src = str(Path(gofevid.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gofevid; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
