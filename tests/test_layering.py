"""Only ``dist`` calls SciPy's chi-squared kernels: every other module takes
the noncentral chi-squared law from it, so the law has one definition."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gofevid"
KERNELS = re.compile(r"cython_special|chndtr|chndtrix|chdtri|chdtrc|_ncx2")


def test_only_dist_names_the_chisq_kernels():
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(SRC.glob("*.py")) if path.name != "dist.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if KERNELS.search(line)]
    assert found == []


def test_one_quantile_call():
    assert (SRC / "dist.py").read_text().count("chndtrix(") == 1
