"""Only ``dist`` calls SciPy's chi-squared kernels: every other module takes
the noncentral chi-squared law from it, so the law has one definition.  No
module uses SciPy's adaptive quadrature or root finders, which cost about
0.3 s and 25 MB to import.  Only ``dist`` tests whether a value is an
integer: every other module calls ``dist.check_int``, so the rule has one copy.
The law's own parts, the Poisson mixture's ``_poisson_weights`` and the
gamma draws, are named in ``dist`` alone too."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gofevid"
KERNELS = re.compile(r"cython_special|chndtr|chndtrix|chdtri|chdtrc|_ncx2|_poisson_weights|standard_gamma")
HEAVY = re.compile(r"scipy\.(integrate|optimize)|\b(integrate|optimize)\.|import .*\b(integrate|optimize)\b")


def test_only_dist_names_the_chisq_kernels():
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(SRC.glob("*.py")) if path.name != "dist.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if KERNELS.search(line)]
    assert found == []


def test_no_module_names_scipy_integrate_or_optimize():
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if HEAVY.search(line)]
    assert found == []


def test_one_quantile_call():
    assert (SRC / "dist.py").read_text().count("chndtrix(") == 1


def test_one_integer_rule():
    assert [path.name for path in sorted(SRC.glob("*.py")) if "_is_int(" in path.read_text()] == ["dist.py"]
