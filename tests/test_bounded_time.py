"""Every accepted call of the chi-squared law, the two powers, the
equivalence test and the lack-of-fit evidence ends in bounded time at the
corners of its domain: nu in {0.1, 1, 1e6}, a noncentrality (lam or lambda0)
in {0, 1, LAM_MAX}, a level (p or alpha) in {1e-300, 0.5, 1 - 1e-16}, a point
x in {1e-300, nu + lam, 1e300} and a statistic in {0, 1, 1e300}.  Each call
returns a finite value or raises ValueError with a message, within BUDGET_S.

Left out until they end in budget: the quantile at p = 1e-300 of a law with
lam = LAM_MAX (2-3 s in SciPy's chndtrix), and so power_equivalence and
equivalence_test at alpha = 1e-300 with lambda0 = LAM_MAX; and J_noncentral
and signed_root_J, whose Poisson-mixture density runs for seconds to minutes
at large lam.
"""

import itertools
import math
import time

import pytest

from gofevid import dist
from gofevid.dist import LAM_MAX, ChiSqParams, chisq_cdf, chisq_density, chisq_quantile
from gofevid.evidence import EquivalenceParams, evidence_against
from gofevid.pearson import equivalence_test, power_equivalence, power_lack_of_fit

BUDGET_S = 1.0  # these calls take milliseconds, at most 0.25 s here: a wide margin on a busy machine

NUS = (0.1, 1.0, 1e6)
LAMS = (0.0, 1.0, LAM_MAX)
LEVELS = (1e-300, 0.5, 1 - 1e-16)
STATS = (0.0, 1.0, 1e300)


def _kept(lam: float, level: float) -> bool:
    """False for the quantile left out above: level 1e-300 at LAM_MAX."""
    return not (lam == LAM_MAX and level == 1e-300)


POINTS = [(nu, lam, x) for nu, lam in itertools.product(NUS, LAMS)
          for x in (1e-300, nu + lam, 1e300)]
LAWS_AT_LEVELS = [c for c in itertools.product(NUS, LAMS, LEVELS) if _kept(c[1], c[2])]
DESIGNS = [c for c in itertools.product(NUS, LAMS, LAMS, LEVELS) if _kept(c[1], c[3])]
TESTS = [c for c in itertools.product(NUS, LAMS, STATS, LEVELS) if _kept(c[1], c[3])]

CALLS = {
    "chisq_cdf": (lambda nu, lam, x: chisq_cdf(x, ChiSqParams(nu, lam)), POINTS),
    "chisq_density": (lambda nu, lam, x: chisq_density(x, ChiSqParams(nu, lam)), POINTS),
    "chisq_quantile": (lambda nu, lam, p: chisq_quantile(p, ChiSqParams(nu, lam)),
                       LAWS_AT_LEVELS),
    "power_lack_of_fit": (lambda nu, lam, alpha: power_lack_of_fit(alpha, nu, lam),
                          list(itertools.product(NUS, LAMS, LEVELS))),
    "power_equivalence": (lambda nu, lambda0, lam, alpha:
                          power_equivalence(alpha, EquivalenceParams(nu, lambda0), lam), DESIGNS),
    "equivalence_test": (lambda nu, lambda0, s, alpha:
                         equivalence_test(s, EquivalenceParams(nu, lambda0), alpha).critical_value,
                         TESTS),
    "evidence_against": (lambda nu, s: evidence_against(s, nu).t,
                         list(itertools.product(NUS, STATS))),
}


@pytest.mark.parametrize("name", CALLS)
def test_corner_calls_end_in_budget(name):
    call, corners = CALLS[name]
    # cached critical values would hide a slow first evaluation
    dist._quantile.cache_clear()
    dist._lof_critical.cache_clear()
    failures = []
    for args in corners:
        start = time.perf_counter()
        try:
            value = call(*args)
        except ValueError as exc:
            value = 0.0 if str(exc) else math.nan
        elapsed = time.perf_counter() - start
        if elapsed > BUDGET_S or not math.isfinite(value):
            failures.append((args, value, round(elapsed, 3)))
    assert not failures
