"""Checks of the quadrature oracles against closed forms, adaptive quadrature
and each other."""

import math

import pytest
from scipy import integrate, stats

import oracles


@pytest.mark.parametrize("nu,lam", [(1.0, 0.0), (1.0, 7.0), (5.0, 0.0), (5.0, 35.0)])
def test_moments_of_s_match_cumulants(nu, lam):
    # kappa_n = 2^(n-1) (n-1)! (nu + n lam); mu4 = kappa4 + 3 kappa2^2
    k2 = 2.0 * (nu + 2.0 * lam)
    k4 = 48.0 * (nu + 4.0 * lam)
    mean, sd, mu4 = oracles.exact_moments(lambda s: s, nu, lam)
    assert mean == pytest.approx(nu + lam, rel=1e-12)
    assert sd == pytest.approx(math.sqrt(k2), rel=1e-12)
    assert mu4 == pytest.approx(k4 + 3.0 * k2**2, rel=1e-11)


def test_mean_of_root_matches_closed_form():
    # E sqrt(2 S) = 2 / sqrt(pi) for S ~ chi2(1)
    mean, _, _ = oracles.exact_moments(lambda s: (2.0 * s) ** 0.5, 1.0, 0.0)
    assert mean == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)


@pytest.mark.parametrize("nu,lam", [(1.0, 1.0), (5.0, 5.0)])
def test_transform_moments_match_adaptive_quad(nu, lam):
    fn = lambda s: float(oracles.lof_evidence(s, nu))
    pdf = lambda x: stats.ncx2.pdf(x, nu, lam)
    hi = nu + lam + 40.0 * math.sqrt(2.0 * nu + 4.0 * lam) + 20.0
    quad = lambda g: integrate.quad(lambda x: g(x) * pdf(x), 0.0, hi,
                                    points=[nu], limit=400)[0]
    m = quad(fn)
    var = quad(lambda x: (fn(x) - m) ** 2)
    mu4 = quad(lambda x: (fn(x) - m) ** 4)
    mean, sd, got_mu4 = oracles.exact_moments(lambda s: oracles.lof_evidence(s, nu), nu, lam)
    assert mean == pytest.approx(m, abs=1e-9)
    assert sd == pytest.approx(math.sqrt(var), abs=1e-9)
    assert got_mu4 == pytest.approx(mu4, abs=1e-8)


def test_J_oracle_at_one_point():
    # the stored mpmath value of tests/test_divergence.py, and the independent
    # trapezoid oracle within its own accuracy
    got = oracles.ncx2_J_mp(5, 12, 6)
    assert got == pytest.approx(0.81878501377484501, rel=1e-15, abs=0.0)
    assert got == pytest.approx(oracles.trapezoid_J(5, 12, 6), abs=1e-6)
