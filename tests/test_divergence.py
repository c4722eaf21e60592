import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from gofevid.boundary import least_divergent_point
from gofevid.dist import ChiSqParams, chisq_cdf
from gofevid.divergence import (
    J_noncentral,
    J_uniform,
    chisq_density,
    signed_root_J,
)
from gofevid.evidence import (
    EquivalenceParams,
    expected_evidence_against,
    expected_evidence_equiv,
)

U6 = np.full(6, 1 / 6)


class TestJUniform:
    def test_zero_at_uniform(self):
        assert J_uniform(U6, 5) == pytest.approx(0.0, abs=1e-15)

    def test_p7_value(self):
        assert abs(J_uniform(least_divergent_point(6, 0.15), 1) - 0.107) < 5e-4

    def test_agrees_with_general_form(self):
        # n sum((p_i - q_i) ln(p_i / q_i)), the symmetrized divergence of two
        # multinomials, at q = uniform
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.dirichlet(np.full(6, 3.0))
            general = 3 * ((p - U6) * np.log(p / U6)).sum()
            assert abs(J_uniform(p, 3) - general) < 1e-12

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            J_uniform(np.array([0.0, 0.5, 0.5]), 1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="every p entry must exceed 1e-12, got nan"):
            J_uniform([0.5, math.nan])

    @pytest.mark.parametrize("n", [math.nan, math.inf, 0])
    def test_n_must_be_positive_and_finite(self, n):
        with pytest.raises(ValueError, match="n must be positive and finite"):
            J_uniform([0.4, 0.6], n=n)


class TestChiSqDensity:
    def test_nan_stays_nan_and_infinite_x_maps_to_zero(self):
        params = ChiSqParams(5, 1)
        got = chisq_density([1.0, math.nan, math.inf, -math.inf], params)
        assert got[0] == chisq_density(1.0, params) > 0
        assert math.isnan(got[1]) and math.isnan(chisq_cdf(math.nan, params))
        assert got[2] == got[3] == 0.0

    def test_exponential_special_case(self):
        assert chisq_density(1.0, ChiSqParams(2, 0)) == pytest.approx(
            math.exp(-0.5) / 2, rel=1e-12)

    def test_normalizes(self):
        params = ChiSqParams(5, 8)
        hi = 5 + 8 + 40 * math.sqrt(2 * 5 + 4 * 8)
        x = np.linspace(0, hi, 200_001)
        total = np.trapezoid(chisq_density(x, params), x)
        assert abs(total - 1.0) < 1e-6

    def test_matches_cdf_derivative(self):
        params = ChiSqParams(5, 12)
        h = 1e-5
        for x in np.linspace(1.0, 40.0, 20):
            deriv = (chisq_cdf(x + h, params) - chisq_cdf(x - h, params)) / (2 * h)
            assert abs(deriv - chisq_density(float(x), params)) < 1e-6

    def test_nonpositive_x(self):
        assert chisq_density(0.0, ChiSqParams(5, 8)) == 0.0
        assert chisq_density(-1.0, ChiSqParams(5, 8)) == 0.0

    def test_matches_scipy(self):
        for nu, lam in [(1, 0.5), (5, 8), (14, 20.117)]:
            x = np.linspace(0.05, nu + lam + 30, 60)
            got = chisq_density(x, ChiSqParams(nu, lam))
            want = stats.ncx2.pdf(x, nu, lam)
            assert np.max(np.abs(got / want - 1.0)) < 1e-8


class TestJNoncentral:
    def test_zero_at_equal(self):
        assert J_noncentral(5, 8, 8) == 0.0

    def test_against_expected_evidence(self):
        got = math.sqrt(J_noncentral(5, 8, 0))
        want = expected_evidence_against(5, 8)
        assert abs(got - want) / want < 0.10

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a, b = rng.uniform(0, 25, 2)
            assert J_noncentral(5, a, b) == pytest.approx(
                J_noncentral(5, b, a), abs=2e-6)

    def test_positive_when_distinct(self):
        assert J_noncentral(5, 3, 9) > 1e-3

    def test_trapezoid_oracle(self):
        for nu, a, b in [(5, 12, 6), (5, 8, 0), (1, 4, 10)]:
            assert abs(J_noncentral(nu, a, b) - oracles.trapezoid_J(nu, a, b)) < 1e-5

    # oracles.ncx2_J_mp(nu, a, b): mpmath at 30 digits on the Bessel-form
    # densities, stored so the suite stays fast; nu < 0.05 also covers the
    # closed-form sliver below the smallest normal float
    MPMATH_J = {
        (0.3, 0, 5): 4.557261047346813,
        (0.5, 3, 7): 0.8825247048216063,
        (0.5, 12, 6): 1.0651192395580322,
        (1.5, 3, 9): 1.5022825894141905,
        (2.5, 12, 6): 0.9350435639604784,
        (1, 12, 200): 114.01921808645021,
        (5, 12, 6): 0.818785013774845,
        (14, 12, 200): 101.62594718991964,
        (0.01, 0, 5): 8.215627990634427,
        (0.001, 0, 5): 10.397984461168333,
        (1e-4, 3, 7): 0.9781878835731168,
    }

    @pytest.mark.parametrize("args", list(MPMATH_J))
    def test_mpmath_grid(self, args):
        assert J_noncentral(*args) == pytest.approx(self.MPMATH_J[args], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("args", [
        (J_noncentral, 1, 12, 200),
        (J_noncentral, 5, 1e4, 1.1e4),
        (chisq_density, np.linspace(1e6 - 1e4, 1e6 + 1e4, 200), ChiSqParams(5, 1e6)),
    ])
    def test_bounded_memory(self, args):
        # the log-density runs on chunks of 2^16 (mixture terms x points)
        # values; one unchunked (257 x 2940) mixture array of J alone is 6 MB,
        # and the density's (17011 x 200) one 26 MB
        fn, *arguments = args
        J_noncentral(5, 12, 6)
        tracemalloc.start()
        try:
            fn(*arguments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_monotone_agreement_with_mean_curve(self):
        lams = list(range(2, 31, 2))
        sj = [math.sqrt(J_noncentral(5, lam, 0)) for lam in lams]
        kk = [expected_evidence_against(5, lam) for lam in lams]
        assert all(a < b for a, b in zip(sj, sj[1:]))
        assert all(a < b for a, b in zip(kk, kk[1:]))
        rel = [abs(a - b) / b for a, b in zip(sj, kk)]
        assert max(rel) < 0.15


class TestSignedRootJ:
    def test_zero_at_boundary(self):
        assert signed_root_J(EquivalenceParams(5, 12), 12.0) == 0.0

    def test_agrees_with_expected_evidence(self):
        params = EquivalenceParams(5, 12)
        got = signed_root_J(params, 6.0)
        want = expected_evidence_equiv(params, 6.0)
        assert abs(got - want) / abs(want) < 0.15

    def test_sign(self):
        params = EquivalenceParams(5, 12)
        assert signed_root_J(params, 4.0) > 0
        assert signed_root_J(params, 20.0) < 0
