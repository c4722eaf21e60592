import math
import re
import time

import numpy as np
import pytest
from scipy import special
from scipy.special import cython_special

import oracles
from gofevid import dist
from gofevid.boundary import euclid_d, lambda0_uniform, least_divergent_point
from gofevid.dist import LAM_MAX, ChiSqParams, RandomStream, chisq_cdf, chisq_quantile, sample_chisq
from gofevid.evidence import EquivalenceParams, equiv_transform, expected_evidence_equiv
from gofevid.pearson import (
    CellData,
    equivalence_test,
    multinomial_power_mc,
    pearson_stat,
    power_equivalence,
    power_lack_of_fit,
)

DIE = np.array([17, 16, 25, 9, 16, 17])
U6 = np.full(6, 1 / 6)


class TestCellData:
    def test_die_fields(self):
        cells = CellData(counts=DIE, null_probs=U6)
        assert cells.n == 100
        assert len(cells.counts) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            CellData(counts=DIE, null_probs=U6[:5])
        with pytest.raises(ValueError):
            CellData(counts=np.array([-1, 2]), null_probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            CellData(counts=np.array([1, 2]), null_probs=np.array([0.9, 0.2]))
        with pytest.raises(ValueError):
            CellData(counts=np.array([1, 2]), null_probs=np.array([1.0 - 1e-13, 1e-13]))

    @pytest.mark.parametrize("counts,probs,message", [
        ([-1, 4], [0.5, 0.5], "nonnegative"),
        ([1, 2], [1.0 - 1e-13, 1e-13], "exceed 1e-12"),
        ([3, 4], [0.9, 0.2], "sum to 1, got 1.1"),
        ([0, 0], [0.5, 0.5], "total count must be positive"),
        ([1.0, 2.0], [0.5, 0.5], "integers"),
        ([3, 4], [0.5, math.nan], "null_probs entry must exceed 1e-12, got nan"),
    ])
    def test_rejects(self, counts, probs, message):
        with pytest.raises(ValueError, match=message):
            CellData(counts=np.array(counts), null_probs=np.array(probs))


class TestPearsonStat:
    def test_die(self):
        assert abs(pearson_stat(CellData(counts=DIE, null_probs=U6)) - 7.76) < 0.005

    def test_zero_at_exact_fit(self):
        cells = CellData(counts=np.array([25, 25, 25, 25]), null_probs=np.full(4, 0.25))
        assert pearson_stat(cells) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        base = CellData(counts=DIE, null_probs=U6)
        s0 = pearson_stat(base)
        for _ in range(5):
            perm = rng.permutation(6)
            s1 = pearson_stat(CellData(counts=DIE[perm], null_probs=U6[perm]))
            assert s1 == pytest.approx(s0, rel=1e-12)

    def test_doubling_counts_doubles_statistic(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            probs = rng.dirichlet(np.full(5, 3.0))
            counts = rng.multinomial(200, probs)
            if counts.min() == 0:
                counts = counts + 1
            s1 = pearson_stat(CellData(counts=counts, null_probs=probs))
            s2 = pearson_stat(CellData(counts=2 * counts, null_probs=probs))
            assert s2 == pytest.approx(2 * s1, rel=1e-12)


def noncentrality(n, null_probs, alt_probs):
    """n sum((q_i - p_i)^2 / p_i): the Pearson noncentrality of alternative q."""
    return n * ((alt_probs - null_probs) ** 2 / null_probs).sum()


class TestNcpLambda:
    def test_p7_value(self):
        p7 = least_divergent_point(6, 0.15)
        assert noncentrality(100, U6, p7) == pytest.approx(100 * 6 * 0.15**2, rel=1e-12)

    def test_remark3_cross_check(self):
        # the least-divergent point at d0 = k / sqrt(r (r - 1)) sits on the
        # equivalence boundary n k^2 / (r - 1)
        d0 = 0.5 / math.sqrt(30.0)
        lam = noncentrality(428, U6, least_divergent_point(6, d0))
        assert lam == pytest.approx(lambda0_uniform(428, 6, 0.5), rel=1e-12)
        assert abs(lam - 21.4) < 1e-9

    def test_uniform_identity_with_euclid(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = rng.dirichlet(np.full(6, 5.0))
            want = 100 * 6 * euclid_d(p, U6) ** 2
            assert noncentrality(100, U6, p) == pytest.approx(want, rel=1e-10)


class TestPowerLackOfFit:
    def test_size_at_null(self):
        assert power_lack_of_fit(0.05, 5, 0.0) == pytest.approx(0.05, abs=1e-9)

    def test_p7_noncentrality_bracket(self):
        assert 0.75 < power_lack_of_fit(0.05, 5, 13.5) < 0.90

    def test_increasing_in_lambda(self):
        vals = [power_lack_of_fit(0.05, 5, lam) for lam in (0, 5, 13.5, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [0.05, 1e-6, 1e-10, 1e-12])
    def test_matches_mpmath(self, alpha):
        # the critical value comes from the upper tail, so a small alpha keeps its
        # relative precision (inverting the CDF at 1 - alpha gave 4.9e-12 at
        # alpha = 1e-6 and 1e-6 at 1e-12); a power below 1e-3 is SciPy's upper
        # tail, not 1 - CDF (which gave 2.2e-5 at alpha = 1e-12, lam = 0), so
        # powers down to alpha keep it too
        for nu in (1, 5, 14):
            c = oracles.chisq_critical_mp(alpha, nu)
            for lam in (0.0, 1.0, 30.0, 60.0):
                want = oracles.ncx2_sf_mp(c, nu, lam)
                assert want > 1e-13
                assert power_lack_of_fit(alpha, nu, lam) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, nu, lam", [(1e-300, 5, 200.0), (1e-300, 5, 1000.0),
                                                (1e-100, 0.3, 60.0), (1e-30, 300, 1000.0),
                                                (1e-100, 50, 200.0), (1e-100, 1e7, 0.0)])
    def test_small_powers_far_out(self, alpha, nu, lam):
        # at lam = 200 the power is 2.3e-119 (nu = 5) and 3.4e-22 (nu = 50); at
        # nu = 1e7, lam = 0 SciPy's noncentral upper tail is 3.2e-10 off, the
        # central one is not
        c = special.chdtri(nu, alpha)
        want = oracles.ncx2_sf_mp(c, nu, lam)
        assert power_lack_of_fit(alpha, nu, lam) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_small_power_grid(self):
        # every power below 1e-3 on this grid, 112 points, against 40-digit sums
        worst, points = 0.0, 0
        for nu in (0.3, 1, 5, 14, 50, 300):
            for lam in (1e-3, 0.1, 1, 10, 60, 200, 1000):
                for alpha in (1e-3, 1e-6, 1e-12, 1e-30, 1e-100):
                    c = special.chdtri(nu, alpha)
                    got = power_lack_of_fit(alpha, nu, lam)
                    if got < 1e-3:
                        worst = max(worst, abs(got / oracles.ncx2_sf_mp(c, nu, lam) - 1.0))
                        points += 1
        assert points == 112
        assert worst <= 5e-14

    def test_overflowing_noncentrality_raises(self):
        # SciPy's chndtr gives NaN at lam = 1e20, far above LAM_MAX
        assert power_lack_of_fit(0.05, 5, LAM_MAX) == 1.0
        with pytest.raises(ValueError, match="nu = 5.0, lam = 1e[+]20: lam must be at most"):
            power_lack_of_fit(0.05, 5, 1e20)

    def test_critical_value_shared_with_monte_carlo(self):
        est = multinomial_power_mc(RandomStream(0), 100, U6, U6, 1e-6, 1000)
        assert est.critical_value == special.chdtri(5, 1e-6)
        assert 1.0 - chisq_cdf(est.critical_value, ChiSqParams(5, 13.5)) == \
            power_lack_of_fit(1e-6, 5, 13.5)


class TestPowerEquivalence:
    def test_size_at_boundary(self):
        params = EquivalenceParams(5, 12)
        assert power_equivalence(0.05, params, 12.0) == pytest.approx(0.05, abs=1e-9)

    def test_decreasing_in_lambda(self):
        params = EquivalenceParams(5, 12)
        vals = [power_equivalence(0.05, params, lam) for lam in (0.0, 6.0, 12.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_overflowing_noncentrality_raises(self):
        # SciPy's chndtr gives NaN at lam = 1e19, far above LAM_MAX
        assert power_equivalence(0.05, EquivalenceParams(5, 12), LAM_MAX) == 0.0
        with pytest.raises(ValueError, match="nu = 5.0, lam = 1e[+]19: lam must be at most"):
            power_equivalence(0.05, EquivalenceParams(5, 12), 1e19)

    @pytest.mark.parametrize("alpha", [0.05, 1e-6])
    def test_equals_the_public_quantile_and_cdf(self, alpha):
        for nu, lambda0 in ((1.0, 12.0), (5.0, 12.0), (14.0, 200.0)):
            params = EquivalenceParams(nu, lambda0)
            c = chisq_quantile(alpha, ChiSqParams(nu, lambda0))
            for lam in (0.0, 1.0, 12.0, 60.0):
                assert power_equivalence(alpha, params, lam) == chisq_cdf(c, ChiSqParams(nu, lam))
            assert equivalence_test(c, params, alpha).critical_value == c

    def test_matches_mc(self):
        params = EquivalenceParams(5, 12)
        want = power_equivalence(0.05, params, 0.0)
        assert 0.0 < want < 1.0
        draws = sample_chisq(RandomStream(3, 1), ChiSqParams(5, 0), size=100_000)
        from gofevid.dist import chisq_quantile
        c = chisq_quantile(0.05, ChiSqParams(5, 12))
        assert abs((draws <= c).mean() - want) < 0.01


class TestScalarKernels:
    """The scalar calls use scipy.special.cython_special; its kernels must
    return the ufuncs' values bit for bit, so no output moves."""

    NUS = (0.3, 1, 2, 5, 14, 50, 300)
    LAMS = (0, 1e-3, 0.5, 5, 30, 200, 1000)
    ALPHAS = (1e-12, 1e-6, 0.01, 0.05, 0.5, 0.95)

    def test_equal_to_the_ufuncs(self):
        points = 0
        for nu in self.NUS:
            for alpha in self.ALPHAS:
                c = special.chdtri(nu, alpha)
                assert cython_special.chdtri(nu, alpha) == c
                assert cython_special.chdtrc(nu, c) == special.chdtrc(nu, c)
                for lam in self.LAMS:
                    q = special.chndtrix(alpha, nu, lam)
                    assert cython_special.chndtrix(alpha, nu, lam) == q
                    assert cython_special.chndtr(c, nu, lam) == special.chndtr(c, nu, lam)
                    assert cython_special.chndtr(q, nu, lam) == special.chndtr(q, nu, lam)
                    assert cython_special.chdtrc(nu + 2 * lam, c) == special.chdtrc(nu + 2 * lam, c)
                    points += 1
        assert points == 294


class TestCriticalValueCache:
    """Each test's design (alpha, nu[, lambda0]) has one critical value,
    computed once and shared by the power and test calls."""

    def test_repeated_design_hits_the_cache(self):
        power_lack_of_fit(0.0123, 7, 1.0)
        before = dist._lof_critical.cache_info()
        power_lack_of_fit(0.0123, 7.0, 3.0)
        multinomial_power_mc(RandomStream(0), 50, [0.125] * 8, [0.125] * 8, 0.0123, 1000)  # nu = 7
        after = dist._lof_critical.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)

        params = EquivalenceParams(7.25, 3.5)
        power_equivalence(0.0123, params, 1.0)
        before = dist._quantile.cache_info()
        power_equivalence(0.0123, params, 2.0)
        equivalence_test(1.0, params, 0.0123)
        after = dist._quantile.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)

    @pytest.mark.parametrize("call", [
        lambda: power_lack_of_fit(math.nan, 5, 1),
        lambda: power_lack_of_fit(0.05, math.nan, 1),
        lambda: power_lack_of_fit(1.5, 5, 1),
        lambda: power_lack_of_fit(0.05, -5, 1),
        lambda: power_lack_of_fit(0.05, 5, -1),
        lambda: power_equivalence(math.nan, EquivalenceParams(5, 12), 1),
        lambda: power_equivalence(0.05, EquivalenceParams(5, 12), math.nan),
        lambda: power_equivalence(0.05, EquivalenceParams(5, math.nan), 1),
        lambda: equivalence_test(1.0, EquivalenceParams(5, 12), 0.0),
        lambda: equivalence_test(1.0, EquivalenceParams(math.inf, 12), 0.05),
        lambda: multinomial_power_mc(RandomStream(0), 50, U6, U6, math.nan, 1000),
    ])
    def test_bad_design_is_never_a_key(self, call):
        before = dist._lof_critical.cache_info(), dist._quantile.cache_info()
        with pytest.raises(ValueError):
            call()
        assert (dist._lof_critical.cache_info(), dist._quantile.cache_info()) == before

    def test_int_float_and_numpy_arguments_agree(self):
        lof = {power_lack_of_fit(alpha, nu, 13.5)
               for alpha in (0.05, np.float64(0.05)) for nu in (5, 5.0, np.float64(5), np.int64(5))}
        assert lof == {power_lack_of_fit(0.05, 5, 13.5)}
        equiv = {equivalence_test(1.0, EquivalenceParams(nu, lambda0), alpha).critical_value
                 for alpha in (0.05, np.float64(0.05))
                 for nu in (5, 5.0, np.float64(5)) for lambda0 in (12, 12.0, np.float64(12))}
        assert equiv == {dist._quantile(0.05, 5.0, 12.0)}
        for value in equiv:
            assert type(value) is float

    def test_power_and_test_share_the_critical_value(self):
        est = multinomial_power_mc(RandomStream(0), 100, U6, U6, 0.05, 1000)
        c = dist._lof_critical(5.0, 0.05)
        assert est.critical_value == c
        assert power_lack_of_fit(0.05, 5, 13.5) == 1.0 - special.chndtr(c, 5, 13.5)

        params = EquivalenceParams(5, 12)
        c = equivalence_test(1.0, params, 0.05).critical_value
        assert c == dist._quantile(0.05, 5.0, 12.0)
        assert power_equivalence(0.05, params, 1.0) == special.chndtr(c, 5, 1.0)



class TestUncomputableQuantile:
    """SciPy's chndtrix is NaN from about lam = 1.66e11 at p = 0.05, after a
    search of up to seconds; a critical value above LAM_MAX raises before that
    search instead of deciding on NaN, and is not cached."""

    @pytest.mark.parametrize("call, lam", [
        (lambda: chisq_quantile(0.05, ChiSqParams(5, 1e12)), "1000000000000.0"),
        (lambda: power_equivalence(0.05, EquivalenceParams(5, 1e17), 0.0), "1e+17"),
        # s = 3 lies far below the true critical value, about 1e17: not a retain
        (lambda: equivalence_test(3.0, EquivalenceParams(5, 1e17), 0.05), "1e+17"),
    ])
    def test_raises_naming_nu_and_lam(self, call, lam):
        size = dist._quantile.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match=f"nu = 5.0, lam = {re.escape(lam)}:"):
                call()
        assert dist._quantile.cache_info().currsize == size

    def test_finite_at_lambda0_1e10(self):
        params = EquivalenceParams(5, 1e10)
        c = chisq_quantile(0.05, ChiSqParams(5, 1e10))
        assert 0.999 * 1e10 < c < 1e10
        assert equivalence_test(3.0, params, 0.05).critical_value == c
        assert power_equivalence(0.05, params, 0.0) == 1.0
        assert power_equivalence(0.05, params, 1e10) == pytest.approx(0.05, rel=1e-9)


class TestLamMax:
    """Every evaluation of chi2(nu, lam) accepts lam up to LAM_MAX = 1e10, where
    SciPy's kernels are finite, and rejects a larger lam before any kernel runs."""

    ABOVE = math.nextafter(dist.LAM_MAX, math.inf)
    PARAMS = EquivalenceParams(5, 12)

    @pytest.mark.parametrize("call", [
        lambda lam: chisq_cdf(lam + 5, ChiSqParams(5, lam)),
        lambda lam: chisq_quantile(0.95, ChiSqParams(5, lam)),
        lambda lam: power_lack_of_fit(0.05, 5, lam),
        lambda lam: power_equivalence(0.05, TestLamMax.PARAMS, lam),
        lambda lam: power_equivalence(0.05, EquivalenceParams(5, lam), 0.0),
        lambda lam: equivalence_test(3.0, EquivalenceParams(5, lam), 0.05).critical_value,
    ], ids=["chisq_cdf", "chisq_quantile", "power_lack_of_fit", "power_equivalence-lam",
            "power_equivalence-lambda0", "equivalence_test-lambda0"])
    def test_finite_at_the_bound_and_rejected_above_it(self, call):
        assert math.isfinite(call(dist.LAM_MAX))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"nu = 5.0, lam = {self.ABOVE!r}: lam must be at most"):
            call(self.ABOVE)
        assert time.perf_counter() - start < 0.1

    def test_transforms_stay_open(self):
        params = EquivalenceParams(5, 1e17)
        assert math.isfinite(equiv_transform(3.0, params))
        assert math.isfinite(expected_evidence_equiv(params, 1e17))


class TestEquivalenceTest:
    def test_zero_statistic_rejects(self):
        for lam0 in (1.0, 5.0, 12.0):
            for alpha in (0.001, 0.01, 0.05):
                res = equivalence_test(0.0, EquivalenceParams(5, lam0), alpha)
                assert res.reject and res.decision == "reject_nonequivalence"

    def test_large_statistic_retains(self):
        res = equivalence_test(12.0 + 50.0, EquivalenceParams(5, 12), 0.05)
        assert not res.reject and res.decision == "retain"

    def test_single_flip_and_critical_value(self):
        params = EquivalenceParams(5, 12)
        res = equivalence_test(1.0, params, 0.05)
        c = res.critical_value
        sweep = [equivalence_test(s, params, 0.05).reject
                 for s in np.linspace(0, 3 * c, 400)]
        flips = sum(a != b for a, b in zip(sweep, sweep[1:]))
        assert flips == 1
        assert equivalence_test(c - 1e-9, params, 0.05).reject
        assert not equivalence_test(c + 1e-9, params, 0.05).reject


class TestMultinomialPowerMC:
    def test_size_under_null(self):
        est = multinomial_power_mc(RandomStream(10, 0), 100, U6, U6, 0.05, 20_000)
        assert abs(est.power - 0.05) < 3 * est.se + 0.005

    def test_p7_power(self):
        p7 = least_divergent_point(6, 0.15)
        est = multinomial_power_mc(RandomStream(10, 1), 100, p7, U6, 0.05, 20_000)
        assert abs(est.power - 0.762) < 0.02

    def test_se_scaling(self):
        est1 = multinomial_power_mc(RandomStream(10, 2), 100, U6, U6, 0.05, 4_000)
        est2 = multinomial_power_mc(RandomStream(10, 2), 100, U6, U6, 0.05, 16_000)
        assert est2.se < est1.se
        assert est1.se / est2.se == pytest.approx(2.0, rel=0.35)

    def test_hits_equal_scalar_loop(self):
        # the per-replication loop that the stacked rows replace: replication
        # i is the i-th multinomial drawn from the stream's generator
        p7 = least_divergent_point(6, 0.15)
        n, reps = 100, 3000
        est = multinomial_power_mc(RandomStream(12, 4), n, p7, U6, 0.05, reps)
        gen = RandomStream(12, 4).gen
        expected = n * U6
        hits = 0
        for _ in range(reps):
            counts = gen.multinomial(n, p7)
            hits += ((counts - expected) ** 2 / expected).sum() >= est.critical_value
        assert est.power == hits / reps

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            multinomial_power_mc(RandomStream(0, 0), 100, U6, U6, 0.05, 999)

    def test_null_probs_validated(self):
        bad = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            multinomial_power_mc(RandomStream(0, 0), 100, U6, bad, 0.05, 1000)

    def test_true_probs_validated(self):
        short = np.array([0.2, 0.2, 0.2, 0.2, 0.1])  # sums to 0.9
        with pytest.raises(ValueError, match="true_probs"):
            multinomial_power_mc(RandomStream(0, 0), 100, short, np.full(5, 0.2), 0.05, 1000)
        negative = np.array([0.5, 0.5, 0.2, -0.2, 0.0, 0.0])
        with pytest.raises(ValueError, match="true_probs"):
            multinomial_power_mc(RandomStream(0, 0), 100, negative, U6, 0.05, 1000)

    def test_asymptotic_vs_exact_gap(self):
        # the noncentral approximation overshoots the exact multinomial power
        # at n=100 (0.823 vs 0.762); keep the documented envelope
        p7 = least_divergent_point(6, 0.15)
        est = multinomial_power_mc(RandomStream(10, 3), 100, p7, U6, 0.05, 20_000)
        asym = power_lack_of_fit(0.05, 5, 100 * 6 * 0.15**2)  # p7's noncentrality, 13.5
        gap = abs(asym - est.power)
        assert gap < 0.08
