import math
import re

import numpy as np
import pytest
from scipy import special, stats

import oracles
from gofevid.dist import (
    LAM_MAX,
    MAX_COUNT_CELLS,
    ChiSqParams,
    RandomStream,
    chisq_cdf,
    check_probs,
    chisq_quantile,
    count_pmf,
    count_support,
    normal_quantile,
    sample_chisq,
    sample_family,
)


class TestNormal:
    def test_quantile_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_quantile_095(self):
        assert abs(normal_quantile(0.95) - 1.6449) < 1e-4

    @pytest.mark.parametrize("p", [1e-6, 0.2, 0.999])
    def test_quantile_roundtrip(self, p):
        assert abs(oracles.normal_cdf(normal_quantile(p)) - p) < 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestCheckProbs:
    def test_returns_float_array(self):
        got = check_probs([[1, 0], [0.25, 0.75]], "p")
        assert got.dtype == float and got.tolist() == [[1.0, 0.0], [0.25, 0.75]]

    @pytest.mark.parametrize("p,positive,message", [
        ([0.5, -0.1, 0.6], False, "every q entry must be nonnegative, got -0.1"),
        ([0.5, math.nan, 0.5], False, "every q entry must be nonnegative, got nan"),
        ([1.0, 0.0], True, "every q entry must exceed 1e-12, got 0.0"),
        ([1.0 - 1e-13, 1e-13], True, "exceed 1e-12"),
        ([0.5, math.nan], True, "every q entry must exceed 1e-12, got nan"),
        ([0.5, math.inf], True, "q must sum to 1, got inf"),
        ([[0.5, 0.5], [0.9, 0.2]], False, "q must sum to 1, got 1.1"),
    ])
    def test_rejects_and_names_the_vector(self, p, positive, message):
        with pytest.raises(ValueError, match=message):
            check_probs(p, "q", positive)

    def test_sum_tolerance_is_1e_9(self):
        check_probs([0.5, 0.5 + 5e-10], "q")
        with pytest.raises(ValueError, match="sum to 1"):
            check_probs([0.5, 0.5 + 2e-9], "q")


class TestChiSqParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChiSqParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ChiSqParams(5.0, -1.0)


class TestChiSqCdf:
    def test_central_matches_gamma_oracle(self):
        for nu in (1.0, 2.5, 5.0, 14.0):
            for x in np.linspace(0.1, 4 * nu + 20, 40):
                got = chisq_cdf(float(x), ChiSqParams(nu, 0.0))
                want = oracles.central_chisq_cdf(float(x), nu)
                assert abs(got - want) < 1e-10

    def test_central_095_quantile_value(self):
        assert abs(chisq_cdf(11.0705, ChiSqParams(5, 0)) - 0.95) < 1e-4

    def test_monotone_in_lambda(self):
        vals = [chisq_cdf(10.0, ChiSqParams(5, lam)) for lam in (0, 4, 12)]
        assert vals[0] > vals[1] > vals[2]

    def test_negative_x_is_zero(self):
        assert chisq_cdf(-3.0, ChiSqParams(5, 2)) == 0.0

    def test_scipy_nan_raises(self, monkeypatch):
        # SciPy's chndtr is NaN in the bulk from about lam = 4.18e10, beyond LAM_MAX,
        # so a NaN kernel is stood in for here
        assert chisq_cdf(5 + LAM_MAX, ChiSqParams(5, LAM_MAX)) == pytest.approx(0.5, abs=1e-5)
        monkeypatch.setattr(special, "chndtr", lambda x, nu, lam: np.full(np.shape(x), math.nan))
        with pytest.raises(ValueError, match="nu = 5, lam = 12: SciPy's chndtr returns NaN"):
            chisq_cdf(np.array([1.0, math.nan, 11.07]), ChiSqParams(5, 12))
        assert math.isnan(chisq_cdf(math.nan, ChiSqParams(5, 12)))

    def test_lambda_above_bound_rejected(self):
        # chndtr is finite up to LAM_MAX and NaN in the bulk past about 4.18e10
        with pytest.raises(ValueError, match="nu = 5.0, lam = 100000000000.0: lam must be at most"):
            ChiSqParams(5, 1e11)
        ChiSqParams(5, LAM_MAX)

    def test_matches_scipy_noncentral(self):
        for nu, lam in [(1, 0.5), (5, 8), (5, 12), (14, 20.117), (3, 200.0)]:
            xs = np.linspace(0.01, nu + lam + 8 * math.sqrt(2 * nu + 4 * lam), 50)
            got = chisq_cdf(xs, ChiSqParams(nu, lam))
            want = stats.ncx2.cdf(xs, nu, lam)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_cdf_shape_properties(self):
        xs = np.linspace(0.0, 120.0, 500)
        vals = chisq_cdf(xs, ChiSqParams(5, 12))
        assert np.all(np.diff(vals) >= -1e-14)
        assert vals[0] == 0.0
        assert vals[-1] > 1 - 1e-8
        assert np.all((vals >= 0) & (vals <= 1))


class TestChiSqQuantile:
    def test_central_095(self):
        got = chisq_quantile(0.95, ChiSqParams(5, 0))
        assert abs(got - 11.0705) < 1e-3
        assert abs(got - oracles.central_chisq_quantile(0.95, 5)) < 1e-8

    @pytest.mark.parametrize("theta", [(1, 0), (5, 12), (14, 20.117)])
    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_roundtrip(self, p, theta):
        params = ChiSqParams(*theta)
        assert abs(chisq_cdf(chisq_quantile(p, params), params) - p) < 1e-10

    def test_roundtrip_grid(self):
        params = ChiSqParams(5, 8)
        for p in np.linspace(0.005, 0.995, 125):
            q = chisq_quantile(float(p), params)
            assert abs(chisq_cdf(q, params) - p) < 1e-10

    @pytest.mark.parametrize("nu", [1, 5, 20])
    def test_central_median_below_mean(self, nu):
        assert chisq_quantile(0.5, ChiSqParams(nu, 0)) < nu

    def test_domain(self):
        with pytest.raises(ValueError):
            chisq_quantile(0.0, ChiSqParams(5, 0))
        with pytest.raises(ValueError):
            chisq_quantile(1.0, ChiSqParams(5, 0))

    @pytest.mark.parametrize("nu,p", [(0.1, 0.05), (0.5, 1e-12), (1.0, 1e-12)])
    def test_small_lower_quantiles(self, nu, p):
        # these quantiles lie far below 1e-12, where a root search on [0, hi]
        # with an absolute x tolerance stops at 0
        params = ChiSqParams(nu, 0.0)
        q = chisq_quantile(p, params)
        assert q > 0.0
        assert abs(chisq_cdf(q, params) - p) <= 1e-9 * p

    def test_large_noncentrality(self):
        # boundary noncentralities in the thousands occur for big samples
        params = ChiSqParams(10, 8533.33)
        q = chisq_quantile(0.05, params)
        assert abs(chisq_cdf(q, params) - 0.05) < 1e-10
        assert abs(chisq_cdf(q, params) - stats.ncx2.cdf(q, 10, 8533.33)) < 1e-8


class TestRandomStream:
    def test_identical_keys_identical_sequences(self):
        a = RandomStream(123, 7).gen.standard_normal(16)
        b = RandomStream(123, 7).gen.standard_normal(16)
        assert np.array_equal(a, b)

    def test_sequences_unaffected_by_other_streams(self):
        a = RandomStream(9, 1)
        want = RandomStream(9, 1).gen.standard_normal(8)
        # interleave draws from unrelated streams
        for sid in range(2, 30):
            RandomStream(9, sid).gen.standard_normal(5)
        assert np.array_equal(a.gen.standard_normal(8), want)

    def test_substream_deterministic_and_distinct(self):
        # each table cell draws from RandomStream(seed, cell): the key must fix
        # the sequence, and neighbouring cells or seeds must not share it
        a = RandomStream(4, 5).gen.standard_normal(8)
        assert np.array_equal(RandomStream(4, 5).gen.standard_normal(8), a)
        for other in (RandomStream(4, 6), RandomStream(5, 5), RandomStream(5, 4)):
            assert not np.array_equal(other.gen.standard_normal(8), a)

    def test_wide_keys_stay_distinct(self):
        # SeedSequence([seed, stream_id]) packs both of these into the words 5, 7, 3
        a = RandomStream(5 + 7 * 2**32, 3).gen.standard_normal(8)
        b = RandomStream(5, 7 + 3 * 2**32).gen.standard_normal(8)
        assert not np.array_equal(a, b)
        top = RandomStream(2**64 - 1, 2**64 - 1).gen.standard_normal(8)
        assert not np.array_equal(top, RandomStream(2**64 - 1, 2**32 - 1).gen.standard_normal(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(0, 2**64)

    @pytest.mark.parametrize("key", [(1.7,), (np.float64(2.9),), (True,), ("5",), (0, 1.0), (0, False)])
    def test_non_integers_rejected(self, key):
        # RandomStream(1.7) used to draw seed 1's stream
        name, value = ("seed", key[0]) if len(key) == 1 else ("stream_id", key[1])
        with pytest.raises(ValueError, match=f"^{name} must be an integer from 0 to "
                                             f"18446744073709551615, got {re.escape(repr(value))}$"):
            RandomStream(*key)

    def test_numpy_integers_accepted(self):
        stream = RandomStream(np.uint64(2**64 - 1), np.uint64(3))
        assert (stream.seed, stream.stream_id) == (2**64 - 1, 3)
        assert type(stream.seed) is int and type(stream.stream_id) is int
        assert np.array_equal(stream.gen.standard_normal(4),
                              RandomStream(2**64 - 1, 3).gen.standard_normal(4))


class TestSampleChiSq:
    def test_central_path_skips_poisson(self):
        # identical key: the lam=0 path must consume exactly the gamma draws
        draws = sample_chisq(RandomStream(11, 3), ChiSqParams(5, 0), size=10)
        manual = 2.0 * RandomStream(11, 3).gen.standard_gamma(2.5, size=10)
        assert np.array_equal(draws, manual)

    def test_mean_matches_theory(self):
        draws = sample_chisq(RandomStream(0, 1), ChiSqParams(5, 8), size=100_000)
        se = math.sqrt(42.0 / 100_000)
        assert abs(draws.mean() - 13.0) < 5 * se
        var_se = math.sqrt((draws**4).mean()) / math.sqrt(100_000)  # loose bound
        assert abs(draws.var(ddof=1) - 42.0) < 5 * var_se

    def test_bitwise_reproducible(self):
        a = sample_chisq(RandomStream(5, 9), ChiSqParams(3, 4), size=50)
        b = sample_chisq(RandomStream(5, 9), ChiSqParams(3, 4), size=50)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("nu,lam", [(1, 0), (5, 8), (5, 12), (14, 20)] + [
        (nu, lam) for nu in (0.5, 1.0, 2.5, 5.0) for lam in (0.5, 12.0, 200.0)
        if (nu, lam) != (5.0, 12.0)])
    def test_ks_against_cdf(self, nu, lam):
        draws = np.sort(sample_chisq(RandomStream(42, int(nu * 100 + lam)),
                                     ChiSqParams(nu, lam), size=100_000))
        cdf = chisq_cdf(draws, ChiSqParams(nu, lam))
        n = len(draws)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        assert ks < 0.01


class TestSampleChiSqLayout3:
    """nu >= 1 draws (Z + sqrt(lam))^2 + 2 Gamma((nu - 1)/2); the nu < 1 path
    draws as in stream layout 2 (the central path: test_central_path_skips_poisson)."""

    @pytest.mark.parametrize("nu,lam", [(0.5, 12.0), (0.25, 0.5)])
    def test_poisson_mixture_path_unchanged(self, nu, lam):
        g = RandomStream(3, 7).gen
        manual = 2.0 * g.standard_gamma(0.5 * nu + g.poisson(0.5 * lam, size=1000), size=1000)
        draws = sample_chisq(RandomStream(3, 7), ChiSqParams(nu, lam), size=1000)
        assert draws.tobytes() == manual.tobytes()

    @pytest.mark.parametrize("nu,lam", [(1.0, 12.0), (1.0, 0.5), (2.5, 12.0), (5.0, 200.0)])
    def test_shifted_normal_path(self, nu, lam):
        g = RandomStream(3, 7).gen
        manual = (g.standard_normal(1000) + math.sqrt(lam)) ** 2
        if nu > 1.0:
            manual = manual + 2.0 * g.standard_gamma(0.5 * (nu - 1.0), size=1000)
        draws = sample_chisq(RandomStream(3, 7), ChiSqParams(nu, lam), size=1000)
        assert draws.tobytes() == manual.tobytes()

    # size=None draws one value, of the type each branch has always returned
    @pytest.mark.parametrize("nu,lam,kind,value", [
        (5, 0, float, 8.510340681118414),
        (0.5, 2, float, 4.32536922787946),
        (5, 2, np.float64, 15.259437264092547),
        (1, 2, np.float64, 6.3924978463221835),
    ])
    def test_scalar_draws_pinned(self, nu, lam, kind, value):
        x = sample_chisq(RandomStream(1, 0), ChiSqParams(nu, lam))
        assert type(x) is kind and x == value


class TestSampleFamily:
    def test_normal_and_logistic_and_t(self):
        g = RandomStream(2, 2)
        x = sample_family(g, "normal", size=50_000, mu=3.0, sigma=2.0)
        assert abs(x.mean() - 3.0) < 0.05
        y = sample_family(RandomStream(2, 3), "logistic", size=50_000, loc=-1.0, scale=0.5)
        assert abs(y.mean() + 1.0) < 0.03
        z = sample_family(RandomStream(2, 4), "student_t", size=50_000, df=5.0)
        assert abs(z.mean()) < 0.05

    def test_invalid_parameters(self):
        s = RandomStream(0, 0)
        with pytest.raises(ValueError):
            sample_family(s, "normal", sigma=0.0)
        for family, param in (("normal", "sigma"), ("logistic", "scale"), ("student_t", "df")):
            with pytest.raises(ValueError, match=f"^{param} must be positive and finite, got inf$"):
                sample_family(s, family, size=3, **{param: math.inf})
        with pytest.raises(ValueError):
            sample_family(s, "student_t", df=0.0)
        with pytest.raises(ValueError):
            sample_family(s, "no_such_family")


COUNT_LAWS = [("poisson", 0.001), ("poisson", 1.0), ("poisson", 5.0), ("poisson", 20.0),
              ("neg_binomial", 1.0, 0.01), ("neg_binomial", 20.0, 0.01), ("neg_binomial", 5.0, 2.0)]


class TestCountPmf:
    @pytest.mark.parametrize("law", COUNT_LAWS)
    def test_sums_to_one_and_matches_cdf_differences(self, law):
        pmf = count_pmf(*law)
        K = len(pmf) - 1
        assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(pmf >= 0)
        k = np.arange(K)
        if law[0] == "poisson":
            cdf = special.pdtr(k, law[1])
            ref = stats.poisson.pmf(k, law[1])
        else:
            size, p = 1.0 / law[2], 1.0 / (1.0 + law[2] * law[1])
            cdf = special.betaincc(k + 1.0, size, law[2] * law[1] / (1.0 + law[2] * law[1]))
            ref = stats.nbinom.pmf(k, size, p)
        assert np.array_equal(pmf[:K], np.diff(cdf, prepend=0.0))
        assert np.allclose(pmf[:K], ref, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("law", COUNT_LAWS)
    def test_support_leaves_tail_below_1e_20(self, law):
        K = count_support(*law)
        if law[0] == "poisson":
            sf = lambda k: stats.poisson.sf(k - 1, law[1])
        else:
            sf = lambda k: stats.nbinom.sf(k - 1, 1.0 / law[2], 1.0 / (1.0 + law[2] * law[1]))
        assert sf(K) < 1e-20 <= sf(K - 1)

    def test_alpha_zero_is_poisson(self):
        assert np.array_equal(count_pmf("neg_binomial", 7.0, 0.0), count_pmf("poisson", 7.0))

    def test_cached_and_read_only(self):
        pmf = count_pmf("neg_binomial", 20.0, 0.01)
        assert count_pmf("neg_binomial", 20.0, 0.01) is pmf
        with pytest.raises(ValueError, match="read-only"):
            pmf[0] = 1.0

    @pytest.mark.parametrize("alpha", [1e-10, 1e-15, 1e-17])
    def test_tiny_alpha_zero_cell_matches_closed_form(self, alpha):
        # P(X = 0) = (1 + alpha mu)^(-1/alpha); p = 1/(1 + alpha mu) rounds to 1
        # below alpha mu = 1e-16, so a CDF written in p collapses onto X = 0
        mu = 5.0
        want = math.exp(-math.log1p(alpha * mu) / alpha)
        assert count_pmf("neg_binomial", mu, alpha)[0] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("law", [("poisson", 1e9), ("neg_binomial", 1.0, 1e6)])
    def test_support_above_ceiling_rejected(self, law, monkeypatch):
        # the width is found without allocating; nothing array-sized may be built
        monkeypatch.setattr(np, "arange", None)
        with pytest.raises(ValueError, match=str(MAX_COUNT_CELLS)):
            count_support(*law)
        with pytest.raises(ValueError, match=str(MAX_COUNT_CELLS)):
            count_pmf(*law)

    def test_invalid(self):
        with pytest.raises(ValueError):
            count_pmf("poisson", 0.0)
        with pytest.raises(ValueError):
            count_pmf("geometric", 1.0)
