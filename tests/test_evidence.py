import math

import numpy as np
import pytest

import oracles
from gofevid.dist import ChiSqParams, RandomStream, sample_chisq
from gofevid.evidence import (
    Direction,
    EquivalenceParams,
    equiv_transform,
    evidence_against,
    evidence_for_equivalence,
    evidence_label,
    expected_evidence_against,
    expected_evidence_equiv,
    lof_transform,
    max_expected_evidence,
)

NUS = (1.0, 2.0, 5.0, 14.0, 24.0)


class TestEvidenceAgainst:
    def test_die_value(self):
        ev = evidence_against(7.76, 5.0, bias_adjust=True)
        assert abs(ev.t - 0.80) < 0.005
        assert ev.se == 1.0
        assert ev.direction is Direction.AGAINST_NULL

    def test_zero_at_nu_unadjusted(self):
        assert evidence_against(5.0, 5.0, bias_adjust=False).t == pytest.approx(0.0, abs=1e-14)

    def test_minimum_unadjusted(self):
        assert evidence_against(0.0, 5.0, bias_adjust=False).t == pytest.approx(-math.sqrt(10.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            evidence_against(-0.1, 5.0)
        with pytest.raises(ValueError):
            evidence_against(1.0, 0.0)
        with pytest.raises(ValueError):
            evidence_against(float("nan"), 5.0)
        with pytest.raises(ValueError):
            lof_transform(np.array([1.0, np.nan]), 5.0)

    @pytest.mark.parametrize("nu", NUS)
    def test_continuous_and_strictly_increasing(self, nu):
        s = np.linspace(0.0, 5.0 * nu + 10.0, 10_000)
        t = lof_transform(s, nu, bias_adjust=True)
        assert np.all(np.diff(t) > 0)
        below = lof_transform(nu * (1 - 1e-12), nu, bias_adjust=False)
        above = lof_transform(nu * (1 + 1e-12), nu, bias_adjust=False)
        assert abs(below - above) < 1e-6


class TestExpectedEvidenceAgainst:
    def test_value_at_8(self):
        assert abs(expected_evidence_against(5.0, 8.0) - 1.659) < 1e-3

    @pytest.mark.parametrize("nu", NUS)
    def test_zero_at_null(self, nu):
        assert expected_evidence_against(nu, 0.0) == 0.0

    def test_mc_mean_matches_exact_oracle(self):
        # exact quadrature oracle for E[T(S)], S ~ chi2(5, 8)
        exact_mean, exact_sd = oracles.transform_moments(
            lambda x: lof_transform(x, 5.0, bias_adjust=True), 5.0, 8.0)
        draws = sample_chisq(RandomStream(7, 1), ChiSqParams(5, 8), size=40_000)
        t = lof_transform(draws, 5.0, bias_adjust=True)
        mc_se = exact_sd / math.sqrt(len(t))
        assert abs(t.mean() - exact_mean) < 4 * mc_se
        # first-order mean is good to ~0.08 here (bias residual), not exact
        assert abs(t.mean() - expected_evidence_against(5.0, 8.0)) < 0.1


class TestEvidenceForEquivalence:
    def test_maximum_value(self):
        ev = evidence_for_equivalence(0.0, EquivalenceParams(5, 12), bias_adjust=True)
        assert abs(ev.t - 5.2577) < 5e-4
        assert ev.direction is Direction.FOR_EQUIVALENCE

    def test_alpha_emissions_value(self):
        ev = evidence_for_equivalence(8.95, EquivalenceParams(14, 20.117), bias_adjust=True)
        assert abs(ev.t - 3.526) < 5e-4

    @pytest.mark.parametrize("nu,lam0", [(5.0, 12.0), (2.0, 1.0), (14.0, 20.117)])
    def test_root_of_upper_branch(self, nu, lam0):
        # c1 - sqrt(s - nu/2) vanishes at s = lambda0 + nu, the mean of the
        # boundary distribution
        s = lam0 + nu
        assert equiv_transform(s, EquivalenceParams(nu, lam0), bias_adjust=False) == \
            pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            EquivalenceParams(5.0, 0.0)
        with pytest.raises(ValueError):
            EquivalenceParams(0.0, 12.0)
        with pytest.raises(ValueError):
            evidence_for_equivalence(-1.0, EquivalenceParams(5, 12))
        with pytest.raises(ValueError):
            evidence_for_equivalence(float("nan"), EquivalenceParams(5, 12))
        with pytest.raises(ValueError):
            equiv_transform(np.array([np.nan, 3.0]), EquivalenceParams(5, 12))

    @pytest.mark.parametrize("nu", NUS)
    def test_continuous_and_strictly_decreasing(self, nu):
        params = EquivalenceParams(nu, 12.0)
        s = np.linspace(0.0, 5.0 * nu + 30.0, 10_000)
        t = equiv_transform(s, params, bias_adjust=True)
        assert np.all(np.diff(t) < 0)
        below = equiv_transform(nu * (1 - 1e-12), params, bias_adjust=False)
        above = equiv_transform(nu * (1 + 1e-12), params, bias_adjust=False)
        assert abs(below - above) < 1e-6

    @pytest.mark.parametrize("nu", NUS)
    def test_duality_with_lack_of_fit(self, nu):
        # equiv(s) = c1 - sqrt(nu/2) - lof(s) for every s >= 0 (not just s >= nu)
        params = EquivalenceParams(nu, 12.0)
        c1 = math.sqrt(12.0 + nu / 2)
        s = np.linspace(0.0, 6.0 * nu + 40.0, 2_000)
        lhs = equiv_transform(s, params, bias_adjust=False)
        rhs = c1 - math.sqrt(nu / 2) - lof_transform(s, nu, bias_adjust=False)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_no_upper_bound_on_s(self):
        t = equiv_transform(1e6, EquivalenceParams(5, 12), bias_adjust=True)
        assert t < -900.0


class TestExpectedEvidenceEquiv:
    def test_value_at_6(self):
        assert abs(expected_evidence_equiv(EquivalenceParams(5, 12), 6.0) - 0.8924) < 5e-4

    def test_zero_at_boundary(self):
        for nu, lam0 in [(1, 3), (5, 12), (14, 20.117)]:
            assert expected_evidence_equiv(EquivalenceParams(nu, lam0), lam0) == pytest.approx(0.0)

    def test_mc_at_lambda_6(self):
        params = EquivalenceParams(5, 12)
        draws = sample_chisq(RandomStream(7, 2), ChiSqParams(5, 6), size=40_000)
        t = equiv_transform(draws, params, bias_adjust=True)
        assert abs(t.mean() - 0.95) < 0.1
        assert abs(t.std(ddof=1) - 1.03) < 0.1


class TestMaxExpectedEvidence:
    def test_values(self):
        assert abs(max_expected_evidence(EquivalenceParams(5, 12)) - 2.227) < 5e-4
        assert abs(max_expected_evidence(EquivalenceParams(14, 20.117)) - 2.5616) < 5e-4

    def test_vanishes_with_lambda0(self):
        vals = [max_expected_evidence(EquivalenceParams(5, lam0))
                for lam0 in (1.0, 0.1, 0.01, 0.001)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 4e-4


class TestEvidenceLabel:
    def test_cases(self):
        assert str(evidence_label(0.8)) == "negligible (positive)"
        assert evidence_label(3.53).strength == "moderate"
        lbl = evidence_label(-3.3)
        assert lbl.strength == "moderate" and lbl.sign == "negative"

    def test_thresholds(self):
        assert evidence_label(1.644).strength == "negligible"
        assert evidence_label(1.645).strength == "weak"
        assert evidence_label(5.0).strength == "strong"
        assert evidence_label(0.0).sign == "zero"

    def test_domain(self):
        with pytest.raises(ValueError):
            evidence_label(float("inf"))


def _masked_lof(s, nu, bias_adjust):
    """The transform as it was written with boolean-mask scatter."""
    out = np.empty(s.shape)
    lower = s < nu
    out[lower] = np.sqrt(2.0 * s[lower]) - math.sqrt(2.0 * nu)
    out[~lower] = np.sqrt(s[~lower] - 0.5 * nu) - math.sqrt(0.5 * nu)
    if bias_adjust:
        out += 0.2 / math.sqrt(nu)
    return out


def _masked_equiv(s, nu, lam0, bias_adjust):
    c1 = math.sqrt(lam0 + 0.5 * nu)
    c0 = c1 - math.sqrt(0.5 * nu) + math.sqrt(2.0 * nu)
    out = np.empty(s.shape)
    lower = s < nu
    out[lower] = c0 - np.sqrt(2.0 * s[lower])
    out[~lower] = c1 - np.sqrt(s[~lower] - 0.5 * nu)
    if bias_adjust:
        out -= 0.5 / c1
    return out


def _assert_masked_bytes(s, nu, lam0=12.0):
    """Both transforms of s, with and without the bias adjustment, have the
    masked formula's shape and bytes, and leave s as it was."""
    before = s.copy()
    for bias_adjust in (True, False):
        got = lof_transform(s, nu, bias_adjust)
        want = _masked_lof(s, nu, bias_adjust)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got = equiv_transform(s, EquivalenceParams(nu, lam0), bias_adjust)
        want = _masked_equiv(s, nu, lam0, bias_adjust)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert s.tobytes() == before.tobytes()


class TestBranchFreeTransforms:
    """s - nu/2 over the whole array, 2 s written in below s = nu by index,
    one in-place np.sqrt and the branch constants applied the same way give
    the masked formula's bytes exactly."""

    @pytest.mark.parametrize("nu", [0.5, 1.0, 5.0, 14.0])
    @pytest.mark.parametrize("bias_adjust", [True, False])
    def test_byte_identical_to_masked_formula(self, nu, bias_adjust):
        draws = sample_chisq(RandomStream(19, int(nu * 10)), ChiSqParams(nu, 3.0), size=2000)
        s = np.concatenate([[nu, 0.0, np.inf, np.nextafter(nu, 0.0), 0.5 * nu], draws])
        assert (s < nu).any() and (s >= nu).any()
        got = lof_transform(s, nu, bias_adjust)
        assert got.tobytes() == _masked_lof(s, nu, bias_adjust).tobytes()
        got = equiv_transform(s, EquivalenceParams(nu, 12.0), bias_adjust)
        assert got.tobytes() == _masked_equiv(s, nu, 12.0, bias_adjust).tobytes()

    def test_scalars_match_masked_formula(self):
        for s in (0.0, 1.0, 5.0, 7.76, np.inf):
            assert lof_transform(s, 5.0) == _masked_lof(np.array([s]), 5.0, True)[0]
            assert equiv_transform(s, EquivalenceParams(5.0, 12.0)) == \
                _masked_equiv(np.array([s]), 5.0, 12.0, True)[0]

    @pytest.mark.parametrize("nu", [1.0, 5.0])
    def test_all_below(self, nu):
        s = np.linspace(0.0, np.nextafter(nu, 0.0), 1001)
        assert (s < nu).all()
        _assert_masked_bytes(s, nu)

    @pytest.mark.parametrize("nu", [1.0, 5.0])
    def test_all_above(self, nu):
        # at s = nu + lambda0 the unadjusted equivalence evidence is +0.0, not -0.0
        s = np.concatenate([np.linspace(nu, 1e6, 1001), [nu + 12.0, np.inf]])
        assert (s >= nu).all()
        _assert_masked_bytes(s, nu)

    def test_two_dimensional(self):
        draws = sample_chisq(RandomStream(19, 3), ChiSqParams(5.0, 3.0), size=2000)
        s = draws.reshape(40, 50)
        assert (s < 5.0).any() and (s >= 5.0).any()
        _assert_masked_bytes(s, 5.0)
        _assert_masked_bytes(s[:, ::3], 5.0)  # a strided view

    def test_empty(self):
        s = np.empty(0)
        _assert_masked_bytes(s, 5.0)
        assert lof_transform(s, 5.0).dtype == np.float64

    @pytest.mark.parametrize("nu", [1.0, 5.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 25.0])
    def test_calibration_blocks(self, nu, lam):
        # the blocks sim._run_vst transforms: (Z + sqrt(lam))^2 + R, R ~ chi2(nu - 1)
        stream = RandomStream(29, int(10 * lam))
        s = np.square(stream.gen.standard_normal(10_000) + math.sqrt(lam))
        if nu > 1.0:
            s += sample_chisq(stream, ChiSqParams(nu - 1.0), 10_000)
        _assert_masked_bytes(s, nu)
