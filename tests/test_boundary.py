import math

import numpy as np
import pytest

import oracles
from gofevid.boundary import (
    euclid_d,
    inradius,
    lambda0_uniform,
    least_divergent_point,
    sample_size,
    sup_M,
    table2,
)
from gofevid.divergence import J_uniform

U6 = np.full(6, 1 / 6)
DIE_MLE = np.array([0.17, 0.16, 0.25, 0.09, 0.16, 0.17])

# minimum sample sizes at k=1 over m0 x r; the (m0=5, r=25) entry is 1432 by
# direct evaluation (a printed source gives 432, inconsistent with
# monotonicity in m0)
TABLE2_M0 = [1.645, 3.3, 5.0]
TABLE2_R = [2, 3, 4, 5, 6, 10, 25, 100]
TABLE2_EXPECTED = np.array([
    [10, 15, 21, 30, 40, 88, 339, 2560],
    [16, 35, 57, 81, 107, 225, 811, 5676],
    [33, 70, 112, 157, 205, 416, 1432, 9441],
])


class TestMetrics:
    def test_zero_at_equal(self):
        assert euclid_d(U6, U6) == 0.0
        assert sup_M(U6, U6) == 0.0

    def test_p7_distances(self):
        p7 = least_divergent_point(6, 0.15)
        assert abs(euclid_d(p7, U6) - 0.150) < 1e-6
        assert abs(sup_M(p7, U6) - 0.137) < 5e-4

    def test_die_mle_squared_distance(self):
        assert abs(euclid_d(DIE_MLE, U6) ** 2 - 0.012933) < 1e-6

    def test_sup_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rng.dirichlet(np.full(6, 2.0))
            q = rng.dirichlet(np.full(6, 2.0))
            perm = rng.permutation(6)
            assert sup_M(p[perm], q[perm]) == pytest.approx(sup_M(p, q), rel=1e-12)
            assert euclid_d(p[perm], q[perm]) == pytest.approx(euclid_d(p, q), rel=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="every p entry must be nonnegative, got nan"):
            euclid_d([0.5, math.nan], [0.5, 0.5])
        with pytest.raises(ValueError, match="every q entry must be nonnegative, got nan"):
            sup_M([0.5, 0.5], [math.nan, 0.5])

    def test_sum_tolerance_1e_9(self):
        off = [0.5, 0.5 + 1e-7]  # within the former 1e-6 tolerance
        with pytest.raises(ValueError, match="p must sum to 1"):
            euclid_d(off, [0.5, 0.5])
        with pytest.raises(ValueError, match="q must sum to 1"):
            sup_M([0.5, 0.5], off)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            euclid_d(U6, np.full(5, 0.2))
        with pytest.raises(ValueError):
            sup_M(U6, np.full(5, 0.2))


class TestLambda0Uniform:
    def test_values(self):
        assert abs(lambda0_uniform(1207, 16, 0.5) - 20.117) < 1e-3
        assert abs(lambda0_uniform(400, 10, 0.5) - 11.11) < 5e-3
        assert lambda0_uniform(4, 5, 1.0) == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda0_uniform(100, 1, 0.5)
        with pytest.raises(ValueError):
            lambda0_uniform(100, 6, 0.0)
        with pytest.raises(ValueError):
            lambda0_uniform(100, 6, 1.5)

    @pytest.mark.parametrize("n", [math.inf, math.nan, -1])
    def test_n_must_be_positive_and_finite(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer >= 1, got {n!r}$"):
            lambda0_uniform(n, 6, 0.5)


class TestInradius:
    def test_closed_forms(self):
        assert inradius(2) == pytest.approx(1 / math.sqrt(2))
        assert abs(inradius(3) - 1 / math.sqrt(6)) < 1e-12

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_brute_force_boundary_distance(self, r):
        # boundary points of the simplex have at least one zero coordinate
        rng = np.random.default_rng(100 + r)
        n = 100_000
        pts = rng.dirichlet(np.ones(r - 1), size=n)
        full = np.zeros((n, r))
        cols = rng.integers(0, r, size=n)
        mask = np.ones((n, r), dtype=bool)
        mask[np.arange(n), cols] = False
        full[mask] = pts.ravel()
        dists = np.linalg.norm(full - 1.0 / r, axis=1)
        assert dists.min() >= inradius(r) - 1e-9


class TestLeastDivergentPoint:
    def test_closed_form_r6(self):
        p = least_divergent_point(6, 0.15)
        assert abs(p[0] - 0.30360) < 5e-6
        assert np.allclose(p[1:], 0.13928, atol=5e-6)
        assert abs(p.sum() - 1.0) < 1e-12
        assert abs(euclid_d(p, U6) - 0.15) < 1e-12
        assert abs(J_uniform(p, 1) - 0.107) < 5e-4

    def test_small_radius_approaches_uniform(self):
        p = least_divergent_point(6, 1e-9)
        assert np.max(np.abs(p - 1 / 6)) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            least_divergent_point(6, 0.0)
        with pytest.raises(ValueError):
            least_divergent_point(6, math.sqrt(1 - 1 / 6))
        with pytest.raises(ValueError):
            least_divergent_point(1, 0.1)

    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_brute_force_minimality(self, r):
        d0 = 0.15
        p_star = least_divergent_point(r, d0)
        j_star = J_uniform(p_star, 1)
        rng = np.random.default_rng(200 + r)
        pts = oracles.uniform_sphere_simplex(rng, r, d0, 10_000)
        j_vals = ((pts - 1.0 / r) * np.log(pts)).sum(axis=1)
        assert j_vals.min() >= j_star - 1e-9


class TestSampleSize:
    def test_values(self):
        assert sample_size(3.3, 5, 6, 1 / math.sqrt(30)) == 107
        assert sample_size(1.645, 1, 2, 1 / math.sqrt(2)) == 10  # 5r floor binds
        assert sample_size(5, 9, 10, 1 / math.sqrt(90)) == 416

    def test_monotone_in_m0_and_radius(self):
        for r in (3, 6, 10):
            d0 = 1 / math.sqrt(r * (r - 1))
            sizes = [sample_size(m0, r - 1, r, d0) for m0 in (1.0, 2.0, 3.3, 5.0, 8.0)]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))
            shrink = [sample_size(3.3, r - 1, r, d) for d in (d0, d0 / 2, d0 / 4)]
            assert all(a <= b for a, b in zip(shrink, shrink[1:]))

    @pytest.mark.parametrize("m0,d0", [
        (1e308, 1 / math.sqrt(30)),   # the square of m0 overflows
        (3.3, 1e-300 / math.sqrt(30)),  # d0 * d0 underflows to 0
        (1e150, 1e-10),                 # each step is finite, the quotient is not
    ])
    def test_infinite_size_rejected(self, m0, d0):
        with pytest.raises(ValueError, match="not a finite number"):
            sample_size(m0, 5, 6, d0)


class TestTable2:
    def test_k1_grid(self):
        got = table2(TABLE2_M0, TABLE2_R, k=1.0)
        assert np.array_equal(got, TABLE2_EXPECTED)

    def test_half_k_die_column(self):
        # scaling the k=1 entry gives 4*107 = 428, but direct evaluation is
        # authoritative: ceil(4 * 106.63) = 427 (n = 427 already reaches the
        # required boundary noncentrality 21.3255)
        got = table2([3.3], [6], k=0.5)
        assert got[0, 0] == 427
        lam0_needed = (3.3 + math.sqrt(2.5)) ** 2 - 2.5
        assert lambda0_uniform(427, 6, 0.5) >= lam0_needed
        assert lambda0_uniform(426, 6, 0.5) < lam0_needed

    def test_k_domain(self):
        with pytest.raises(ValueError):
            table2([3.3], [6], k=0.0)

    def test_exact_past_2_63(self):
        # the entry samplesize prints for --m0 3.3 --r 6 --k 1e-9, past int64
        got = table2([3.3], [6], 1e-9)
        assert got[0, 0] == 106627581392778264576
        assert type(got[0, 0]) is int

    @pytest.mark.parametrize("r", [1, 0])
    def test_r_domain_checked_before_d0(self, r):
        # d0 = k / sqrt(r (r - 1)) would divide by zero first
        with pytest.raises(ValueError, match="r must be an integer >= 2"):
            table2([1.0], [r])


class TestInscribedBallOfPolytope:
    @pytest.mark.parametrize("r", [3, 4, 6])
    @pytest.mark.parametrize("k", [1.0, 0.5])
    def test_ball_boundary_inside_sup_polytope(self, r, k):
        radius = k / math.sqrt(r * (r - 1))
        rng = np.random.default_rng(17 * r + int(10 * k))
        z = rng.standard_normal((10_000, r))
        z -= z.mean(axis=1, keepdims=True)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        pts = 1.0 / r + radius * z
        assert np.all(np.abs(pts - 1.0 / r).max(axis=1) <= k / r + 1e-12)

    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_touching_points(self, r):
        k = 0.5
        direction = np.full(r, 1.0 / (r - 1))
        direction[0] = -1.0
        for sign in (+1.0, -1.0):
            p = 1.0 / r + sign * (k / r) * direction
            assert np.linalg.norm(p - 1.0 / r) == pytest.approx(k / math.sqrt(r * (r - 1)))
            assert np.abs(p - 1.0 / r).max() == pytest.approx(k / r)
