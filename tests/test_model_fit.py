import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special, stats

import oracles
from gofevid import cli, model_fit
from gofevid.dist import RandomStream, count_pmf
from gofevid.evidence import EquivalenceParams, equiv_transform
from gofevid.fixtures import ALPHA_EMISSIONS_COUNTS
from gofevid.model_fit import (
    choose_r_normal,
    combine_cells_poisson,
    evidence_for_normality,
    evidence_for_poisson,
    normality_evidence_rows,
    poisson_evidence_rows,
    poisson_mle,
    UndefinedFit,
)

ALPHA = np.asarray(ALPHA_EMISSIONS_COUNTS)


class TestChooseRNormal:
    @pytest.mark.parametrize("n,want", [(400, 10), (25600, 11), (102400, 12), (409600, 13)])
    def test_values(self, n, want):
        assert choose_r_normal(n) == want

    def test_too_small(self):
        with pytest.raises(ValueError):
            choose_r_normal(49)


class TestEvidenceForNormality:
    def test_location_scale_invariance(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(400)
        a = evidence_for_normality(data)
        b = evidence_for_normality(3.0 * data + 7.0)
        assert abs(a.evidence.t - b.evidence.t) < 1e-9
        assert abs(a.s_stat - b.s_stat) < 1e-9

    def test_report_consistency(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(400)
        rep = evidence_for_normality(data)
        assert rep.n == 400
        assert rep.r == 10
        assert rep.counts.sum() == 400
        assert np.all(np.diff(rep.edges) > 0)
        assert rep.nu == 7.0
        assert rep.lambda0 == pytest.approx(400 * 0.25 / 9)
        assert rep.m0 == pytest.approx(math.sqrt(rep.lambda0 + 3.5) - math.sqrt(3.5))

    def test_to_dict_keeps_field_order(self):
        # the CLI's csv columns follow this order
        d = evidence_for_normality(np.random.default_rng(1).standard_normal(400)).to_dict()
        assert list(d) == ["model", "n", "r", "edges", "counts", "s_stat", "nu", "lambda0",
                           "m0", "k", "bias_adjust", "t", "se", "direction"]
        assert d["model"] == "normal" and d["se"] == 1.0
        assert type(d["counts"][0]) is int and type(d["edges"][0]) is float

    def test_determinism(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(256)
        assert evidence_for_normality(data).evidence.t == \
            evidence_for_normality(data).evidence.t

    def test_edge_goes_to_right_cell(self):
        # the mean is exactly 0, so the middle edge xbar + s Phi^{-1}(1/2) is 0
        # and the 20 zeros lie on it
        data = np.tile([-2.0, -1.0, 0.0, 1.0, 2.0], 20)
        rep = evidence_for_normality(data)
        assert rep.edges[4] == 0.0
        right = np.bincount(np.searchsorted(rep.edges, data, side="right"), minlength=rep.r)
        assert np.array_equal(rep.counts, right)
        assert rep.counts[5] >= 20

    def test_errors(self):
        with pytest.raises(ValueError):
            evidence_for_normality(np.zeros(99) + np.arange(99))
        with pytest.raises(ValueError):
            evidence_for_normality(np.full(200, 3.0))
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            evidence_for_normality(rng.standard_normal(200), k=0.0)

    def test_overflowing_scale_rejected(self):
        # finite values whose MLE scale overflows float64
        data = np.random.default_rng(5).standard_normal(200) * 1e307
        with pytest.raises(ValueError, match="overflows float64"):
            evidence_for_normality(data)
        with pytest.raises(ValueError, match="overflows float64"):
            normality_evidence_rows(np.stack([data / 1e307, data]))


class TestPoissonMle:
    def test_alpha_emissions(self):
        assert abs(poisson_mle(ALPHA) - 8.367) < 5e-4

    def test_degenerate(self):
        assert poisson_mle(np.array([10])) == 0.0
        assert poisson_mle(np.array([0, 7])) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            poisson_mle(np.array([0, 0]))
        with pytest.raises(ValueError):
            poisson_mle(np.array([-1, 2]))


class TestCombineCells:
    def test_alpha_emissions_cells(self):
        r0, r, probs = combine_cells_poisson(1207, 8.367)
        assert (r0, r) == (1, 16)  # first cell {0..2}, last cell {17...}
        assert len(probs) == r
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert 1207 * probs[0] >= 5.0
        assert 1207 * probs[-1] >= 5.0
        # one value below the first combined cell and the tails match the CDF
        assert probs[0] == pytest.approx(special.pdtr(2, 8.367), rel=1e-12)
        assert probs[-1] == pytest.approx(1 - special.pdtr(16, 8.367), rel=1e-12)

    def test_probs_sum_to_one_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(50, 20_000))
            mu = float(rng.uniform(0.5, 40.0))
            r0, r, probs = combine_cells_poisson(n, mu)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert n * probs[0] >= 5.0 and n * probs[-1] >= 5.0
            assert r == len(probs) >= 2

    # scipy.stats' pmf loses about mu * 1e-16 of relative precision, so it is a 1e-12
    # reference only for moderate mu
    @pytest.mark.parametrize("n,mu", [(100, 0.7), (1207, 8.367), (10**6, 5.0), (10**14, 5.0),
                                      (10**14, 37.3), (10**12, 150.0)])
    def test_cells_match_the_poisson_law(self, n, mu):
        r0, r, probs = combine_cells_poisson(n, mu)
        values = np.arange(r0 + 2, r0 + r)
        ref = [stats.poisson.cdf(r0 + 1, mu), *stats.poisson.pmf(values, mu),
               stats.poisson.sf(r0 + r - 1, mu)]
        assert np.allclose(probs, ref, rtol=1e-12, atol=0)

    def test_mu_ten_n_6400(self):
        _, r, _ = combine_cells_poisson(6400, 10.0)
        assert r == 20

    def test_poisson_one_small_n(self):
        r0, r, _ = combine_cells_poisson(100, 1.0)
        assert (r0, r) == (-1, 4)  # cells {0}, {1}, {2}, {3...}

    def test_too_small(self):
        with pytest.raises(ValueError):
            combine_cells_poisson(8, 1.0)
        with pytest.raises(ValueError):
            combine_cells_poisson(10, 1.0)  # only one cell can reach expectation 5


_BRACKETS = {  # how a stand-in pdtr misreads the two bracket rows' mu
    "swap": lambda m: m[::-1],  # each at the other's mu
    "low": lambda m: m[[0, 0]],  # both at the smallest mu
    "high": lambda m: m[[1, 1]],  # both at the largest mu
}


def _traced_pdtr(bracket, many_rows: bool):
    """A stand-in for ``model_fit.special`` that records the shape of every
    ``pdtr`` call.

    ``bracket`` names a misreading of the two bracket rows' mu in
    ``_BRACKETS``, which gives windows that are too narrow or misplaced
    whenever the bracket rows' layouts differ; None reads them right.
    """
    shapes = []
    misread = _BRACKETS[bracket] if bracket and many_rows else None  # the first call is the bracket

    def pdtr(k, m):
        nonlocal misread
        shapes.append(np.broadcast(k, m).shape)
        if misread:
            m, misread = misread(m), None
        return special.pdtr(k, m)

    return SimpleNamespace(pdtr=pdtr, pdtrc=special.pdtrc), shapes


def _tail_cells_traced(n: int, mu, bracket=None):
    """model_fit._tail_cells plus the shape of every ``pdtr`` call it made."""
    stand_in, shapes = _traced_pdtr(bracket, len(mu) > 2)
    with mock.patch.object(model_fit, "special", stand_in):
        return model_fit._tail_cells(n, np.asarray(mu, dtype=float)), shapes


def _cell_probs_from_full(cdf_row, r0: int, r: int, mu: float) -> list:
    """One row's combined-cell probabilities from its full-width CDF, cell by
    cell: the first cell, P(X = r0 + 2) as a CDF difference and then
    P(X = v) = P(X = v - 1) (mu / v), and the upper tail."""
    probs = [float(cdf_row[r0 + 1])]
    p = float(cdf_row[r0 + 2] - cdf_row[r0 + 1])
    for v in range(r0 + 2, r0 + r):
        if v > r0 + 2:
            p *= mu / v
        probs.append(p)
    return probs + [float(special.pdtrc(r0 + r - 1, mu))]


def _assert_tail_cells_match_full(n: int, mu, bracket=None):
    """The windowed layout and cell probabilities against the full-width
    reference, byte for byte.

    Returns (reference, lo, cdf, shapes) for checks on the path taken.
    """
    mu = np.asarray(mu, dtype=float)
    want_r0, want_r, full = want = oracles.poisson_tail_cells(n, mu)
    (r0, r, lo, cdf), shapes = _tail_cells_traced(n, mu, bracket)
    assert r0.tolist() == want_r0.tolist()
    assert r.tolist() == want_r.tolist()
    assert cdf.tobytes() == full[:, lo : lo + cdf.shape[1]].tobytes()
    rows = np.flatnonzero(want_r >= 2)
    if len(rows):
        probs = model_fit._cell_probs(cdf[rows], lo, r0[rows], r[rows], mu[rows])
        for got, i in zip(probs, rows):
            ref = _cell_probs_from_full(full[i], int(want_r0[i]), int(want_r[i]), float(mu[i]))
            assert got.tobytes() == np.array(ref + [1.0] * (len(got) - len(ref))).tobytes()
    return want, lo, cdf, shapes


_TAIL_NS = st.sampled_from([10, 11, 30, 100, 400, 1600, 6400, 10**6])
_SPREAD_MUS = st.lists(st.floats(1e-3, 600.0), min_size=1, max_size=30)
_CLUSTERED_MUS = st.builds(lambda c, jitter: [c * (1.0 + 0.05 * j) for j in jitter],
                           st.floats(1e-3, 600.0),
                           st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=30))
_BRACKET_READS = st.sampled_from([None, *_BRACKETS])


class TestTailCellWindow:
    """The two narrow CDF windows give the layout and cells of the full-width CDF."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_TAIL_NS, st.one_of(_SPREAD_MUS, _CLUSTERED_MUS), _BRACKET_READS)
    def test_matches_full_width(self, n, mu, bracket):
        _assert_tail_cells_match_full(n, mu, bracket)

    def test_single_row_evaluates_the_full_range_once(self):
        (_, _, full), lo, _, shapes = _assert_tail_cells_match_full(1207, [8.367])
        assert lo == 0 and shapes == [full.shape]  # no bracket rows, no second pass

    def test_rows_with_first_cell_at_zero(self):
        (r0, _, _), _, _, _ = _assert_tail_cells_match_full(400, [0.5, 1.0, 2.0, 8.0, 30.0])
        assert (r0 == -1).any() and (r0 >= 0).any()

    def test_kmax_needs_no_widening(self):
        # _tail_cells evaluates the CDF only up to the largest row's kmax: no
        # count total up to cli.MAX_COUNT may expect 5 at or beyond it
        mu = np.geomspace(1e-3, 1e6, 4001)
        kmax = (mu + 12.0 * np.sqrt(mu) + 30.0).astype(np.int64)
        assert np.all(cli.MAX_COUNT * special.pdtrc(kmax - 1, mu) < 5.0)
        assert np.all(cli.MAX_COUNT * (1.0 - special.pdtr(kmax - 1, mu)) < 5.0)

    def test_wide_spread(self):
        (_, r, _), _, _, _ = _assert_tail_cells_match_full(1600, np.geomspace(0.01, 500.0, 25))
        assert len(set(r.tolist())) > 10

    def test_window_is_narrower_than_the_full_range(self):
        mu = np.random.default_rng(3).poisson(20.0, size=(50, 400)).mean(axis=1)
        (r0, r, full), lo, cdf, shapes = _assert_tail_cells_match_full(400, mu)
        assert lo > 0 and shapes[0] == (2, full.shape[1]) and len(shapes) == 3
        # a single window on every row, from the lowest first cell to the highest
        # last cell, against every pdtr value the call takes, bracket rows included
        single = len(mu) * (min(int((r0 + r).max()), full.shape[1] - 1) - max(int(r0.min()), 0) + 1)
        assert sum(math.prod(shape) for shape in shapes) < single / 2

    def test_failed_bracket_widens_to_the_full_range(self):
        (_, _, full), lo, cdf, shapes = _assert_tail_cells_match_full(
            400, [20.0, 25.0, 30.0, 40.0], bracket="swap")
        assert lo == 0 and cdf.shape == full.shape
        assert len(shapes) == 3 and shapes[1][1] < full.shape[1]

    @pytest.mark.parametrize("n,mu,bracket", [
        # each fails one edge test of the first cells' window: its left, its right
        (11, [1.7, 1.68, 1.6, 1.93], "high"),
        (20, [1.4, 1.4, 1.54, 1.13], "low"),
    ])
    def test_failed_first_cell_window_widens_to_the_full_range(self, n, mu, bracket):
        (_, _, full), lo, cdf, shapes = _assert_tail_cells_match_full(n, mu, bracket)
        assert lo == 0 and cdf.shape == full.shape
        assert len(shapes) == 3 and shapes[1][1] < full.shape[1]

    @pytest.mark.parametrize("n,mu,bracket", [
        (400, [10.0, 10.2, 10.4, 10.6], "swap"),
        # each fails one edge test of the last cells' window: its left, its right
        (30, [0.3, 0.5, 0.7, 0.9, 1.1], "high"),
        (30, [0.3, 0.5, 0.7, 0.9, 1.1], "low"),
    ])
    def test_failed_last_cell_window_widens_to_the_full_range(self, n, mu, bracket):
        # the rows share their first cell, so only the second window fails
        (r0, _, full), lo, cdf, shapes = _assert_tail_cells_match_full(n, mu, bracket)
        assert len(set(r0.tolist())) == 1
        assert lo == 0 and cdf.shape == full.shape
        assert len(shapes) == 4 and shapes[1][1] + shapes[2][1] < full.shape[1]


class TestEvidenceForPoisson:
    def test_alpha_emissions_report(self):
        rep = evidence_for_poisson(ALPHA)
        assert rep.n == 1207
        assert abs(rep.mu_hat - 8.367) < 5e-4
        assert rep.r == 16
        assert abs(rep.s_stat - 8.95) < 0.01
        assert abs(rep.lambda0 - 20.117) < 0.001
        assert abs(rep.m0 - 2.56) < 0.005
        assert abs(rep.evidence.t - 3.53) < 0.01
        assert rep.comb_counts.sum() == 1207
        assert rep.comb_counts[0] == 1 + 4 + 13
        assert rep.comb_counts[-1] == 3 + 1 + 1

    def test_unseen_high_values_fold_into_top_cell(self):
        table = ALPHA.copy()[:15]  # truncate observed support below r0 + r
        rep = evidence_for_poisson(table)
        assert rep.comb_counts.sum() == table.sum()

    def test_two_combined_cells_rejected(self):
        # 12 observations all equal to 3: combining leaves r = 2, so nu = r - 2 = 0
        with pytest.raises(ValueError, match=r"r = 2 cells.*at least 3"):
            evidence_for_poisson(np.array([0, 0, 0, 12]))

    def test_cells_below_the_user_probability_floor(self):
        # 1e14 observations of Poisson(5): the tail cells the pipeline builds have
        # probabilities below the 1e-12 floor on user-given null probabilities, yet
        # each expects at least 5
        table = np.rint(1e14 * stats.poisson.pmf(np.arange(60), 5)).astype(np.int64)
        rep = evidence_for_poisson(table)
        n = int(table.sum())
        assert rep.n == n and rep.comb_probs.min() < 1e-12
        assert np.all(n * rep.comb_probs >= 5.0)
        # S from scipy.stats' Poisson law and exact integer sums, cell by cell
        mu = sum(k * int(c) for k, c in enumerate(table)) / n
        first, last = rep.r0 + 1, rep.r0 + rep.r  # cells {X <= first}, ..., {X >= last}
        probs = [stats.poisson.cdf(first, mu), *stats.poisson.pmf(np.arange(first + 1, last), mu),
                 stats.poisson.sf(last - 1, mu)]
        counts = [int(table[: first + 1].sum()), *table[first + 1 : last].tolist(),
                  int(table[last:].sum())]
        s = math.fsum((o - n * p) ** 2 / (n * p) for o, p in zip(counts, probs))
        assert rep.mu_hat == pytest.approx(mu, rel=1e-14)
        assert rep.comb_counts.tolist() == counts
        # the last cell is the upper tail itself, and the interior cells come from a
        # recurrence, so a cell of 1e-12 keeps its relative precision (differences
        # of the CDF near 1 lost 1e-4 of it)
        assert rep.comb_probs[-1] == pytest.approx(probs[-1], rel=1e-14, abs=0.0)
        assert np.allclose(rep.comb_probs, probs, rtol=0, atol=1e-15)
        assert np.allclose(rep.comb_probs, probs, rtol=1e-12, atol=0)
        assert rep.s_stat == pytest.approx(s, rel=1e-9)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.uint64])
    def test_any_integer_dtype_gives_the_same_report(self, dtype):
        # repr tells 18 from 18.0: the counts stay integers whatever the input's dtype
        table = np.minimum(ALPHA, 250)
        want = repr(evidence_for_poisson(table).to_dict())
        assert repr(evidence_for_poisson(table.astype(dtype)).to_dict()) == want

    def test_to_dict_keeps_field_order(self):
        # the CLI's csv columns follow this order
        d = evidence_for_poisson(ALPHA).to_dict()
        assert list(d) == ["model", "n", "mu_hat", "r0", "r", "comb_probs", "comb_counts",
                           "s_stat", "nu", "lambda0", "m0", "k", "bias_adjust", "t", "se",
                           "direction"]
        assert d["model"] == "poisson" and d["direction"] == "for_equivalence"
        assert type(d["comb_counts"][0]) is int and type(d["comb_probs"][0]) is float

    def test_determinism(self):
        a = evidence_for_poisson(ALPHA).evidence.t
        b = evidence_for_poisson(ALPHA).evidence.t
        assert a == b

    def test_mean_evidence_near_m0_under_true_model(self):
        # Poisson(5) data at n=1600: average evidence should sit near the
        # maximum expected evidence for these cells (tabled 3.93 vs 3.89)
        reps = 4000
        ts = np.empty(reps)
        for i in range(reps):
            values = RandomStream(99, i).gen.poisson(5.0, size=1600)
            ts[i] = evidence_for_poisson(np.bincount(values)).evidence.t
        assert abs(ts.mean() - 3.89) < 0.1


def _normal_t_loop(x, k=0.5, bias_adjust=True):
    """One replication of the normality pipeline in 1-d operations, as the
    per-replication loop computed it before the fit was batched."""
    n = len(x)
    r = max(10, math.ceil(math.log(n)))
    edges = x.mean() + x.std() * special.ndtri(np.arange(1, r) / r)
    counts = np.bincount(np.searchsorted(edges, x, side="right"), minlength=r)
    expected = n * np.full(r, 1.0 / r)
    s = float(((counts - expected) ** 2 / expected).sum())
    return equiv_transform(s, EquivalenceParams(r - 3.0, n * k * k / (r - 1)), bias_adjust)


def _poisson_fit_loop(table, k=0.5):
    """One replication of the Poisson pipeline in 1-d operations: (mu_hat, r, m0, t)."""
    n = int(table.sum())
    mu = float((np.arange(len(table)) * table.astype(float)).sum() / n)
    kmax = int(mu + 12.0 * math.sqrt(mu) + 30.0)
    while True:
        cdf = special.pdtr(np.arange(kmax + 1), mu)
        if n * (1.0 - cdf[-2]) < 5.0:
            break
        kmax *= 2
    r0 = int(np.nonzero(n * cdf >= 5.0)[0][0]) - 1
    sf = np.concatenate([[1.0], 1.0 - cdf[:-1]])
    r = int(np.nonzero(n * sf >= 5.0)[0][-1]) - r0
    # interior cells: P(X = r0 + 2) from the CDF, then P(X = v) = P(X = v - 1) mu / v
    interior = np.cumprod([cdf[r0 + 2] - cdf[r0 + 1], *(mu / np.arange(r0 + 3, r0 + r))])
    probs = np.concatenate([[cdf[r0 + 1]], interior, [special.pdtrc(r0 + r - 1, mu)]])
    padded = np.concatenate([table, np.zeros(r0 + r + 1, dtype=table.dtype)])
    counts = np.concatenate([[padded[: r0 + 2].sum()], padded[r0 + 2 : r0 + r],
                             [padded[r0 + r :].sum()]])
    expected = n * probs
    s = float(((counts - expected) ** 2 / expected).sum())
    params = EquivalenceParams(r - 2.0, n * k * k / (r - 1))
    m0 = math.sqrt(params.lambda0 + 0.5 * params.nu) - math.sqrt(0.5 * params.nu)
    return mu, r, m0, equiv_transform(s, params)


def _multinomial_tables(dist, n, reps, seed):
    pmf = count_pmf(*dist)
    return np.stack([RandomStream(seed, i).gen.multinomial(n, pmf) for i in range(reps)])


class TestNormalityEvidenceRows:
    @pytest.mark.parametrize("n", [100, 400, 6400, 30_000])
    def test_rows_equal_loop_and_report(self, n):
        rng = np.random.default_rng(6)
        data = rng.standard_t(5, size=(6, n)) * 4.0 + 2.0
        want = [_normal_t_loop(row) for row in data]
        assert normality_evidence_rows(data).tolist() == want
        assert [evidence_for_normality(row).evidence.t for row in data] == want
        want = [evidence_for_normality(row, k=0.3, bias_adjust=False).evidence.t for row in data]
        assert normality_evidence_rows(data, k=0.3, bias_adjust=False).tolist() == want

    def test_errors(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="rows, n"):
            normality_evidence_rows(rng.standard_normal(400))
        data = rng.standard_normal((3, 400))
        data[1] = 5.0
        with pytest.raises(ValueError, match="degenerate"):
            normality_evidence_rows(data)
        data[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            normality_evidence_rows(data)
        # an infinity, or two of opposite sign, is named as such, not as an overflow
        for bad in ([np.inf], [-np.inf], [np.inf, -np.inf]):
            data[1, : len(bad)] = bad
            with pytest.raises(ValueError, match="data must be finite"):
                normality_evidence_rows(data)


def _mixed_tables(n: int, mus, seed: int, cut: int) -> np.ndarray:
    """One Poisson(mu) frequency table of n draws per mu, as a (rows, cut + 1)
    array whose last column holds every value >= cut, keeping only the rows
    whose single-row fit is defined."""
    gen = np.random.default_rng(seed)
    tables = np.zeros((len(mus), cut + 1), dtype=np.int64)
    for row, mu in zip(tables, mus):
        table = gen.multinomial(n, count_pmf("poisson", mu))
        row[: min(len(table), cut)] = table[:cut]
        row[cut] += table[cut:].sum()
    defined = []
    for table in tables:
        try:
            evidence_for_poisson(table)
            defined.append(table)
        except UndefinedFit:
            pass
    return np.array(defined).reshape(-1, cut + 1)


def _assert_rows_match_reports(tables, bracket=None):
    """poisson_evidence_rows against evidence_for_poisson row by row, bit for
    bit.  Returns (reports, shapes of the batch's pdtr calls)."""
    stand_in, shapes = _traced_pdtr(bracket, len(tables) > 2)
    with mock.patch.object(model_fit, "special", stand_in):
        rows = poisson_evidence_rows(tables)
    reports = [evidence_for_poisson(table) for table in tables]
    want = [[rep.mu_hat for rep in reports], [float(rep.r) for rep in reports],
            [rep.m0 for rep in reports], [rep.evidence.t for rep in reports]]
    for got, ref in zip(rows, want):
        assert got.tobytes() == np.array(ref).tobytes()
    return reports, shapes


class TestPoissonEvidenceRows:
    @pytest.mark.parametrize("dist,n", [(("poisson", 5.0), 100), (("poisson", 20.0), 6400),
                                        (("neg_binomial", 10.0, 0.01), 1600)])
    def test_rows_equal_report(self, dist, n):
        tables = _multinomial_tables(dist, n, 60, seed=70)
        mu_hat, r, m0, t = poisson_evidence_rows(tables)
        assert list(zip(mu_hat.tolist(), r.tolist(), m0.tolist(), t.tolist())) == \
            [_poisson_fit_loop(row) for row in tables]
        reports = [evidence_for_poisson(row) for row in tables]
        assert mu_hat.tolist() == [rep.mu_hat for rep in reports]
        assert r.tolist() == [rep.r for rep in reports]
        assert m0.tolist() == [rep.m0 for rep in reports]
        assert t.tolist() == [rep.evidence.t for rep in reports]
        assert len(set(r.tolist())) > 1  # several combined-cell layouts in one batch

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([12, 30, 100, 400, 1600, 6400]),
           st.lists(st.floats(0.05, 60.0), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1), st.integers(2, 120), _BRACKET_READS)
    def test_rows_equal_single_row_reports(self, n, mus, seed, cut, bracket):
        tables = _mixed_tables(n, mus, seed, cut)
        assume(len(tables) > 0)
        _assert_rows_match_reports(tables, bracket)

    def test_mixed_layouts_and_cell_counts(self):
        tables = _mixed_tables(1600, [2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0] * 3, 1, 150)
        reports, shapes = _assert_rows_match_reports(tables)
        assert len({(rep.r0, rep.r) for rep in reports}) > 5 and len({rep.r for rep in reports}) > 5
        assert len(shapes) == 3 and shapes[1][0] == len(tables)  # the two windows held

    def test_first_cell_at_zero(self):
        tables = _mixed_tables(400, [0.5, 0.8, 1.0, 1.5, 2.0, 8.0, 30.0], 2, 100)
        reports, shapes = _assert_rows_match_reports(tables)
        assert len(tables) == 7 and len(shapes) == 3
        r0 = {rep.r0 for rep in reports}
        assert -1 in r0 and max(r0) > 0

    @pytest.mark.parametrize("mus", [[20.0, 25.0, 30.0, 40.0], [10.0, 10.2, 10.4, 10.6]])
    @pytest.mark.parametrize("bracket", list(_BRACKETS))
    def test_failed_bracket_falls_back_to_the_full_range(self, mus, bracket):
        tables = _mixed_tables(400, mus * 5, 3, 120)
        reports, shapes = _assert_rows_match_reports(tables, bracket)
        # the last call covers the bracket's full range for every row
        assert len(shapes) in (3, 4) and shapes[-1] == (len(tables), shapes[0][1])
        assert len({(rep.r0, rep.r) for rep in reports}) > 1

    def test_undefined_row_is_named(self):
        tables = np.array([[30, 40, 30], [100, 0, 0], [95, 5, 0]])
        with pytest.raises(UndefinedFit, match="mu_hat = 0") as exc:
            poisson_evidence_rows(tables)
        assert exc.value.row == 1
        with pytest.raises(UndefinedFit, match="r = 1 cells") as exc:
            poisson_evidence_rows(tables[[0, 2]])
        assert exc.value.row == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="same total"):
            poisson_evidence_rows(np.array([[5, 5], [5, 6]]))
        with pytest.raises(ValueError, match="integer"):
            poisson_evidence_rows(np.array([[5.0, 5.0]]))
        with pytest.raises(ValueError, match="nonnegative"):
            poisson_evidence_rows(np.array([[5, -1, 6]]))

    @pytest.mark.parametrize("dist", [("poisson", 5.0), ("neg_binomial", 20.0, 0.01)])
    def test_multinomial_tables_agree_with_direct_draws(self, dist):
        # mean mu_hat and mean T from multinomial frequency tables against n
        # direct draws per replication counted with np.bincount
        n, reps = 400, 1500
        mu_a, _, _, t_a = poisson_evidence_rows(_multinomial_tables(dist, n, reps, seed=71))
        if dist[0] == "poisson":
            draw = lambda g: g.poisson(dist[1], size=n)
        else:
            draw = lambda g: g.negative_binomial(1.0 / dist[2], 1.0 / (1.0 + dist[2] * dist[1]), size=n)
        reports = [evidence_for_poisson(np.bincount(draw(RandomStream(72, i).gen)))
                   for i in range(reps)]
        mu_b = np.array([rep.mu_hat for rep in reports])
        t_b = np.array([rep.evidence.t for rep in reports])
        for a, b in ((mu_a, mu_b), (t_a, t_b)):
            se = math.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
            assert abs(a.mean() - b.mean()) < 4 * se
