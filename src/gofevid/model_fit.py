"""End-to-end fit pipelines: evidence for normality and for a Poisson model.

Both reduce the data to a Pearson statistic on cells built from estimated
parameters, then apply the equivalence-evidence transform with boundary
lambda0 = n k^2 / (r - 1).  Degrees of freedom follow the estimated-parameter
convention: nu = r - 3 for normality, nu = r - 2 for the Poisson pipeline.

The binning, tail-cell combining and statistic work on rows of a 2-d array,
so ``normality_evidence_rows`` and ``poisson_evidence_rows`` fit a batch of
replications at once; the report functions run the same code on one row and
give bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .boundary import lambda0_uniform
from .dist import normal_quantile
from .evidence import EquivalenceParams, EvidenceValue, equiv_transform, \
    evidence_for_equivalence, max_expected_evidence
from .pearson import CellData, pearson_stat, pearson_stats

__all__ = [
    "NormalFitReport",
    "PoissonFitReport",
    "UndefinedFit",
    "choose_r_normal",
    "evidence_for_normality",
    "normality_evidence_rows",
    "poisson_mle",
    "combine_cells_poisson",
    "evidence_for_poisson",
    "poisson_evidence_rows",
]

DEFAULT_K = 0.5
_MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class NormalFitReport:
    """Provenance of a normality fit: binning, statistic, boundary, evidence."""

    n: int
    r: int
    edges: np.ndarray
    counts: np.ndarray
    s_stat: float
    nu: float
    lambda0: float
    m0: float
    k: float
    bias_adjust: bool
    evidence: EvidenceValue

    def to_dict(self) -> dict:
        return {
            "model": "normal",
            "n": self.n,
            "r": self.r,
            "edges": [float(e) for e in self.edges],
            "counts": [int(c) for c in self.counts],
            "s_stat": self.s_stat,
            "nu": self.nu,
            "lambda0": self.lambda0,
            "m0": self.m0,
            "k": self.k,
            "bias_adjust": self.bias_adjust,
            "t": self.evidence.t,
            "se": self.evidence.se,
            "direction": self.evidence.direction.value,
        }


@dataclass(frozen=True)
class PoissonFitReport:
    """Provenance of a Poisson fit after tail-cell combining."""

    n: int
    mu_hat: float
    r0: int
    r: int
    comb_probs: np.ndarray
    comb_counts: np.ndarray
    s_stat: float
    nu: float
    lambda0: float
    m0: float
    k: float
    bias_adjust: bool
    evidence: EvidenceValue

    def to_dict(self) -> dict:
        return {
            "model": "poisson",
            "n": self.n,
            "mu_hat": self.mu_hat,
            "r0": self.r0,
            "r": self.r,
            "comb_probs": [float(p) for p in self.comb_probs],
            "comb_counts": [int(c) for c in self.comb_counts],
            "s_stat": self.s_stat,
            "nu": self.nu,
            "lambda0": self.lambda0,
            "m0": self.m0,
            "k": self.k,
            "bias_adjust": self.bias_adjust,
            "t": self.evidence.t,
            "se": self.evidence.se,
            "direction": self.evidence.direction.value,
        }


def choose_r_normal(n: int) -> int:
    """Cell count for the normality pipeline: max(10, ceil(ln n))."""
    if n < 50:
        raise ValueError("need n >= 50 so each of the >= 10 cells expects >= 5 observations")
    return max(10, int(math.ceil(math.log(n))))


def _normal_cells(x: np.ndarray):
    """Row-wise MLE fit and equiprobable binning of a (rows, n) array.

    Returns (edges, counts): per row, the r - 1 edges xbar + s Phi^{-1}(j/r)
    with the divisor-n MLE scale s, and the counts of the r cells, where an
    observation on an edge goes to the right cell.
    """
    n = x.shape[1]
    if n < 100:
        raise ValueError("need n >= 100 observations")
    with np.errstate(over="ignore", invalid="ignore"):
        xbar = x.mean(axis=1, keepdims=True)
        dev = x - xbar  # the scale takes x.std's steps from this mean: the same bits
        s = np.sqrt(np.square(dev, out=dev).sum(axis=1, keepdims=True) / n)  # MLE, divisor n
    if not (np.all(np.isfinite(xbar)) and np.all(np.isfinite(s))):
        if not np.all(np.isfinite(x)):  # an infinite or NaN value leaves the mean non-finite
            raise ValueError("data must be finite")
        raise ValueError("data too large in magnitude: the sample mean or the MLE scale "
                         "overflows float64")
    if np.any(s == 0.0):
        raise ValueError("degenerate data: sample standard deviation is 0")
    r = choose_r_normal(n)
    edges = xbar + s * normal_quantile(np.arange(1, r) / r)
    # column j counts the values at or above the j-th edge (1-based): column 0
    # is n and column r is 0, so adjacent differences are the cell counts
    at_or_above = np.zeros((len(x), r + 1), dtype=np.intp)
    at_or_above[:, 0] = n
    count = np.int32 if n < 2**31 else np.intp  # summing into int32 takes half the time
    for j in range(r - 1):
        at_or_above[:, j + 1] = (x >= edges[:, j : j + 1]).sum(axis=1, dtype=count)
    return edges, at_or_above[:, :-1] - at_or_above[:, 1:]


def _normal_params(n: int, r: int, k: float) -> EquivalenceParams:
    return EquivalenceParams(nu=float(r - 3), lambda0=lambda0_uniform(n, r, k))


def evidence_for_normality(data, k: float = DEFAULT_K, bias_adjust: bool = True) -> NormalFitReport:
    """Evidence that the data are normal, via equiprobable cells at the MLE.

    Cell edges are xbar + s * Phi^{-1}(j/r) with the divisor-n MLE scale s;
    observations on an edge go to the right cell.  The location-scale family
    makes the result invariant under affine rescaling of the data.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValueError("data must be a 1-d sequence")
    edges, counts = _normal_cells(x[None, :])
    n, r = len(x), counts.shape[1]
    cells = CellData(counts=counts[0], null_probs=np.full(r, 1.0 / r))
    s_stat = pearson_stat(cells)
    params = _normal_params(n, r, k)
    return NormalFitReport(
        n=n, r=r, edges=edges[0], counts=cells.counts, s_stat=s_stat, nu=params.nu,
        lambda0=params.lambda0, m0=max_expected_evidence(params), k=k,
        bias_adjust=bias_adjust,
        evidence=evidence_for_equivalence(s_stat, params, bias_adjust),
    )


def normality_evidence_rows(data, k: float = DEFAULT_K, bias_adjust: bool = True) -> np.ndarray:
    """Evidence for normality of each row of a (rows, n) array.

    Row i gives exactly ``evidence_for_normality(data[i], k, bias_adjust).evidence.t``.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a (rows, n) array")
    _, counts = _normal_cells(x)
    n, r = x.shape[1], counts.shape[1]
    s_stat = pearson_stats(counts, np.full(r, 1.0 / r))
    return equiv_transform(s_stat, _normal_params(n, r, k), bias_adjust)


def poisson_mle(counts) -> float:
    """Maximum likelihood mean from a frequency table on 0, 1, 2, ..."""
    nu_j = np.asarray(counts, dtype=float)
    if nu_j.ndim != 1 or len(nu_j) == 0:
        raise ValueError("counts must be a nonempty 1-d frequency table")
    if np.any(nu_j < 0) or not np.allclose(nu_j, np.round(nu_j)):
        raise ValueError("counts must be nonnegative integers")
    if nu_j.sum() < 1:
        raise ValueError("need at least one observation")
    return float(_mle_rows(nu_j[None, :])[0])


def _mle_rows(tables: np.ndarray) -> np.ndarray:
    """Maximum likelihood mean of each row of a (rows, K) frequency-table array."""
    t = tables.astype(float)
    return (np.arange(t.shape[1]) * t).sum(axis=1) / t.sum(axis=1)


class UndefinedFit(ValueError):
    """The Poisson fit of one row of a batch is undefined; ``row`` is its index."""

    def __init__(self, row: int, cause: str):
        super().__init__(cause)
        self.row = row


def _tail_cells(n: int, mu: np.ndarray):
    """Tail-cell combining for each mu at sample size n.

    Returns (r0, r, lo, cdf): per row the combined-cell layout described in
    ``combine_cells_poisson``, and the Poisson CDF at that mu on the columns
    the layouts use, ``cdf[:, j] = P(X <= lo + j)``.

    P(X <= k) falls as mu rises, so the first and last combined cells move
    right as mu rises: the rows with the smallest and largest mu bracket every
    row's cells.  With more than two rows, those two rows are evaluated on
    every column and all rows on the window from the column before the lowest
    first cell to the column after the highest last cell.  The window is kept
    only if every row expects fewer than 5 at or below its left edge column
    and above its right one, which is what makes the window's boundaries
    those of the full range; otherwise (rounding can break the monotonicity)
    the window widens to the full range.  A one-row call evaluates the full
    range once.
    """
    if n < 10:
        raise ValueError(f"n = {n} is too small to form cells with expected count >= 5")
    # kmax = mu + 12 sqrt(mu) + 30 leaves P(X >= kmax) below 5 / 2**53 for every
    # mu from 1e-3 to 1e6 (a test guards this), so no count total that float64
    # holds exactly expects 5 at or beyond the largest row's kmax
    top = int(mu.max() + 12.0 * math.sqrt(mu.max()) + 30.0)
    windows = [(0, top)]  # cdf columns lo..hi; the full range passes the edge test
    if len(mu) > 2:  # the bracket rows' window goes first
        ends = special.pdtr(np.arange(top + 1), mu[[mu.argmin(), mu.argmax()], None])
        first, last = _cell_bounds(n, ends, 0, top)
        lo = max(int(first[0]), 0)
        windows.insert(0, (lo, max(min(int(last[1]) + 1, top), lo)))
    for lo, hi in windows:
        cdf = special.pdtr(np.arange(lo, hi + 1), mu[:, None])
        # at an edge column every row must have P(X <= lo) < 5/n and P(X > hi) < 5/n
        if ((lo == 0 or np.all(n * cdf[:, 0] < _MIN_EXPECTED))
                and (hi == top or np.all(n * (1.0 - cdf[:, -1]) < _MIN_EXPECTED))):
            break
    r0, last = _cell_bounds(n, cdf, lo, top)
    return r0, last + 1 - r0, lo, cdf


def _cell_bounds(n: int, cdf: np.ndarray, lo: int, top: int):
    """(r0, last) per row of a CDF on columns lo, lo + 1, ... of 0..top.

    The first combined cell is {X <= r0 + 1}, the first column with expected
    count >= 5; the last is {X >= last + 1}, last the final column below top
    with P(X > last) expecting >= 5, or -1 when there is none.
    """
    # n >= 10 and n (1 - cdf[top - 1]) < 5 give n cdf[top - 1] > 5: every row has a left cell
    r0 = lo + (n * cdf >= _MIN_EXPECTED).argmax(axis=1) - 1
    sf = 1.0 - cdf[:, : top - lo]  # sf[:, j] = P(X > lo + j) for lo + j < top
    hi_ok = n * sf >= _MIN_EXPECTED
    last = np.where(hi_ok.any(axis=1), lo + sf.shape[1] - 1 - hi_ok[:, ::-1].argmax(axis=1), -1)
    return r0, last


def _cell_probs(cdf: np.ndarray, r0: int, r: int) -> np.ndarray:
    """Combined-cell probabilities, one row per CDF row; r0 counts from cdf's first column."""
    probs = np.empty((len(cdf), r))
    probs[:, 0] = cdf[:, r0 + 1]
    probs[:, 1 : r - 1] = np.diff(cdf[:, r0 + 1 : r0 + r], axis=1)
    probs[:, r - 1] = 1.0 - cdf[:, r0 + r - 1]
    return probs


def _fold_counts(tables: np.ndarray, r0: int, r: int) -> np.ndarray:
    """Fold frequency tables (one per row) into the r combined cells."""
    padded = np.zeros((len(tables), max(tables.shape[1], r0 + r + 1)), dtype=np.int64)
    padded[:, : tables.shape[1]] = tables
    out = np.empty((len(tables), r), dtype=np.int64)
    out[:, 0] = padded[:, : r0 + 2].sum(axis=1)
    out[:, 1 : r - 1] = padded[:, r0 + 2 : r0 + r]
    out[:, r - 1] = padded[:, r0 + r :].sum(axis=1)
    return out


def combine_cells_poisson(n: int, mu: float) -> tuple[int, int, np.ndarray]:
    """Combine low-expectation tail cells of Poisson(mu) at sample size n.

    Returns (r0, r, comb_probs): the first combined cell is {X <= r0 + 1},
    the last is {X >= r0 + r}, and both have expected count >= 5; the r - 2
    interior cells are the single values r0 + 2, ..., r0 + r - 1.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    r0, r, lo, cdf = _tail_cells(n, np.array([float(mu)]))
    r0, r = int(r0[0]), int(r[0])
    if r < 2:
        raise ValueError(f"n = {n} is too small for mu = {mu}: fewer than 2 cells remain")
    return r0, r, _cell_probs(cdf, r0 - lo, r)[0]


def _poisson_groups(tables: np.ndarray):
    """Fit Poisson cells to each row of a (rows, K) frequency-table array.

    All rows must have the same total n.  Returns (n, mu_hat, groups), where
    each group (rows, r0, r, probs, counts) holds the rows sharing one
    combined-cell layout.  Raises UndefinedFit for the first row whose fit is
    undefined: mu_hat = 0, or fewer than 3 cells after combining.
    """
    n = int(tables[0].sum())
    if np.any(tables.sum(axis=1) != n):
        raise ValueError("every frequency table in a batch must have the same total")
    if n < 1:
        raise ValueError("need at least one observation")
    mu = _mle_rows(tables)
    r0, r, lo, cdf = _tail_cells(n, np.where(mu > 0, mu, 1.0))  # mu_hat = 0 rows are rejected below
    undefined = np.flatnonzero((mu == 0) | (r < 3))
    if len(undefined):
        i = int(undefined[0])
        if mu[i] == 0:
            raise UndefinedFit(i, "every observed value is 0, so mu_hat = 0 and the Poisson "
                                  "fit is undefined")
        raise UndefinedFit(i, f"tail-cell combining left r = {r[i]} cells at mu_hat = {mu[i]:g}; "
                              "the Poisson fit needs at least 3 (nu = r - 2)")
    groups = []
    for g_r0, g_r in sorted(set(zip(r0.tolist(), r.tolist()))):
        rows = np.flatnonzero((r0 == g_r0) & (r == g_r))
        groups.append((rows, g_r0, g_r, _cell_probs(cdf[rows], g_r0 - lo, g_r),
                       _fold_counts(tables[rows], g_r0, g_r)))
    return n, mu, groups


def _poisson_params(n: int, r: int, k: float) -> EquivalenceParams:
    return EquivalenceParams(nu=float(r - 2), lambda0=lambda0_uniform(n, r, k))


def evidence_for_poisson(counts, k: float = DEFAULT_K, bias_adjust: bool = True) -> PoissonFitReport:
    """Evidence that count data follow a Poisson law.

    Estimates mu by maximum likelihood, combines tail cells so every expected
    count is >= 5, and transforms the resulting Pearson statistic with
    nu = r - 2 and boundary lambda0 = n k^2 / (r - 1).
    """
    nu_j = np.asarray(counts)
    if nu_j.ndim != 1:
        raise ValueError("counts must be a 1-d frequency table indexed from 0")
    mu_hat = poisson_mle(nu_j)
    n, _, [(_, r0, r, comb_probs, comb_counts)] = _poisson_groups(nu_j.astype(np.int64)[None, :])
    cells = CellData(counts=comb_counts[0], null_probs=comb_probs[0])
    s_stat = pearson_stat(cells)
    params = _poisson_params(n, r, k)
    return PoissonFitReport(
        n=n, mu_hat=mu_hat, r0=r0, r=r, comb_probs=cells.null_probs,
        comb_counts=cells.counts, s_stat=s_stat, nu=params.nu, lambda0=params.lambda0,
        m0=max_expected_evidence(params), k=k, bias_adjust=bias_adjust,
        evidence=evidence_for_equivalence(s_stat, params, bias_adjust),
    )


def poisson_evidence_rows(tables, k: float = DEFAULT_K, bias_adjust: bool = True):
    """Evidence for a Poisson law in each row of a (rows, K) frequency-table array.

    Every row must have the same total n.  Returns (mu_hat, r, m0, t) arrays;
    row i gives the mu_hat, r, m0 and evidence.t of
    ``evidence_for_poisson(tables[i], k, bias_adjust)``.  A row whose fit is
    undefined raises UndefinedFit carrying its index.
    """
    tables = np.asarray(tables)
    if tables.ndim != 2 or len(tables) == 0 or not np.issubdtype(tables.dtype, np.integer):
        raise ValueError("tables must be a nonempty (rows, K) integer array")
    if np.any(tables < 0):
        raise ValueError("counts must be nonnegative integers")
    n, mu, groups = _poisson_groups(tables)
    r_out = np.empty(len(tables))
    m0 = np.empty(len(tables))
    t = np.empty(len(tables))
    for rows, _, r, probs, counts in groups:
        params = _poisson_params(n, r, k)
        r_out[rows] = r
        m0[rows] = max_expected_evidence(params)
        t[rows] = equiv_transform(pearson_stats(counts, probs), params, bias_adjust)
    return mu, r_out, m0, t
