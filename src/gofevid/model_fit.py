"""End-to-end fit pipelines: evidence for normality and for a Poisson model.

Both reduce the data to a Pearson statistic on cells built from estimated
parameters, then apply the equivalence-evidence transform with boundary
lambda0 = n k^2 / (r - 1).  Degrees of freedom follow the estimated-parameter
convention: nu = r - 3 for normality, nu = r - 2 for the Poisson pipeline.

The binning, tail-cell combining and statistic work on rows of a 2-d array,
so ``normality_evidence_rows`` and ``poisson_evidence_rows`` fit a batch of
replications at once.  The report functions run the same fit (``_normal_fit``,
``_poisson_groups``) on a one-row array and read row 0: the cells, mu_hat and
S come from the arrays and the statistic call the rows path uses, so the
values are bit-identical and no count array is checked twice.

A Poisson batch evaluates the CDF of every row only on two narrow windows,
which the rows with the smallest and largest mu_hat bound: one holds every
row's first combined cell and the value after it, the other every row's
last cell boundary (``_tail_cells``).  The combined-cell probabilities and
folded counts of all rows, whatever their layouts, are then built in one
pass into arrays as wide as the largest cell count; only the Pearson sums
and the transform loop, once per distinct cell count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .boundary import lambda0_uniform
from .dist import check_int, check_positive
from .evidence import EquivalenceParams, EvidenceValue, equiv_transform, \
    evidence_for_equivalence, max_expected_evidence
from .pearson import _pearson, _pearson_terms, check_counts

__all__ = [
    "NormalFitReport",
    "PoissonFitReport",
    "UndefinedFit",
    "evidence_for_normality",
    "normality_evidence_rows",
    "poisson_mle",
    "combine_cells_poisson",
    "evidence_for_poisson",
    "poisson_evidence_rows",
]

DEFAULT_K = 0.5
_MIN_EXPECTED = 5.0


class _FitReport:
    """``to_dict`` for the fit reports: the model name, then every field in
    declaration order, arrays as lists and the evidence as t, se and direction."""

    def to_dict(self) -> dict:
        d = {"model": self.model}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, EvidenceValue):
                d.update(t=v.t, se=v.se, direction=v.direction.value)
            else:
                d[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
        return d


@dataclass(frozen=True)
class NormalFitReport(_FitReport):
    """Provenance of a normality fit: binning, statistic, boundary, evidence."""

    model = "normal"

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


@dataclass(frozen=True)
class PoissonFitReport(_FitReport):
    """Provenance of a Poisson fit after tail-cell combining."""

    model = "poisson"

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


def _normal_cells(x: np.ndarray):
    """Row-wise MLE fit and equiprobable binning of a (rows, n) array.

    Returns (edges, counts): per row, the r - 1 edges xbar + s Phi^{-1}(j/r)
    with the divisor-n MLE scale s, and the counts of the r = max(10, ceil(ln n))
    cells, where an observation on an edge goes to the right cell.
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
    r = max(10, math.ceil(math.log(n)))
    edges = xbar + s * special.ndtri(np.arange(1, r) / r)
    # column j counts the values at or above the j-th edge (1-based): column 0
    # is n and column r is 0, so adjacent differences are the cell counts
    at_or_above = np.zeros((len(x), r + 1), dtype=np.intp)
    at_or_above[:, 0] = n
    count = np.int32 if n < 2**31 else np.intp  # summing into int32 takes half the time
    for j in range(r - 1):
        at_or_above[:, j + 1] = (x >= edges[:, j : j + 1]).sum(axis=1, dtype=count)
    return edges, at_or_above[:, :-1] - at_or_above[:, 1:]


def _normal_fit(x: np.ndarray, k: float):
    """(edges, counts, S, params) of the normality fit to each row of a (rows, n) array.

    S skips ``CellData``'s checks: the binning has just built the counts,
    and every cell probability is 1/r."""
    edges, counts = _normal_cells(x)
    n, r = x.shape[1], counts.shape[1]
    params = EquivalenceParams(nu=float(r - 3), lambda0=lambda0_uniform(n, r, k))
    return edges, counts, _pearson(counts, np.full(r, 1.0 / r), n), params


def evidence_for_normality(data, k: float = DEFAULT_K, bias_adjust: bool = True) -> NormalFitReport:
    """Evidence that the data are normal, via equiprobable cells at the MLE.

    Cell edges are xbar + s * Phi^{-1}(j/r) with the divisor-n MLE scale s;
    observations on an edge go to the right cell.  The location-scale family
    makes the result invariant under affine rescaling of the data.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValueError("data must be a 1-d sequence")
    edges, counts, s_stat, params = _normal_fit(x[None, :], k)
    s_stat = float(s_stat[0])
    return NormalFitReport(
        n=len(x), r=counts.shape[1], edges=edges[0], counts=counts[0], s_stat=s_stat, nu=params.nu,
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
    _, _, s_stat, params = _normal_fit(x, k)
    return equiv_transform(s_stat, params, bias_adjust)


def poisson_mle(counts) -> float:
    """Maximum likelihood mean from a frequency table on 0, 1, 2, ... (see ``check_counts``)."""
    table, _ = check_counts(counts, 1)
    return float(_mle_rows(table[None, :])[0])


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
    ``combine_cells_poisson``, and the Poisson CDF at that mu on a window of
    columns that holds every row's r0 + 1 and r0 + 2, the two values its
    cell probabilities need: ``cdf[:, j] = P(X <= lo + j)``.

    P(X <= k) falls as mu rises, so the first and last combined cells move
    right as mu rises: the rows with the smallest and largest mu, evaluated
    on every column 0..top, bound every row's cells.  With more than two
    rows, every row is then evaluated on two narrow windows only: the first
    cells' window, from the lowest r0 to the highest plus 2, and the last
    cells' window, from the lowest last column to the highest plus 1.  Each
    window's edge columns must show that it holds the boundaries the full
    range would give: every row expects fewer than 5 at or below the first
    window's left column and at least 5 at or below its last column but
    one, and at least 5 above the second window's left column and fewer
    than 5 above its right one.  If either test fails (rounding can break
    the monotonicity), every row is evaluated on the full range instead,
    as a one-row call is at once.
    """
    if n < 10:
        raise ValueError(f"n = {n} is too small to form cells with expected count >= 5")
    # kmax = mu + 12 sqrt(mu) + 30 leaves P(X >= kmax) below 5 / 2**53 for every
    # mu from 1e-3 to 1e6 (a test guards this), so no count total that float64
    # holds exactly expects 5 at or beyond the largest row's kmax
    mu_max = float(mu.max())
    top = int(mu_max + 12.0 * math.sqrt(mu_max) + 30.0)
    if len(mu) > 2:
        ends = special.pdtr(np.arange(top + 1), mu[[mu.argmin(), mu.argmax()], None])
        first, last = _first_cells(n, ends, 0), _last_cells(n, ends, 0, top)
        lo = max(int(first[0]), 0)
        cdf = special.pdtr(np.arange(lo, max(int(first[1]) + 2, lo + 1) + 1), mu[:, None])
        if ((lo == 0 or (n * cdf[:, 0] < _MIN_EXPECTED).all())
                and (n * cdf[:, -2] >= _MIN_EXPECTED).all()):
            tail_lo = max(int(last[0]), 0)
            tail_hi = max(min(int(last[1]) + 1, top), tail_lo)
            tail = special.pdtr(np.arange(tail_lo, tail_hi + 1), mu[:, None])
            if ((tail_lo == 0 or (n * (1.0 - tail[:, 0]) >= _MIN_EXPECTED).all())
                    and (tail_hi == top or (n * (1.0 - tail[:, -1]) < _MIN_EXPECTED).all())):
                r0 = _first_cells(n, cdf, lo)
                return r0, _last_cells(n, tail, tail_lo, top) + 1 - r0, lo, cdf
    cdf = special.pdtr(np.arange(top + 1), mu[:, None])
    r0 = _first_cells(n, cdf, 0)
    return r0, _last_cells(n, cdf, 0, top) + 1 - r0, 0, cdf


def _first_cells(n: int, cdf: np.ndarray, lo: int) -> np.ndarray:
    """r0 per row of a CDF on columns lo, lo + 1, ...: the first combined cell
    is {X <= r0 + 1}, the first column with expected count >= 5."""
    # on the full range 0..top, n >= 10 and n P(X > top - 1) < 5 give
    # n P(X <= top - 1) > 5: every row has a first cell
    return lo + (n * cdf >= _MIN_EXPECTED).argmax(axis=1) - 1


def _last_cells(n: int, cdf: np.ndarray, lo: int, top: int) -> np.ndarray:
    """Per row of a CDF on columns lo, lo + 1, ... of 0..top, the final column
    below top with P(X > last) expecting >= 5, or -1 when there is none: the
    last combined cell is {X >= last + 1}."""
    sf = 1.0 - cdf[:, : top - lo]  # sf[:, j] = P(X > lo + j) for lo + j < top
    hi_ok = n * sf >= _MIN_EXPECTED
    return np.where(hi_ok.any(axis=1), lo + sf.shape[1] - 1 - hi_ok[:, ::-1].argmax(axis=1), -1)


def _cell_probs(cdf: np.ndarray, lo: int, r0: np.ndarray, r: np.ndarray,
                mu: np.ndarray) -> np.ndarray:
    """Combined-cell probabilities of each row's layout (r0, r), in the first
    r columns of a (rows, max r) array whose other cells hold 1.

    cdf[:, j] = P(X <= lo + j) at the row's mu.  The last cell P(X >= r0 + r)
    is the upper tail ``pdtrc`` itself, and the interior cells run up from the
    first one, a CDF difference below the upper tail, by the recurrence
    P(X = v) = P(X = v - 1) mu / v: differences of a CDF near 1 would lose the
    relative precision of a tiny cell, and the recurrence loses about one
    rounding per step.  One ``cumprod`` along the rows runs every row's
    recurrence, each from its own r0; a product is sequential, so a row's
    cells do not depend on how wide the array is.
    """
    rows = np.arange(len(cdf))
    j = r0 - lo
    width = int(r.max())
    probs = np.ones((len(cdf), width))
    probs[:, 0] = cdf[rows, j + 1]
    if width > 2:
        steps = mu[:, None] / (r0[:, None] + np.arange(2, width))
        steps[:, 0] = cdf[rows, j + 2] - probs[:, 0]  # P(X = r0 + 2)
        probs[:, 1 : width - 1] = np.cumprod(steps, axis=1)
        probs[np.arange(width) >= r[:, None]] = 1.0
    probs[rows, r - 1] = special.pdtrc(r0 + r - 1, mu)
    return probs


def _fold_counts(tables: np.ndarray, totals: np.ndarray, r0: np.ndarray,
                 r: np.ndarray) -> np.ndarray:
    """Fold frequency tables (one per row, totals their sums) into each row's
    r combined cells, in the first r columns of a (rows, max r) array whose
    other cells hold 0."""
    # below[:, v] counts the values < v up to the widest row's last cell, and
    # the final column holds the total
    width = min(int((r0 + r).max()), tables.shape[1])
    below = np.zeros((len(tables), width + 2), dtype=np.int64)
    np.cumsum(tables[:, :width], axis=1, dtype=np.int64, out=below[:, 1:-1])
    below[:, -1] = totals
    # cell j holds the values below column ends[:, j + 1] and at or above
    # column ends[:, j]; the last cell and the padding reach the total
    bounds = np.arange(int(r.max()) + 1)
    ends = np.minimum(r0[:, None] + 1 + bounds, width)
    ends[:, 0] = 0
    ends[bounds >= r[:, None]] = width + 1
    at = np.take_along_axis(below, ends, axis=1)
    return at[:, 1:] - at[:, :-1]


def combine_cells_poisson(n: int, mu: float) -> tuple[int, int, np.ndarray]:
    """Combine low-expectation tail cells of Poisson(mu) at sample size n.

    Returns (r0, r, comb_probs): the first combined cell is {X <= r0 + 1},
    the last is {X >= r0 + r}, and both have expected count >= 5; the r - 2
    interior cells are the single values r0 + 2, ..., r0 + r - 1.
    """
    check_int(n, "n", 1)
    check_positive(mu, "mu")
    mus = np.array([float(mu)])
    r0, r, lo, cdf = _tail_cells(n, mus)
    if r[0] < 2:
        raise ValueError(f"n = {n} is too small for mu = {mu}: fewer than 2 cells remain")
    return int(r0[0]), int(r[0]), _cell_probs(cdf, lo, r0, r, mus)[0]


def _poisson_groups(tables: np.ndarray, totals: np.ndarray, k: float):
    """Fit Poisson cells to each row of a checked (rows, K) frequency-table array.

    All rows must have the same total n; ``totals`` holds the row totals.
    Returns (mu_hat, r0, r, probs, counts, groups): per row mu_hat and the
    combined-cell layout (r0, r); the combined-cell probabilities and folded
    counts of every row, built in one pass over all layouts, in the first r
    columns of (rows, max r) arrays; and one group (rows, S, params) for the
    rows sharing each cell count r.  Raises UndefinedFit for the first row
    whose fit is undefined: mu_hat = 0, or fewer than 3 cells after
    combining.

    Each row's S is one contiguous sum over its own r cells: numpy's pairwise
    sum depends on the length, so summing the padded row would move the last
    bits.  The padding (probability 1, count 0) keeps every cell's term
    finite.  S is computed without ``CellData``'s checks: the counts are
    checked already, and the combined cells each expect at least 5, so the
    floor on user-given cell probabilities does not apply (at n = 1e14 a
    cell of probability 8e-13 is a valid cell).
    """
    n = int(totals[0])
    if np.any(totals != n):
        raise ValueError("every frequency table in a batch must have the same total")
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
    probs = _cell_probs(cdf, lo, r0, r, mu)
    counts = _fold_counts(tables, totals, r0, r)
    terms = _pearson_terms(counts, probs, totals)
    groups = []
    for g_r in sorted(set(r.tolist())):
        rows = np.flatnonzero(r == g_r)
        params = EquivalenceParams(nu=float(g_r - 2), lambda0=lambda0_uniform(n, g_r, k))
        groups.append((rows, terms[rows, :g_r].sum(axis=1), params))
    return mu, r0, r, probs, counts, groups


def evidence_for_poisson(counts, k: float = DEFAULT_K, bias_adjust: bool = True) -> PoissonFitReport:
    """Evidence that count data follow a Poisson law.

    counts[j] is the number of observations equal to j (see ``check_counts``).
    Estimates mu by maximum likelihood, combines tail cells so every expected
    count is >= 5, and transforms the resulting Pearson statistic with
    nu = r - 2 and boundary lambda0 = n k^2 / (r - 1).
    """
    table, total = check_counts(counts, 1)
    mu, r0, r, comb_probs, comb_counts, [(_, s_stat, params)] = _poisson_groups(
        table[None, :], total.reshape(1), k)
    s_stat = float(s_stat[0])
    return PoissonFitReport(
        n=int(total), mu_hat=float(mu[0]), r0=int(r0[0]), r=int(r[0]), comb_probs=comb_probs[0],
        comb_counts=comb_counts[0], s_stat=s_stat, nu=params.nu, lambda0=params.lambda0,
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
    tables, totals = check_counts(tables, 2)
    mu, _, r, _, _, groups = _poisson_groups(tables, totals, k)
    m0 = np.empty(len(tables))
    t = np.empty(len(tables))
    for rows, s_stat, params in groups:
        m0[rows] = max_expected_evidence(params)
        t[rows] = equiv_transform(s_stat, params, bias_adjust)
    return mu, r.astype(float), m0, t
