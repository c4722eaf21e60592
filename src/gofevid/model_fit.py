"""End-to-end fit pipelines: evidence for normality and for a Poisson model.

Both reduce the data to a Pearson statistic on cells built from estimated
parameters, then apply the equivalence-evidence transform with boundary
lambda0 = n k^2 / (r - 1).  Degrees of freedom follow the estimated-parameter
convention: nu = r - 3 for normality, nu = r - 2 for the Poisson pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .boundary import lambda0_uniform
from .dist import normal_quantile
from .evidence import EquivalenceParams, EvidenceValue, evidence_for_equivalence, \
    max_expected_evidence
from .pearson import CellData, pearson_stat

__all__ = [
    "NormalFitReport",
    "PoissonFitReport",
    "choose_r_normal",
    "evidence_for_normality",
    "poisson_mle",
    "combine_cells_poisson",
    "evidence_for_poisson",
    "approx_r_poisson",
    "dasgupta_ratio",
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


def evidence_for_normality(data, k: float = DEFAULT_K, bias_adjust: bool = True) -> NormalFitReport:
    """Evidence that the data are normal, via equiprobable cells at the MLE.

    Cell edges are xbar + s * Phi^{-1}(j/r) with the divisor-n MLE scale s;
    observations on an edge go to the right cell.  The location-scale family
    makes the result invariant under affine rescaling of the data.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValueError("data must be a 1-d sequence")
    n = len(x)
    if n < 100:
        raise ValueError("need n >= 100 observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    if not (0.0 < k <= 1.0):
        raise ValueError("k must lie in (0, 1]")
    xbar = float(x.mean())
    s = float(x.std())  # maximum likelihood scale (divisor n)
    if s == 0.0:
        raise ValueError("degenerate data: sample standard deviation is 0")
    r = choose_r_normal(n)
    edges = xbar + s * normal_quantile(np.arange(1, r) / r)
    counts = np.bincount(np.searchsorted(edges, x, side="right"), minlength=r)
    cells = CellData(counts=counts, null_probs=np.full(r, 1.0 / r))
    s_stat = pearson_stat(cells)
    nu = float(r - 3)
    params = EquivalenceParams(nu=nu, lambda0=lambda0_uniform(n, r, k))
    return NormalFitReport(
        n=n, r=r, edges=edges, counts=counts, s_stat=s_stat, nu=nu,
        lambda0=params.lambda0, m0=max_expected_evidence(params), k=k,
        bias_adjust=bias_adjust,
        evidence=evidence_for_equivalence(s_stat, params, bias_adjust),
    )


def poisson_mle(counts) -> float:
    """Maximum likelihood mean from a frequency table on 0, 1, 2, ..."""
    nu_j = np.asarray(counts, dtype=float)
    if nu_j.ndim != 1 or len(nu_j) == 0:
        raise ValueError("counts must be a nonempty 1-d frequency table")
    if np.any(nu_j < 0) or not np.allclose(nu_j, np.round(nu_j)):
        raise ValueError("counts must be nonnegative integers")
    n = nu_j.sum()
    if n < 1:
        raise ValueError("need at least one observation")
    return float((np.arange(len(nu_j)) * nu_j).sum() / n)


def combine_cells_poisson(n: int, mu: float) -> tuple[int, int, np.ndarray]:
    """Combine low-expectation tail cells of Poisson(mu) at sample size n.

    Returns (r0, r, comb_probs): the first combined cell is {X <= r0 + 1},
    the last is {X >= r0 + r}, and both have expected count >= 5; the r - 2
    interior cells are the single values r0 + 2, ..., r0 + r - 1.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    if n < 10:
        raise ValueError(f"n = {n} is too small to form cells with expected count >= 5")
    kmax = int(mu + 12.0 * math.sqrt(mu) + 30.0)
    while True:
        cdf = special.pdtr(np.arange(kmax + 1), mu)
        if n * (1.0 - cdf[-2]) < _MIN_EXPECTED:
            break
        kmax *= 2
    lo_ok = np.nonzero(n * cdf >= _MIN_EXPECTED)[0]
    if len(lo_ok) == 0:
        raise ValueError(f"n = {n} is too small for mu = {mu}: no left cell reaches expected count 5")
    r0 = int(lo_ok[0]) - 1  # first combined cell is {X <= r0 + 1}
    sf = np.concatenate([[1.0], 1.0 - cdf[:-1]])  # sf[k] = P(X >= k)
    hi = int(np.nonzero(n * sf >= _MIN_EXPECTED)[0][-1])
    r = hi - r0
    if r < 2:
        raise ValueError(f"n = {n} is too small for mu = {mu}: fewer than 2 cells remain")
    probs = np.empty(r)
    probs[0] = cdf[r0 + 1]
    probs[1 : r - 1] = np.diff(cdf[r0 + 1 : r0 + r])
    probs[r - 1] = 1.0 - cdf[r0 + r - 1]
    return r0, r, probs


def _fold_counts(nu_j: np.ndarray, r0: int, r: int) -> np.ndarray:
    """Fold an observed frequency table into the r combined cells."""
    padded = np.zeros(max(len(nu_j), r0 + r + 1), dtype=np.int64)
    padded[: len(nu_j)] = nu_j
    out = np.empty(r, dtype=np.int64)
    out[0] = padded[: r0 + 2].sum()
    out[1 : r - 1] = padded[r0 + 2 : r0 + r]
    out[r - 1] = padded[r0 + r :].sum()
    return out


def evidence_for_poisson(counts, k: float = DEFAULT_K, bias_adjust: bool = True) -> PoissonFitReport:
    """Evidence that count data follow a Poisson law.

    Estimates mu by maximum likelihood, combines tail cells so every expected
    count is >= 5, and transforms the resulting Pearson statistic with
    nu = r - 2 and boundary lambda0 = n k^2 / (r - 1).
    """
    nu_j = np.asarray(counts)
    if nu_j.ndim != 1:
        raise ValueError("counts must be a 1-d frequency table indexed from 0")
    if not (0.0 < k <= 1.0):
        raise ValueError("k must lie in (0, 1]")
    mu_hat = poisson_mle(nu_j)
    n = int(np.asarray(nu_j).sum())
    r0, r, comb_probs = combine_cells_poisson(n, mu_hat)
    if r < 3:
        raise ValueError(f"tail-cell combining left r = {r} cells at mu_hat = {mu_hat:g}; "
                         "the Poisson fit needs at least 3 (nu = r - 2)")
    comb_counts = _fold_counts(nu_j.astype(np.int64), r0, r)
    cells = CellData(counts=comb_counts, null_probs=comb_probs)
    s_stat = pearson_stat(cells)
    nu = float(r - 2)
    params = EquivalenceParams(nu=nu, lambda0=lambda0_uniform(n, r, k))
    return PoissonFitReport(
        n=n, mu_hat=mu_hat, r0=r0, r=r, comb_probs=comb_probs,
        comb_counts=comb_counts, s_stat=s_stat, nu=nu, lambda0=params.lambda0,
        m0=max_expected_evidence(params), k=k, bias_adjust=bias_adjust,
        evidence=evidence_for_equivalence(s_stat, params, bias_adjust),
    )


def approx_r_poisson(n: float, mu: float) -> float:
    """Large-n approximation sqrt(8 mu ln(n/5)) to the combined cell count."""
    if not n > 5:
        raise ValueError("n must exceed 5")
    if not mu > 0:
        raise ValueError("mu must be positive")
    return math.sqrt(8.0 * mu * math.log(n / 5.0))


def dasgupta_ratio(n: int) -> float:
    """Phi^{-1}(1 - 1/n) / sqrt(2 ln n); tends to 1 from below as n grows."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError("n must be an integer >= 2")
    return normal_quantile(1.0 - 1.0 / n) / math.sqrt(2.0 * math.log(n))
