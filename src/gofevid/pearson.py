"""Pearson chi-squared statistic, power, and the equivalence test."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import ChiSqParams, RandomStream, check_level, check_probs, chisq_cdf, chisq_quantile
from .evidence import EquivalenceParams

__all__ = [
    "CellData",
    "pearson_stat",
    "pearson_stats",
    "power_lack_of_fit",
    "power_equivalence",
    "EquivalenceDecision",
    "equivalence_test",
    "PowerEstimate",
    "multinomial_power_mc",
]

CHUNK_VALUES = 1 << 16  # values held at once when replications are stacked into rows
MIN_POWER_REPS = 1000  # fewest replications multinomial_power_mc accepts


def row_blocks(lo: int, hi: int, width: int):
    """Split rows lo..hi into (start, stop) blocks of at most CHUNK_VALUES
    values, each row holding `width` values; every block has at least one row."""
    step = max(1, CHUNK_VALUES // width)
    return [(a, min(a + step, hi)) for a in range(lo, hi, step)]


def _check_cells(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """CellData's checks on the last axis of counts and probs; returns the totals."""
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative integers")
    check_probs(probs, "null_probs", positive=True)
    n = counts.sum(axis=-1)
    if np.any(n <= 0):
        raise ValueError("total count must be positive")
    return n


def _pearson(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Sum of (observed - expected)^2 / expected along the last axis."""
    expected = counts.sum(axis=-1, keepdims=True) * probs
    return ((counts - expected) ** 2 / expected).sum(axis=-1)


@dataclass
class CellData:
    """Observed cell counts paired with null-model cell probabilities.

    Cells with null probability below 1e-12 are rejected; merging sparse
    cells is the job of the model-fit pipelines, not of this container.
    """

    counts: np.ndarray
    null_probs: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        probs = np.asarray(self.null_probs, dtype=float)
        if counts.ndim != 1 or probs.ndim != 1 or len(counts) != len(probs):
            raise ValueError("counts and null_probs must be 1-d sequences of equal length")
        if len(counts) == 0:
            raise ValueError("need at least one cell")
        if not np.allclose(counts, np.round(counts)):  # _check_cells checks the sign
            raise ValueError("counts must be nonnegative integers")
        self.counts = counts.astype(np.int64)
        self.null_probs = probs
        self.n = int(_check_cells(self.counts, probs))


def pearson_stat(data: CellData) -> float:
    """Sum of (observed - expected)^2 / expected over the cells."""
    return float(_pearson(data.counts, data.null_probs))


def pearson_stats(counts, null_probs) -> np.ndarray:
    """Pearson statistic of each row of a (rows, r) integer count array.

    null_probs is (r,) or (rows, r).  The rows get CellData's checks in
    array form, and each row's statistic equals ``pearson_stat`` of that row.
    """
    counts = np.asarray(counts)
    probs = np.asarray(null_probs, dtype=float)
    if counts.ndim != 2 or probs.shape[-1:] != counts.shape[-1:] or counts.shape[1] == 0:
        raise ValueError("counts must be a (rows, r) array and null_probs must have r columns")
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError("counts must be nonnegative integers")
    _check_cells(counts, probs)
    return _pearson(counts, probs)


def power_lack_of_fit(alpha: float, nu: float, lam: float) -> float:
    """P(S >= c) for S ~ chi2(nu, lam), c the central 1-alpha quantile."""
    check_level(alpha, "alpha")
    c = chisq_quantile(1.0 - alpha, ChiSqParams(nu, 0.0))
    return 1.0 - chisq_cdf(c, ChiSqParams(nu, lam))


def power_equivalence(alpha: float, params: EquivalenceParams, lam: float) -> float:
    """P(S <= c_alpha) for S ~ chi2(nu, lam), c_alpha the alpha quantile at lambda0."""
    check_level(alpha, "alpha")
    c = chisq_quantile(alpha, ChiSqParams(params.nu, params.lambda0))
    return chisq_cdf(c, ChiSqParams(params.nu, lam))


@dataclass(frozen=True)
class EquivalenceDecision:
    decision: str  # reject_nonequivalence | retain
    s: float
    critical_value: float
    alpha: float
    params: EquivalenceParams

    @property
    def reject(self) -> bool:
        return self.decision == "reject_nonequivalence"


def equivalence_test(s: float, params: EquivalenceParams, alpha: float) -> EquivalenceDecision:
    """Reject non-equivalence iff s <= the alpha quantile of chi2(nu, lambda0)."""
    check_level(alpha, "alpha")
    c = chisq_quantile(alpha, ChiSqParams(params.nu, params.lambda0))
    decision = "reject_nonequivalence" if s <= c else "retain"
    return EquivalenceDecision(decision=decision, s=float(s), critical_value=c,
                               alpha=alpha, params=params)


@dataclass(frozen=True)
class PowerEstimate:
    power: float
    se: float
    reps: int
    critical_value: float


def multinomial_power_mc(
    stream: RandomStream,
    n: int,
    true_probs,
    null_probs,
    alpha: float,
    reps: int,
) -> PowerEstimate:
    """Monte Carlo power of the level-alpha chi-squared test under true_probs.

    Replication i is row i of one (reps, r) multinomial draw from the
    stream's generator, made in blocks of rows, so the estimate is
    independent of how the replications are blocked (stream layout 4).
    """
    if reps < MIN_POWER_REPS:
        raise ValueError(f"reps must be at least {MIN_POWER_REPS}")
    true_probs = np.asarray(true_probs, dtype=float)
    null_probs = np.asarray(null_probs, dtype=float)
    if true_probs.shape != null_probs.shape:
        raise ValueError("probability vectors must have the same length")
    check_probs(null_probs, "null_probs", positive=True)
    check_probs(true_probs, "true_probs")
    check_level(alpha, "alpha")
    r = len(null_probs)
    c = chisq_quantile(1.0 - alpha, ChiSqParams(r - 1, 0.0))

    gen = stream.gen
    hits = 0
    for a, b in row_blocks(0, reps, r):
        counts = gen.multinomial(n, true_probs, size=b - a)
        hits += int(np.count_nonzero(_pearson(counts, null_probs) >= c))
    p = hits / reps
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / reps)
    return PowerEstimate(power=p, se=se, reps=reps, critical_value=c)
