"""Pearson chi-squared statistic, power, and the equivalence test.

A test's design fixes its critical value.  ``dist`` computes it, cached per
design, and the powers' survival function and CDF, from SciPy's kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import RandomStream, _cdf, _lof_critical, _nan_error, _quantile, _sf, check_int, \
    check_law, check_level, check_probs, check_statistic
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


def check_counts(counts, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """counts as an integer array of `ndim` axes, each table along the last
    axis, and the tables' totals.

    The array must be nonempty and of an integer dtype (floats are rejected
    even when whole-valued), with no negative entry and every total at
    least 1.  Shape rules beyond the number of axes are the caller's.
    """
    arr = np.asarray(counts)
    if arr.ndim != ndim or arr.size == 0:
        shape = "1-d" if ndim == 1 else "(rows, cells)"
        raise ValueError(f"counts must be a nonempty {shape} array")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"counts must be nonnegative integers, got dtype {arr.dtype}")
    low = arr.min()
    if low < 0:
        raise ValueError(f"counts must be nonnegative integers, got {low}")
    n = arr.sum(axis=-1)
    if np.any(n < 1):
        raise ValueError("total count must be positive")
    return arr, n


def _pearson(counts: np.ndarray, probs: np.ndarray, n) -> np.ndarray:
    """Sum of (observed - expected)^2 / expected along the last axis; n holds
    the totals of the counts."""
    expected = np.expand_dims(n, -1) * probs
    return ((counts - expected) ** 2 / expected).sum(axis=-1)


@dataclass
class CellData:
    """Observed cell counts paired with null-model cell probabilities.

    The counts get ``check_counts``.  Cells with null probability below
    1e-12 are rejected; merging sparse cells is the job of the model-fit
    pipelines, not of this container.
    """

    counts: np.ndarray
    null_probs: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        self.counts, n = check_counts(np.array(self.counts), 1)  # a copy, as n describes it
        probs = np.asarray(self.null_probs, dtype=float)
        if probs.shape != self.counts.shape:
            raise ValueError("counts and null_probs must be 1-d sequences of equal length")
        self.null_probs = check_probs(probs, "null_probs", positive=True)
        self.n = int(n)


def pearson_stat(data: CellData) -> float:
    """Sum of (observed - expected)^2 / expected over the cells."""
    return float(_pearson(data.counts, data.null_probs, data.n))


def pearson_stats(counts, null_probs) -> np.ndarray:
    """Pearson statistic of each row of a (rows, r) integer count array.

    null_probs is (r,) or (rows, r).  The rows get CellData's checks in
    array form, and each row's statistic equals ``pearson_stat`` of that row.
    """
    counts, n = check_counts(counts, 2)
    probs = np.asarray(null_probs, dtype=float)
    if probs.shape[-1:] != counts.shape[-1:]:
        raise ValueError("null_probs must have one column per count cell")
    check_probs(probs, "null_probs", positive=True)
    return _pearson(counts, probs, n)


def power_lack_of_fit(alpha: float, nu: float, lam: float) -> float:
    """P(S >= c) for S ~ chi2(nu, lam), c the level-alpha critical value
    ``_lof_critical(nu, alpha)``, which ``multinomial_power_mc`` shares."""
    check_level(alpha, "alpha")
    check_law(nu, lam)
    return _sf(_lof_critical(float(nu), float(alpha)), nu, lam)


def power_equivalence(alpha: float, params: EquivalenceParams, lam: float) -> float:
    """P(S <= c) for S ~ chi2(nu, lam), c the level-alpha critical value
    ``_quantile(alpha, nu, lambda0)``, which ``equivalence_test`` shares."""
    check_level(alpha, "alpha")
    check_law(params.nu, lam)
    c = _quantile(float(alpha), float(params.nu), float(params.lambda0))
    power = _cdf(c, params.nu, lam)
    if math.isnan(power):
        raise _nan_error(f"CDF at {c}", params.nu, lam)
    return power


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
    """Reject non-equivalence iff s <= the alpha quantile of chi2(nu, lambda0).

    A negative or NaN statistic raises ValueError, as in the evidence transforms.
    """
    check_level(alpha, "alpha")
    check_statistic(s)
    c = _quantile(float(alpha), float(params.nu), float(params.lambda0))
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
    check_int(n, "n", 1)
    check_int(reps, "reps", MIN_POWER_REPS)
    true_probs = np.asarray(true_probs, dtype=float)
    null_probs = np.asarray(null_probs, dtype=float)
    if true_probs.shape != null_probs.shape:
        raise ValueError("probability vectors must have the same length")
    check_probs(null_probs, "null_probs", positive=True)
    check_probs(true_probs, "true_probs")
    check_level(alpha, "alpha")
    r = len(null_probs)
    c = _lof_critical(float(r - 1), float(alpha))

    gen = stream.gen
    hits = 0
    for a, b in row_blocks(0, reps, r):
        counts = gen.multinomial(n, true_probs, size=b - a)
        hits += int(np.count_nonzero(_pearson(counts, null_probs, counts.sum(axis=-1)) >= c))
    p = hits / reps
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / reps)
    return PowerEstimate(power=p, se=se, reps=reps, critical_value=c)
