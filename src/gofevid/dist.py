"""Distribution primitives: normal and (non)central chi-squared, seedable
streams, and the checks of probability vectors, degrees of freedom,
noncentralities and probability levels.

The (non)central chi-squared CDF and quantile are SciPy's ``chndtr`` and
``chndtrix``.  Random streams are counter-based (Philox keyed by
(seed, stream_id)), so distinct ids give independent streams whatever the
order in which they are drawn.  A fit-table cell draws all its replications
from its own stream, row after row (stream layout 4).
``sample_chisq`` draws a noncentral chi-squared with nu >= 1 as a shifted
normal squared plus a central remainder (stream layout 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "RandomStream",
    "ChiSqParams",
    "normal_quantile",
    "chisq_cdf",
    "chisq_quantile",
    "sample_chisq",
    "sample_family",
    "FAMILIES",
    "MAX_COUNT_CELLS",
    "count_support",
    "count_pmf",
]

_MASK64 = (1 << 64) - 1


class RandomStream:
    """A reproducible random source identified by (seed, stream_id).

    Distinct stream_ids under one seed give statistically independent
    sequences.  A stream is single-owner: do not share one instance between
    threads; give each work unit its own stream_id instead.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not (0 <= seed <= _MASK64 and 0 <= stream_id <= _MASK64):
            raise ValueError("seed and stream_id must be unsigned 64-bit integers")
        self.seed = seed
        self.stream_id = stream_id
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


_MIN_PROB = 1e-12  # smallest null cell probability a Pearson statistic accepts


def check_probs(p, name: str, positive: bool = False) -> np.ndarray:
    """p as a float array whose last axis holds probability vectors.

    Every entry must exceed 1e-12 with ``positive`` and be nonnegative
    otherwise; NaN fails both.  Every vector must sum to 1 within 1e-9.
    Shape rules are the caller's.
    """
    arr = np.asarray(p, dtype=float)
    ok = arr > _MIN_PROB if positive else arr >= 0.0
    if not ok.all():
        bad = float(arr[~ok].flat[0])
        rule = "exceed 1e-12" if positive else "be nonnegative"
        raise ValueError(f"every {name} entry must {rule}, got {bad!r}")
    sums = np.atleast_1d(arr.sum(axis=-1))
    off = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if len(off):
        raise ValueError(f"{name} must sum to 1, got {float(sums[off[0]])!r}")
    return arr


def check_nu(nu) -> None:
    """Reject degrees of freedom that are not positive and finite; NaN fails."""
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")


def check_lam(lam, name: str = "lam") -> None:
    """Reject a noncentrality that is not nonnegative and finite; NaN fails."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {lam}")


def check_level(p, name: str) -> None:
    """Reject a probability level outside the open interval (0, 1); NaN fails."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1), got {p}")


@dataclass(frozen=True)
class ChiSqParams:
    """Degrees of freedom nu > 0 and noncentrality lam >= 0."""

    nu: float
    lam: float = 0.0

    def __post_init__(self):
        check_nu(self.nu)
        check_lam(self.lam)


def normal_quantile(p):
    """Inverse standard normal CDF on (0, 1)."""
    arr = np.asarray(p, dtype=float)
    inside = (arr > 0.0) & (arr < 1.0)
    if not inside.all():
        check_level(float(arr[~inside].flat[0]), "p")  # raises on the first bad entry
    out = special.ndtri(arr)
    return float(out) if np.isscalar(p) else out


def chisq_cdf(x, params: ChiSqParams):
    """CDF of the (non)central chi-squared law; negative x maps to 0."""
    out = special.chndtr(np.maximum(x, 0.0), params.nu, params.lam)
    return float(out) if np.isscalar(x) else out


def chisq_quantile(p: float, params: ChiSqParams) -> float:
    """Inverse of chisq_cdf on (0, 1)."""
    check_level(p, "p")
    return float(special.chndtrix(p, params.nu, params.lam))


def sample_chisq(stream: RandomStream, params: ChiSqParams, size=None):
    """Draw from the (non)central chi-squared law.

    Central (lam = 0): 2 Gamma(nu/2).  For nu >= 1 a noncentral draw uses the
    identity chi2(nu, lam) = (Z + sqrt(lam))^2 + chi2(nu - 1): all `size`
    standard normals first, then, when nu > 1, 2 Gamma((nu - 1)/2) for each
    (stream layout 3).  For nu < 1 it is a central chi-squared with nu + 2K df,
    K ~ Poisson(lam/2), drawn as in layout 2.
    """
    g = stream.gen
    nu, lam = params.nu, params.lam
    if lam == 0.0:
        return 2.0 * g.standard_gamma(0.5 * nu, size=size)
    if nu < 1.0:
        k = g.poisson(0.5 * lam, size=size)
        return 2.0 * g.standard_gamma(0.5 * nu + k, size=size)
    x = np.square(g.standard_normal(size) + math.sqrt(lam))
    if nu > 1.0:
        x += 2.0 * g.standard_gamma(0.5 * (nu - 1.0), size=size)
    return x


def _sample_normal(g, size, mu=0.0, sigma=1.0):
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return g.normal(mu, sigma, size=size)


def _sample_logistic(g, size, loc=0.0, scale=1.0):
    if not scale > 0:
        raise ValueError("scale must be positive")
    return g.logistic(loc, scale, size=size)


def _sample_student_t(g, size, df=1.0):
    if not df > 0:
        raise ValueError("df must be positive")
    return g.standard_t(df, size=size)


FAMILIES = {
    "normal": _sample_normal,
    "logistic": _sample_logistic,
    "student_t": _sample_student_t,
}


MAX_COUNT_CELLS = 1_000_000  # widest count table count_pmf builds
_COUNT_TAIL = 1e-20  # P(X >= K) left in the last cell of a count table


def _count_law(kind: str, mu: float, alpha: float):
    """(cdf, sf) of a count law on integer arrays: P(X <= k) and P(X >= k)."""
    if not (mu > 0 and alpha >= 0):
        raise ValueError("need mu > 0 and alpha >= 0")
    if kind == "poisson" or (kind == "neg_binomial" and alpha == 0.0):
        return (lambda k: special.pdtr(k, mu)), (lambda k: special.pdtrc(k - 1, mu))
    if kind == "neg_binomial":
        # numpy's negative_binomial(1/alpha, 1/(1 + alpha mu)).  Both tails are
        # written in q = 1 - p: p itself rounds to 1 once alpha mu < 1e-16.
        size, q = 1.0 / alpha, alpha * mu / (1.0 + alpha * mu)
        return (lambda k: special.betaincc(k + 1.0, size, q)), (lambda k: special.betainc(k, size, q))
    raise ValueError(f"unknown count distribution {kind!r}")


def count_support(kind: str, mu: float, alpha: float = 0.0) -> int:
    """Smallest K >= 1 with P(X >= K) < 1e-20, found without allocating.

    Raises ValueError when the table over 0..K would exceed MAX_COUNT_CELLS.
    """
    _, sf = _count_law(kind, mu, alpha)
    lo, hi = 0, 1  # sf(lo) >= tail > sf(hi) once the doubling stops
    while sf(hi) >= _COUNT_TAIL:
        lo, hi = hi, 2 * hi
        if hi >= MAX_COUNT_CELLS and sf(MAX_COUNT_CELLS - 1) >= _COUNT_TAIL:
            raise ValueError(f"{kind} with mu = {mu:g}, alpha = {alpha:g} needs more than "
                             f"{MAX_COUNT_CELLS} count cells to leave P(X >= K) < {_COUNT_TAIL:g}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sf(mid) >= _COUNT_TAIL else (lo, mid)
    return hi


def count_pmf(kind: str, mu: float, alpha: float = 0.0) -> np.ndarray:
    """P(X = k) for k < K and P(X >= K) in cell K, K = count_support(...).

    ``kind`` is "poisson" or "neg_binomial" (mean mu, variance mu + alpha mu^2).
    The frequency table of n iid draws is then exactly
    Multinomial(n, count_pmf(...)).
    """
    K = count_support(kind, mu, alpha)
    cdf, _ = _count_law(kind, mu, alpha)
    c = cdf(np.arange(K))
    pmf = np.empty(K + 1)
    pmf[0] = c[0]
    pmf[1:K] = np.diff(c)
    pmf[K] = 1.0 - c[-1]
    return pmf


def sample_family(stream: RandomStream, family: str, size=None, **params):
    """Draw from a named family; see FAMILIES for the supported set."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    return fn(stream.gen, size, **params)
