"""Distribution primitives: normal and (non)central chi-squared, seedable
streams, and the checks of integers, probability vectors, degrees of
freedom, noncentralities, probability levels and statistics.

Every evaluation of the (non)central chi-squared law lives here: the density
as a Poisson mixture, the rest on SciPy's ``chndtr``, ``chndtrix``,
``chdtri``, ``chdtrc`` and ``_ncx2_sf``, the array CDF through the ufunc and
the scalar calls through the same C kernels in ``scipy.special.cython_special``,
which skip the dispatch.  Where SciPy's CDF or quantile is NaN at a finite
noncentrality, as from about lam = 4e10, these calls raise ValueError.
A random stream is an SFC64 generator seeded by ``SeedSequence`` hashing of
the fixed-width key (seed, stream_id) (stream layout 5), so distinct ids give
independent streams whatever the order in which they are drawn.  A fit-table
cell draws all its replications from its own stream, row after row (stream
layout 4).  ``sample_chisq`` draws a noncentral chi-squared with nu >= 1 as a
shifted normal squared plus a central remainder (stream layout 3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special import cython_special
from scipy.special._ufuncs import _ncx2_sf

__all__ = [
    "RandomStream",
    "ChiSqParams",
    "normal_quantile",
    "chisq_cdf",
    "chisq_quantile",
    "chisq_density",
    "sample_chisq",
    "sample_family",
    "FAMILIES",
    "MAX_COUNT_CELLS",
    "count_support",
    "count_pmf",
]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _is_int(v) -> bool:
    """A Python or numpy integer; bools fail.  Concrete types, not
    ``numbers.Integral``, whose ABC check costs about 0.4 us a call."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


class RandomStream:
    """A reproducible random source identified by (seed, stream_id).

    The generator is SFC64 seeded by ``SeedSequence`` over the key's four
    32-bit words (seed low, seed high, stream_id low, stream_id high).  The
    hashing makes distinct stream_ids under one seed statistically
    independent sequences; the fixed width keeps distinct keys distinct,
    which a variable-width ``SeedSequence([seed, stream_id])`` does not
    (it packs (5 + 7 * 2**32, 3) and (5, 7 + 3 * 2**32) alike).  A stream is
    single-owner: do not share one instance between threads; give each work
    unit its own stream_id instead.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        if not all(_is_int(v) and 0 <= v <= _MASK64 for v in (seed, stream_id)):
            raise ValueError("seed and stream_id must be unsigned 64-bit integers")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            words = [self.seed & _MASK32, self.seed >> 32,
                     self.stream_id & _MASK32, self.stream_id >> 32]
            self._gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))
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


def check_positive(x, name: str) -> None:
    """Reject x that is not positive and finite; NaN fails."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")


def check_lam(lam, name: str = "lam") -> None:
    """Reject a noncentrality that is not nonnegative and finite; NaN fails."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {lam}")


def check_statistic(s) -> None:
    """Reject a chi-squared statistic that is negative or NaN; an array fails
    on its first such entry."""
    ok = s >= 0
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError("statistic s must be nonnegative and not NaN")


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
        check_positive(self.nu, "nu")
        check_lam(self.lam)


def normal_quantile(p):
    """Inverse standard normal CDF on (0, 1)."""
    arr = np.asarray(p, dtype=float)
    inside = (arr > 0.0) & (arr < 1.0)
    if not inside.all():
        check_level(float(arr[~inside].flat[0]), "p")  # raises on the first bad entry
    out = special.ndtri(arr)
    return float(out) if np.isscalar(p) else out


def _nan_error(what: str, nu: float, lam: float, kernel: str = "chndtr") -> ValueError:
    """The error for a point where SciPy's kernel is NaN.  ``check_lam``
    accepts every finite lam, but ``chndtr`` in the bulk is NaN from about
    lam = 4.2e10; raising keeps a NaN from being returned, cached or decided on."""
    return ValueError(f"no chi-squared {what} for nu = {nu}, lam = {lam}: "
                      f"SciPy's {kernel} returns NaN there")


def chisq_cdf(x, params: ChiSqParams):
    """CDF of the (non)central chi-squared law; negative x maps to 0, NaN x
    stays NaN, and a NaN from SciPy at any other x raises ValueError."""
    out = special.chndtr(np.maximum(x, 0.0), params.nu, params.lam)
    if (np.isnan(out) & ~np.isnan(x)).any():
        raise _nan_error("CDF", params.nu, params.lam)
    return float(out) if np.isscalar(x) else out


def chisq_quantile(p: float, params: ChiSqParams) -> float:
    """Inverse of chisq_cdf on (0, 1); raises ValueError where SciPy's is NaN."""
    check_level(p, "p")
    return _quantile(float(p), float(params.nu), float(params.lam))


def _poisson_weights(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(lam/2) index range and weights with tail mass < 1e-14."""
    m = 0.5 * lam
    if m == 0.0:
        return np.array([0]), np.array([1.0])
    half = 12.0 * math.sqrt(m) + 20.0
    klo = max(0, int(math.floor(m - half)))
    khi = int(math.ceil(m + half))
    k = np.arange(klo, khi + 1)
    logw = k * math.log(m) - m - special.gammaln(k + 1.0)
    return k, np.exp(logw)


def _chisq_logpdf(x: np.ndarray, params: ChiSqParams) -> np.ndarray:
    """Log density of the Poisson-mixture representation, stable in the tails."""
    k, w = _poisson_weights(params.lam)
    logw = np.log(w)
    shapes = 0.5 * params.nu + k
    lx = np.log(x)
    # terms[i, j] = logw[i] + log gamma-density(shape_i, x_j / 2) - log 2
    terms = (
        logw[:, None]
        + (shapes[:, None] - 1.0) * (lx[None, :] - math.log(2.0))
        - 0.5 * x[None, :]
        - special.gammaln(shapes)[:, None]
        - math.log(2.0)
    )
    return special.logsumexp(terms, axis=0)


def chisq_density(x, params: ChiSqParams):
    """Density of the (non)central chi-squared law; nonpositive and infinite x map to 0."""
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.where(np.isnan(xa), np.nan, 0.0)  # NaN stays NaN, as in chisq_cdf
    pos = (xa > 0.0) & (xa < math.inf)
    if np.any(pos):
        out[pos] = np.exp(_chisq_logpdf(xa[pos], params))
    return float(out[0]) if scalar else out


# Scalar kernels for checked arguments.  A test's design fixes its critical
# value, cached on the design as floats, so a power curve computes it once.
_cdf = cython_special.chndtr  # _cdf(x, nu, lam) = P(S <= x) for S ~ chi2(nu, lam)


@functools.lru_cache(maxsize=256)
def _quantile(p: float, nu: float, lam: float) -> float:
    """The p quantile of chi2(nu, lam), the equivalence critical value at
    p = alpha.  SciPy's is NaN from about lam = 1.66e11 at p = 0.05 (4.3e10 at
    p = 0.95); that raises."""
    q = cython_special.chndtrix(p, nu, lam)
    if math.isnan(q):
        raise _nan_error(f"quantile at p = {p}", nu, lam, "chndtrix")
    return q


@functools.lru_cache(maxsize=256)
def _lof_critical(nu: float, alpha: float) -> float:
    """The level-alpha lack-of-fit critical value, the central chi2(nu)
    upper-alpha quantile, found from the upper tail itself: inverting the CDF
    at 1 - alpha would lose alpha's relative precision."""
    return cython_special.chdtri(nu, alpha)


_SF_FROM_CDF = 1e-3  # survival values from here up are 1 - CDF


def _sf(c: float, nu: float, lam: float) -> float:
    """P(S >= c) for S ~ chi2(nu, lam), to full relative precision when small.

    1 - CDF is good to about 1e-16 / P(S >= c), so below 1e-3 the value is
    SciPy's upper tail itself: ``chdtrc`` at lam = 0 and otherwise
    ``_ncx2_sf``, the Boost kernel behind ``scipy.stats.ncx2.sf``.  For
    nu <= 300 and lam <= 1000 that is within 2.1e-14 of mpmath down to 1e-100;
    at huge nu it is not (3.2e-10 at nu = 1e7, lam = 0, P = 1e-100, hence
    ``chdtrc`` there; 2.9e-10 at lam = 1000).  Raises ValueError where SciPy's
    CDF is NaN.
    """
    sf = 1.0 - _cdf(c, nu, lam)
    if sf >= _SF_FROM_CDF:
        return sf
    if math.isnan(sf):
        raise _nan_error(f"survival value at {c}", nu, lam)
    if lam == 0.0:
        return cython_special.chdtrc(nu, c)
    return _ncx2_sf(c, nu, lam)


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


@functools.lru_cache(maxsize=64)
def count_support(kind: str, mu: float, alpha: float = 0.0) -> int:
    """Smallest K >= 1 with P(X >= K) < 1e-20, found without allocating.

    Raises ValueError when the table over 0..K would exceed MAX_COUNT_CELLS.
    Results are cached by argument list: pass alpha explicitly, as count_pmf
    does, to share its entry.
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
