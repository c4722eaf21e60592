"""Independent oracles for the test suite.

Kept deliberately separate from the library's own numerics: the incomplete
gamma here is a hand-rolled series / continued fraction, the normal CDF goes
through math.erfc, the evidence transforms are written out again from the
paper's definitions, moments under chi2(nu, lam) are Gauss-Legendre
quadrature against scipy.stats densities, and the divergence oracles are plain
trapezoid summation on a fine fixed grid and mpmath quadrature of the
Bessel-form densities at 30 digits.  The noncentral chi-squared
upper tail and the central critical value are mpmath's incomplete gamma at 40
digits, summed over the Poisson mixture.  The Poisson tail-cell layout is
the full-width evaluation the library's bracketed window must reproduce
byte for byte, so it shares the library's ``pdtr`` values on purpose.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special, stats

_EPS = 1e-15
_MAX_ITER = 10_000


def reg_inc_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series or continued fraction."""
    if x < 0 or a <= 0:
        raise ValueError("need x >= 0 and a > 0")
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # series: P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a)_{n+1}
        term = 1.0 / a
        total = term
        ap = a
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        return total * math.exp(-x + a * math.log(x) - lg)
    # Lentz continued fraction for Q(a,x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = h * math.exp(-x + a * math.log(x) - lg)
    return 1.0 - q


def central_chisq_cdf(x: float, nu: float) -> float:
    if x <= 0:
        return 0.0
    return reg_inc_gamma_p(0.5 * nu, 0.5 * x)


def central_chisq_quantile(p: float, nu: float) -> float:
    """Bisection on the oracle CDF."""
    lo, hi = 0.0, nu + 20.0 * math.sqrt(2.0 * nu) + 50.0
    while central_chisq_cdf(hi, nu) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if central_chisq_cdf(mid, nu) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _upper_gamma(a, x):
    return mpmath.gammainc(a, x, mpmath.inf, regularized=True)


def chisq_critical_mp(alpha: float, nu: float):
    """The c with P(chi2(nu) >= c) = alpha, as a 40-digit mpmath number."""
    with mpmath.workdps(40):
        return mpmath.findroot(lambda c: _upper_gamma(0.5 * mpmath.mpf(nu), c / 2) - alpha,
                               special.chdtri(nu, alpha))


def ncx2_sf_mp(x, nu: float, lam: float) -> float:
    """P(chi2(nu, lam) >= x) as the Poisson(lam/2) mixture of central upper
    tails, summed at 40 digits until the terms past the mode fall below 1e-35
    of the total."""
    with mpmath.workdps(40):
        half = mpmath.mpf(lam) / 2
        total, k = mpmath.mpf(0), 0
        while True:
            weight = mpmath.exp(k * mpmath.log(half) - half - mpmath.loggamma(k + 1)) if lam else 1
            term = weight * _upper_gamma(0.5 * mpmath.mpf(nu) + k, mpmath.mpf(x) / 2)
            total += term
            if lam == 0 or (k > half and term < total * mpmath.mpf(10) ** -35):
                return float(total)
            k += 1


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def lof_evidence(s, nu: float):
    """Bias-adjusted evidence against the model: sqrt(2 s) - sqrt(2 nu) below
    s = nu, sqrt(s - nu/2) - sqrt(nu/2) above, plus 0.2/sqrt(nu)."""
    s = np.asarray(s, dtype=float)
    t = np.where(s < nu, np.sqrt(2.0 * s) - math.sqrt(2.0 * nu),
                 np.sqrt(np.maximum(s - 0.5 * nu, 0.0)) - math.sqrt(0.5 * nu))
    return t + 0.2 / math.sqrt(nu)


def equiv_evidence(s, nu: float, lambda0: float):
    """Bias-adjusted evidence for equivalence: with c1 = sqrt(lambda0 + nu/2)
    and c0 = c1 - sqrt(nu/2) + sqrt(2 nu), c0 - sqrt(2 s) below s = nu and
    c1 - sqrt(s - nu/2) above, minus 1/(2 c1)."""
    s = np.asarray(s, dtype=float)
    c1 = math.sqrt(lambda0 + 0.5 * nu)
    c0 = c1 - math.sqrt(0.5 * nu) + math.sqrt(2.0 * nu)
    t = np.where(s < nu, c0 - np.sqrt(2.0 * s),
                 c1 - np.sqrt(np.maximum(s - 0.5 * nu, 0.0)))
    return t - 0.5 / c1


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _ncx2_rule(nu: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with sum(w * f(x)) = E[f(S)], S ~ chi2(nu, lam).

    Composite 20-point Gauss-Legendre in u = sqrt(x), on panels at most 0.25
    wide with an edge at x = nu, up to 40 sd past the mean.  In u the density
    times the Jacobian is smooth at 0 for integer nu (for nu = 1 the x^-1/2
    pole cancels) and has sd about 1 for every lam, and the transforms are
    smooth on each side of x = nu, so the rule is exact to rounding there.
    """
    hi = nu + lam + 40.0 * math.sqrt(2.0 * nu + 4.0 * lam) + 20.0
    edges = np.concatenate([
        np.linspace(0.0, math.sqrt(nu), math.ceil(4.0 * math.sqrt(nu)) + 1)[:-1],
        np.linspace(math.sqrt(nu), math.sqrt(hi),
                    math.ceil(4.0 * (math.sqrt(hi) - math.sqrt(nu))) + 1),
    ])
    half = 0.5 * np.diff(edges)[:, None]
    u = (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel()
    x = u * u
    pdf = stats.chi2.pdf(x, nu) if lam == 0.0 else stats.ncx2.pdf(x, nu, lam)
    return x, (half * _GL_WEIGHTS).ravel() * 2.0 * u * pdf


def exact_moments(fn, nu: float, lam: float) -> tuple[float, float, float]:
    """Exact mean, sd and fourth central moment of fn(S), S ~ chi2(nu, lam).

    fn must accept an array and be smooth on each side of s = nu.
    """
    x, w = _ncx2_rule(nu, lam)
    t = fn(x)
    mean = float(w @ t)
    d = t - mean
    return mean, math.sqrt(float(w @ d**2)), float(w @ d**4)


def transform_moments(fn, nu: float, lam: float) -> tuple[float, float]:
    """Exact mean and sd of fn(S) for S ~ chi2(nu, lam)."""
    mean, sd, _ = exact_moments(fn, nu, lam)
    return mean, sd


def trapezoid_J(nu: float, lam_a: float, lam_b: float, n_points: int = 200_001) -> float:
    """Symmetrized divergence by trapezoid sums on a fine fixed grid.

    Integrates in u = sqrt(x) so the nu < 2 endpoint singularity of the
    density does not poison the uniform grid.
    """
    if lam_a == lam_b:
        return 0.0
    hi = max(nu + lam_a, nu + lam_b) + 40.0 * math.sqrt(2.0 * nu + 4.0 * max(lam_a, lam_b)) + 20.0
    u = np.linspace(1e-9, math.sqrt(hi), n_points)
    x = u * u
    la = stats.ncx2.logpdf(x, nu, lam_a) if lam_a > 0 else stats.chi2.logpdf(x, nu)
    lb = stats.ncx2.logpdf(x, nu, lam_b) if lam_b > 0 else stats.chi2.logpdf(x, nu)
    ok = (la > -690) | (lb > -690)
    integrand = np.zeros_like(x)
    integrand[ok] = (np.exp(la[ok]) - np.exp(lb[ok])) * (la[ok] - lb[ok]) * 2.0 * u[ok]
    return float(np.trapezoid(integrand, u))


def _ncx2_logpdf_mp(x, nu, lam):
    """log density of chi2(nu, lam) in mpmath: the central gamma form at
    lam = 0, else the Bessel form."""
    if lam == 0:
        return ((nu / 2 - 1) * mpmath.log(x) - x / 2 - (nu / 2) * mpmath.log(2)
                - mpmath.loggamma(nu / 2))
    return (-mpmath.log(2) - (x + lam) / 2 + (nu / 4 - mpmath.mpf(1) / 2) * mpmath.log(x / lam)
            + mpmath.log(mpmath.besseli(nu / 2 - 1, mpmath.sqrt(lam * x))))


def ncx2_J_mp(nu: float, lam_a: float, lam_b: float) -> float:
    """Symmetrized divergence of chi2(nu, lam_a) and chi2(nu, lam_b) by mpmath
    quadrature at 30 digits, up to 40 sd past the larger mean.

    For nu < 2 the densities grow like x^(nu/2 - 1) at 0, so the part below
    c = min(nu, 1) is integrated in t = x^(nu/2), where the integrand is
    smooth; the rest goes in u = sqrt(x) on 12 panels.
    """
    with mpmath.workdps(30):
        nu, a, b = mpmath.mpf(nu), mpmath.mpf(lam_a), mpmath.mpf(lam_b)

        def g(x):
            la, lb = _ncx2_logpdf_mp(x, nu, a), _ncx2_logpdf_mp(x, nu, b)
            return (mpmath.exp(la) - mpmath.exp(lb)) * (la - lb)

        hi = max(nu + lam + 40 * mpmath.sqrt(2 * nu + 4 * lam) + 20 for lam in (a, b))
        c = min(nu, 1) if nu < 2 else mpmath.mpf(0)
        total = mpmath.mpf(0)
        if c:
            p = 2 / nu
            total += mpmath.quad(lambda t: g(t**p) * p * t ** (p - 1), [0, c ** (nu / 2)])
        edges = mpmath.linspace(mpmath.sqrt(c), mpmath.sqrt(hi), 13)
        total += mpmath.quad(lambda u: g(u * u) * 2 * u, edges)
        return float(total)


def uniform_sphere_simplex(rng: np.random.Generator, r: int, radius: float,
                           size: int) -> np.ndarray:
    """Random points at Euclidean distance `radius` from uniform, inside the
    simplex (rejection on positivity)."""
    out = np.empty((size, r))
    got = 0
    while got < size:
        z = rng.standard_normal((2 * (size - got) + 16, r))
        z -= z.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(z, axis=1)
        z = z[norms > 1e-12]
        norms = norms[norms > 1e-12]
        pts = 1.0 / r + radius * z / norms[:, None]
        pts = pts[np.all(pts > 0.0, axis=1)]
        take = min(len(pts), size - got)
        out[got : got + take] = pts[:take]
        got += take
    return out


def poisson_tail_cells(n: int, mu: np.ndarray):
    """(r0, r, cdf): tail-cell layout of each mu from the full-width CDF.

    ``cdf[:, k] = P(X <= k)`` on every column 0..max kmax, where each row's
    kmax starts at mu + 12 sqrt(mu) + 30 and doubles until the upper tail
    beyond it expects fewer than 5.  The first combined cell is
    {X <= r0 + 1}, the first with expected count >= 5, and the last
    {X >= r0 + r}, the last such cell from above.
    """
    kmax = (mu + 12.0 * np.sqrt(mu) + 30.0).astype(np.int64)
    while True:
        short = n * (1.0 - special.pdtr(kmax - 1, mu)) >= 5.0
        if not short.any():
            break
        kmax[short] *= 2
    cdf = special.pdtr(np.arange(kmax.max() + 1), mu[:, None])
    r0 = (n * cdf >= 5.0).argmax(axis=1) - 1
    hi_ok = n * (1.0 - cdf[:, :-1]) >= 5.0
    hi = np.where(hi_ok.any(axis=1), hi_ok.shape[1] - hi_ok[:, ::-1].argmax(axis=1), 0)
    return r0, hi - r0, cdf
