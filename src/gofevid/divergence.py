"""Symmetrized Kullback-Leibler divergences: closed form for a multinomial
against uniform, numerical quadrature for pairs of noncentral chi-squared laws."""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .dist import ChiSqParams, check_probs
from .evidence import EquivalenceParams

__all__ = [
    "J_uniform",
    "chisq_density",
    "J_noncentral",
    "signed_root_J",
]

_LOG_FLOOR = -690.0  # exp() underflows to 0 a bit below this


def J_uniform(p, n: int = 1) -> float:
    """Symmetrized divergence of p from uniform: n * sum((p_i - 1/r) ln p_i)."""
    pa = np.asarray(p, dtype=float)
    if pa.ndim != 1 or len(pa) < 2:
        raise ValueError("p must be a 1-d probability vector of length >= 2")
    check_probs(pa, "p", positive=True)  # the divergence is infinite at a zero entry
    if n <= 0:
        raise ValueError("n must be positive")
    r = len(pa)
    return float(n * ((pa - 1.0 / r) * np.log(pa)).sum())


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
    """Density of the (non)central chi-squared law; nonpositive x maps to 0."""
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(xa.shape, dtype=float)
    pos = xa > 0.0
    if np.any(pos):
        out[pos] = np.exp(_chisq_logpdf(xa[pos], params))
    return float(out[0]) if scalar else out


def _support_bound(params: ChiSqParams) -> float:
    mean = params.nu + params.lam
    sd = math.sqrt(2.0 * params.nu + 4.0 * params.lam)
    return mean + 40.0 * sd + 20.0


def J_noncentral(nu: float, lambdaA: float, lambdaB: float, epsabs: float = 1e-6) -> float:
    """Symmetrized divergence between chi2(nu, lambdaA) and chi2(nu, lambdaB).

    Integrates (f_A - f_B) ln(f_A / f_B) by adaptive quadrature over the
    union of the effective supports; regions where both densities underflow
    contribute nothing (the integrand there is below any representable tail
    bound).
    """
    if not (nu > 0 and lambdaA >= 0 and lambdaB >= 0):
        raise ValueError("need nu > 0 and nonnegative noncentralities")
    if lambdaA == lambdaB:
        return 0.0
    from scipy import integrate  # ~0.3 s to import; no pipeline or CLI command needs it

    pa = ChiSqParams(nu, lambdaA)
    pb = ChiSqParams(nu, lambdaB)
    hi = max(_support_bound(pa), _support_bound(pb))

    def integrand(x: float) -> float:
        xa = np.array([x])
        la = float(_chisq_logpdf(xa, pa)[0])
        lb = float(_chisq_logpdf(xa, pb)[0])
        if la < _LOG_FLOOR and lb < _LOG_FLOOR:
            return 0.0
        return (math.exp(la) - math.exp(lb)) * (la - lb)

    breaks = sorted({nu + lambdaA, nu + lambdaB} - {0.0, hi})
    val, _ = integrate.quad(integrand, 0.0, hi, points=breaks or None,
                            limit=400, epsabs=epsabs, epsrel=1e-9)
    return max(val, 0.0)


def signed_root_J(params: EquivalenceParams, lam: float, epsabs: float = 1e-6) -> float:
    """sgn(lambda0 - lam) * sqrt(J(lambda0, lam)); comparable to the
    first-order mean of the equivalence evidence."""
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    j = J_noncentral(params.nu, params.lambda0, lam, epsabs=epsabs)
    return math.copysign(math.sqrt(j), params.lambda0 - lam)
