"""Symmetrized Kullback-Leibler divergences: closed form for a multinomial
against uniform, numerical quadrature for pairs of noncentral chi-squared laws."""

from __future__ import annotations

import math

import numpy as np

from .dist import ChiSqParams, _chisq_logpdf, check_lam, check_positive, check_probs
from .dist import chisq_density  # re-exported: the benchmark's spans and tests name it here
from .evidence import EquivalenceParams

__all__ = [
    "J_uniform",
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
    check_positive(n, "n")
    r = len(pa)
    return float(n * ((pa - 1.0 / r) * np.log(pa)).sum())


def _support_bound(params: ChiSqParams) -> float:
    mean = params.nu + params.lam
    sd = math.sqrt(2.0 * params.nu + 4.0 * params.lam)
    return mean + 40.0 * sd + 20.0


def J_noncentral(nu: float, lambdaA: float, lambdaB: float) -> float:
    """Symmetrized divergence between chi2(nu, lambdaA) and chi2(nu, lambdaB).

    Integrates (f_A - f_B) ln(f_A / f_B) by adaptive quadrature over the
    union of the effective supports; regions where both densities underflow
    contribute nothing (the integrand there is below any representable tail
    bound).
    """
    check_positive(nu, "nu")
    check_lam(lambdaA, "lambdaA")
    check_lam(lambdaB, "lambdaB")
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
                            limit=400, epsabs=1e-6, epsrel=1e-9)
    return max(val, 0.0)


def signed_root_J(params: EquivalenceParams, lam: float) -> float:
    """sgn(lambda0 - lam) * sqrt(J(lambda0, lam)); comparable to the
    first-order mean of the equivalence evidence."""
    check_lam(lam)
    j = J_noncentral(params.nu, params.lambda0, lam)
    return math.copysign(math.sqrt(j), params.lambda0 - lam)
