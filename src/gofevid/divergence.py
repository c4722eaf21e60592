"""Symmetrized Kullback-Leibler divergences: closed form for a multinomial
against uniform, one fixed Gauss-Legendre rule for pairs of noncentral
chi-squared laws."""

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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANEL = 0.25  # widest panel in u = sqrt(x), and in t for nu >= 0.05
_TINY = np.finfo(float).tiny


def _gauss_legendre(lo: float, hi: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite 20-point Gauss-Legendre nodes and weights on [lo, hi], on
    panels at most `width` wide."""
    edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / width)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel(), (half * _GL_WEIGHTS).ravel()


def _rule(nu: float, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with sum(w * g(x)) = the integral of g over
    [lo, hi], for g a chi2(nu, .) density times a smooth function.

    Gauss-Legendre in u = sqrt(x), where such a g has an sd of about 1 for
    every noncentrality.  For nu < 2 and lo = 0 the density grows like
    x^(nu/2 - 1) at 0, so [0, c], c = min(nu, 1), goes in t with
    x = c t^(2/nu), which makes g dx smooth; that part starts at the
    smallest normal float, below which x cannot be evaluated.
    """
    x = w = np.empty(0)
    if nu < 2.0 and lo == 0.0:
        c, p = min(nu, 1.0), 2.0 / nu
        t, wt = _gauss_legendre((_TINY / c) ** (0.5 * nu), 1.0, min(_PANEL, 5.0 * nu))
        x = c * t**p
        w = wt * p * x / t
        lo = c
    u, wu = _gauss_legendre(math.sqrt(lo), math.sqrt(hi), _PANEL)
    return np.concatenate([x, u * u]), np.concatenate([w, wu * 2.0 * u])


def J_noncentral(nu: float, lambdaA: float, lambdaB: float) -> float:
    """Symmetrized divergence between chi2(nu, lambdaA) and chi2(nu, lambdaB).

    Sums (f_A - f_B) ln(f_A / f_B) over one fixed rule (``_rule``) from the
    lower to the higher end of the two laws' mean -+ (40 sd + 20), floored
    at 0; nodes where both densities underflow contribute nothing.  Below the
    smallest normal float, where the rule stops, both densities are
    e^(-lambda/2) times the central one, so that sliver (which matters only
    for nu below about 0.05) is added in closed form.
    """
    check_lam(lambdaA, "lambdaA")
    check_lam(lambdaB, "lambdaB")
    pa, pb = ChiSqParams(nu, lambdaA), ChiSqParams(nu, lambdaB)  # before the shortcut: lam <= LAM_MAX
    if lambdaA == lambdaB:
        return 0.0
    spans = [(nu + lam, 40.0 * math.sqrt(2.0 * nu + 4.0 * lam) + 20.0)
             for lam in (lambdaA, lambdaB)]
    lo = max(0.0, min(mean - half for mean, half in spans))
    x, w = _rule(nu, lo, max(mean + half for mean, half in spans))
    la, lb = _chisq_logpdf(x, pa), _chisq_logpdf(x, pb)
    ok = (la >= _LOG_FLOOR) | (lb >= _LOG_FLOOR)
    val = float(w[ok] @ ((np.exp(la[ok]) - np.exp(lb[ok])) * (la[ok] - lb[ok])))
    if lo == 0.0 and nu < 2.0:
        # P(chi2(nu) <= tiny) = (tiny/2)^(nu/2) / Gamma(nu/2 + 1), and ln(f_A / f_B) there
        # is (lambdaB - lambdaA)/2
        sliver = math.exp(0.5 * nu * math.log(0.5 * _TINY) - math.lgamma(0.5 * nu + 1.0))
        gap = math.exp(-0.5 * lambdaA) - math.exp(-0.5 * lambdaB)
        val += gap * 0.5 * (lambdaB - lambdaA) * sliver
    return max(val, 0.0)


def signed_root_J(params: EquivalenceParams, lam: float) -> float:
    """sgn(lambda0 - lam) * sqrt(J(lambda0, lam)); comparable to the
    first-order mean of the equivalence evidence."""
    check_lam(lam)
    j = J_noncentral(params.nu, params.lambda0, lam)
    return math.copysign(math.sqrt(j), params.lambda0 - lam)
