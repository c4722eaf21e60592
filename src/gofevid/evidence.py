"""Variance-stabilized evidence transforms for chi-squared statistics.

Both transforms map a statistic S ~ chi2(nu, lam) onto the unit-normal
calibration scale: the result estimates its own mean with standard error 1
and is reported as ``T +/- 1``.  Thresholds 1.645 / 3.3 / 5.0 on |T| read as
weak / moderate / strong.

Each transform's arithmetic is one private array core, ``_lof_values`` and
``_equiv_values``, which takes a float64 array already known to hold no
negative or NaN entry.  ``lof_transform`` and ``equiv_transform`` check their
arguments, scalar or array, and then call the core; a caller that has checked
its statistics itself, such as the calibration loop of ``sim``, which checks
each shared block once for its whole grid, calls the core directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dist import check_lam, check_positive, check_statistic

__all__ = [
    "Direction",
    "EvidenceValue",
    "EquivalenceParams",
    "EvidenceLabel",
    "WEAK",
    "MODERATE",
    "STRONG",
    "lof_transform",
    "equiv_transform",
    "evidence_against",
    "expected_evidence_against",
    "evidence_for_equivalence",
    "expected_evidence_equiv",
    "max_expected_evidence",
    "evidence_label",
]

WEAK = 1.645
MODERATE = 3.3
STRONG = 5.0


class Direction(enum.Enum):
    AGAINST_NULL = "against_null"
    FOR_EQUIVALENCE = "for_equivalence"


@dataclass(frozen=True)
class EvidenceValue:
    """Evidence on the unit-normal scale; se is identically 1."""

    t: float
    direction: Direction
    se: float = field(default=1.0)

    def __str__(self) -> str:
        return f"{self.t:.2f} ± 1"


@dataclass(frozen=True)
class EquivalenceParams:
    """Degrees of freedom nu and equivalence boundary lambda0, both > 0."""

    nu: float
    lambda0: float

    def __post_init__(self):
        check_positive(self.nu, "nu")
        check_positive(self.lambda0, "lambda0")


def _branch_root(s: np.ndarray, nu: float):
    """(the index of s < nu, a new array of the branch's root): sqrt(2 s) below
    s = nu, written in by index over s - nu/2, and sqrt(s - nu/2) above, with
    no masked select."""
    lower = np.nonzero(s < nu)
    root = s - 0.5 * nu
    root[lower] = 2.0 * s[lower]
    np.sqrt(root, out=root)
    return lower, root


def _lof_values(s: np.ndarray, nu: float, bias_adjust: bool) -> np.ndarray:
    """``lof_transform`` of a float64 array s known to hold no negative or NaN
    entry, at a positive finite nu, without checks, as a new array; s stays
    as it is."""
    lower, out = _branch_root(s, nu)
    below = out[lower] - math.sqrt(2.0 * nu)
    out -= math.sqrt(0.5 * nu)
    out[lower] = below
    if bias_adjust:
        out += 0.2 / math.sqrt(nu)
    return out


def _equiv_values(s: np.ndarray, params: EquivalenceParams, bias_adjust: bool) -> np.ndarray:
    """``equiv_transform`` of a float64 array s known to hold no negative or
    NaN entry, without checks, as a new array; s stays as it is."""
    nu = params.nu
    c1 = math.sqrt(params.lambda0 + 0.5 * nu)
    c0 = c1 - math.sqrt(0.5 * nu) + math.sqrt(2.0 * nu)
    lower, out = _branch_root(s, nu)
    below = c0 - out[lower]
    np.subtract(c1, out, out=out)
    out[lower] = below
    if bias_adjust:
        out -= 0.5 / c1
    return out


def lof_transform(s, nu: float, bias_adjust: bool = True):
    """Evidence against the null model, vectorized over s.

    Piecewise: sqrt(2 s) - sqrt(2 nu) below s = nu, sqrt(s - nu/2) -
    sqrt(nu/2) above; continuous, strictly increasing, and 0 at s = nu
    before the +0.2/sqrt(nu) bias adjustment.  Rejects a negative or NaN
    statistic; the arithmetic is ``_lof_values``.
    """
    check_positive(nu, "nu")
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    check_statistic(sa)
    out = _lof_values(sa, nu, bias_adjust)
    return float(out[0]) if np.isscalar(s) else out


def equiv_transform(s, params: EquivalenceParams, bias_adjust: bool = True):
    """Evidence for equivalence (lam < lambda0), vectorized over s.

    With c1 = sqrt(lambda0 + nu/2) and c0 = c1 - sqrt(nu/2) + sqrt(2 nu):
    c0 - sqrt(2 s) below s = nu, c1 - sqrt(s - nu/2) above; continuous and
    strictly decreasing.  The adjustment subtracts 1/(2 c1), which removes
    the first-order bias at the boundary lam = lambda0.  Rejects a negative
    or NaN statistic; the arithmetic is ``_equiv_values``.
    """
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    check_statistic(sa)
    out = _equiv_values(sa, params, bias_adjust)
    return float(out[0]) if np.isscalar(s) else out


def evidence_against(s: float, nu: float, bias_adjust: bool = True) -> EvidenceValue:
    """Evidence against the hypothesized model in an observed statistic."""
    return EvidenceValue(t=lof_transform(float(s), nu, bias_adjust),
                         direction=Direction.AGAINST_NULL)


def expected_evidence_against(nu: float, lam: float) -> float:
    """First-order mean of the lack-of-fit evidence: sqrt(lam + nu/2) - sqrt(nu/2)."""
    check_positive(nu, "nu")
    check_lam(lam)
    return math.sqrt(lam + 0.5 * nu) - math.sqrt(0.5 * nu)


def evidence_for_equivalence(
    s: float, params: EquivalenceParams, bias_adjust: bool = True
) -> EvidenceValue:
    """Evidence that the model is within the equivalence boundary."""
    return EvidenceValue(t=equiv_transform(float(s), params, bias_adjust),
                         direction=Direction.FOR_EQUIVALENCE)


def expected_evidence_equiv(params: EquivalenceParams, lam: float) -> float:
    """First-order mean of the equivalence evidence at noncentrality lam."""
    check_lam(lam)
    return math.sqrt(params.lambda0 + 0.5 * params.nu) - math.sqrt(lam + 0.5 * params.nu)


def max_expected_evidence(params: EquivalenceParams) -> float:
    """Expected equivalence evidence when the model holds exactly (lam = 0)."""
    return expected_evidence_equiv(params, 0.0)


@dataclass(frozen=True)
class EvidenceLabel:
    strength: str  # negligible | weak | moderate | strong
    sign: str      # positive | negative | zero

    def __str__(self) -> str:
        if self.sign == "zero":
            return "negligible"
        return f"{self.strength} ({self.sign})"


def evidence_label(t: float) -> EvidenceLabel:
    """Descriptive label for an evidence value; sign is reported separately."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    a = abs(t)
    if a >= STRONG:
        strength = "strong"
    elif a >= MODERATE:
        strength = "moderate"
    elif a >= WEAK:
        strength = "weak"
    else:
        strength = "negligible"
    sign = "zero" if t == 0 else ("positive" if t > 0 else "negative")
    return EvidenceLabel(strength=strength, sign=sign)
