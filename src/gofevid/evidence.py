"""Variance-stabilized evidence transforms for chi-squared statistics.

Both transforms map a statistic S ~ chi2(nu, lam) onto the unit-normal
calibration scale: the result estimates its own mean with standard error 1
and is reported as ``T +/- 1``.  Thresholds 1.645 / 3.3 / 5.0 on |T| read as
weak / moderate / strong.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dist import check_lam, check_nu

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
        check_nu(self.nu)
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")


def _branch_root(s: np.ndarray, nu: float):
    """(s < nu, the branch's root): sqrt(2 s) below s = nu and sqrt(s - nu/2)
    above, one np.sqrt over the selected arguments.  Rejects a negative or
    NaN statistic."""
    if not np.all(s >= 0):
        raise ValueError("statistic s must be nonnegative and not NaN")
    lower = s < nu
    return lower, np.sqrt(np.where(lower, 2.0 * s, s - 0.5 * nu))


def lof_transform(s, nu: float, bias_adjust: bool = True):
    """Evidence against the null model, vectorized over s.

    Piecewise: sqrt(2 s) - sqrt(2 nu) below s = nu, sqrt(s - nu/2) -
    sqrt(nu/2) above; continuous, strictly increasing, and 0 at s = nu
    before the +0.2/sqrt(nu) bias adjustment.
    """
    check_nu(nu)
    scalar = np.isscalar(s)
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    lower, root = _branch_root(sa, nu)
    out = root - np.where(lower, math.sqrt(2.0 * nu), math.sqrt(0.5 * nu))
    if bias_adjust:
        out += 0.2 / math.sqrt(nu)
    return float(out[0]) if scalar else out


def equiv_transform(s, params: EquivalenceParams, bias_adjust: bool = True):
    """Evidence for equivalence (lam < lambda0), vectorized over s.

    With c1 = sqrt(lambda0 + nu/2) and c0 = c1 - sqrt(nu/2) + sqrt(2 nu):
    c0 - sqrt(2 s) below s = nu, c1 - sqrt(s - nu/2) above; continuous and
    strictly decreasing.  The adjustment subtracts 1/(2 c1), which removes
    the first-order bias at the boundary lam = lambda0.
    """
    nu, lam0 = params.nu, params.lambda0
    scalar = np.isscalar(s)
    sa = np.atleast_1d(np.asarray(s, dtype=float))
    c1 = math.sqrt(lam0 + 0.5 * nu)
    c0 = c1 - math.sqrt(0.5 * nu) + math.sqrt(2.0 * nu)
    lower, root = _branch_root(sa, nu)
    out = np.where(lower, c0, c1) - root
    if bias_adjust:
        out -= 0.5 / c1
    return float(out[0]) if scalar else out


def evidence_against(s: float, nu: float, bias_adjust: bool = True) -> EvidenceValue:
    """Evidence against the hypothesized model in an observed statistic."""
    return EvidenceValue(t=lof_transform(float(s), nu, bias_adjust),
                         direction=Direction.AGAINST_NULL)


def expected_evidence_against(nu: float, lam: float) -> float:
    """First-order mean of the lack-of-fit evidence: sqrt(lam + nu/2) - sqrt(nu/2)."""
    check_nu(nu)
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
