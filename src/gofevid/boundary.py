"""Equivalence boundaries on the probability simplex and sample-size planning."""

from __future__ import annotations

import math

import numpy as np

from .dist import check_int, check_positive, check_probs

__all__ = [
    "euclid_d",
    "sup_M",
    "lambda0_uniform",
    "inradius",
    "least_divergent_point",
    "sample_size",
    "table2",
]


def check_k(k) -> None:
    """Reject a relative cell error k outside (0, 1]."""
    if not (0.0 < k <= 1.0):
        raise ValueError("k must lie in (0, 1]")


def _prob_vector(p, name: str, positive: bool = False) -> np.ndarray:
    """p as a float probability vector of length >= 2 (see ``check_probs``)."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise ValueError(f"{name} must be a 1-d probability vector of length >= 2")
    return check_probs(arr, name, positive)


def _simplex_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two probability vectors of one length >= 2, as float arrays."""
    pa, qa = _prob_vector(p, "p"), _prob_vector(q, "q")
    if pa.shape != qa.shape:
        raise ValueError("p and q must have the same length")
    return pa, qa


def euclid_d(p, q) -> float:
    """Euclidean distance between two probability vectors."""
    pa, qa = _simplex_pair(p, q)
    return float(np.sqrt(((pa - qa) ** 2).sum()))


def sup_M(p, q) -> float:
    """Sup-metric distance max_i |p_i - q_i|."""
    pa, qa = _simplex_pair(p, q)
    return float(np.abs(pa - qa).max())


def lambda0_uniform(n: int, r: int, k: float) -> float:
    """Boundary noncentrality n k^2 / (r - 1) for equivalence to uniformity."""
    check_int(n, "n", 1)
    check_int(r, "r", 2)
    check_k(k)
    return n * k * k / (r - 1)


def inradius(r: int) -> float:
    """Radius 1/sqrt(r(r-1)) of the ball inscribed in the (r-1)-simplex."""
    check_int(r, "r", 2)
    return 1.0 / math.sqrt(r * (r - 1))


def least_divergent_point(r: int, d0: float) -> np.ndarray:
    """The distribution at Euclidean distance d0 from uniform with least
    symmetrized KL divergence.

    Closed form: u_r + d0*sqrt(1-1/r)*(1, -1/(r-1), ..., -1/(r-1)); returned
    with the large coordinate first (any permutation is equally optimal).
    Requires d0 < sqrt(1-1/r) so that all entries stay positive.
    """
    check_int(r, "r", 2)
    if not (0.0 < d0 < math.sqrt(1.0 - 1.0 / r)):
        raise ValueError(f"d0 must lie in (0, sqrt(1 - 1/r)) = (0, {math.sqrt(1 - 1 / r)})")
    step = d0 * math.sqrt(1.0 - 1.0 / r)
    p = np.full(r, 1.0 / r - step / (r - 1))
    p[0] = 1.0 / r + step
    return p


def sample_size(m0: float, nu: float, r: int, d0: float) -> int:
    """Minimal n achieving maximum expected equivalence evidence m0.

    ceil of max{((m0 + sqrt(nu/2))^2 - nu/2) / (r d0^2), 5r}; the 5r floor
    keeps every expected cell count at or above 5.
    """
    if not (0.0 < m0 < math.inf and 0.0 < nu < math.inf and 0.0 < d0 < math.inf):
        check_positive(m0, "m0")  # the owner's message, off the usual path
        check_positive(nu, "nu")
        check_positive(d0, "d0")
    check_int(r, "r", 2)
    try:
        n = ((m0 + math.sqrt(0.5 * nu)) ** 2 - 0.5 * nu) / (r * d0 * d0)
    except (OverflowError, ZeroDivisionError):  # the square overflows, or d0 * d0 underflows
        n = math.inf
    if not n < math.inf:
        raise ValueError("the required sample size is not a finite number; "
                         "give a smaller m0 or a larger d0")
    return int(math.ceil(max(n, 5.0 * r)))


def _uniform_plan(m0: float, r: int, k: float) -> tuple:
    """(nu, d0, n0) for equivalence to uniformity over r cells at relative
    cell error k: nu = r - 1, d0 = k/sqrt(r(r-1)) and n0 = ``sample_size``'s
    exact int, which may pass 2^63."""
    check_k(k)
    check_int(r, "r", 2)  # before d0 divides by sqrt(r (r - 1))
    nu = float(r - 1)
    d0 = k / math.sqrt(r * (r - 1))
    return nu, d0, sample_size(m0, nu, r, d0)


def table2(m0_list, r_list, k: float = 1.0) -> np.ndarray:
    """Matrix of minimal sample sizes over a grid of m0 (rows) and r (cols),
    as exact Python ints in an object array.

    Each entry is recomputed exactly with nu = r - 1 and d0 = k/sqrt(r(r-1));
    rescaling a k=1 table by 1/k^2 is only approximate because the ceiling
    and the 5r floor do not commute with scaling.
    """
    out = np.empty((len(m0_list), len(r_list)), dtype=object)
    for i, m0 in enumerate(m0_list):
        for j, r in enumerate(r_list):
            out[i, j] = _uniform_plan(m0, r, k)[2]
    return out
