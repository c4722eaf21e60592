"""Every public entry point that takes nu, lam, lambda0 or a test level
rejects NaN, +-inf and out-of-range values with the message of the one
check in ``dist`` that owns the rule (``check_positive(nu, "nu")``,
``check_lam``, ``check_level``, ``check_law`` above LAM_MAX, and the lambda0
rule of ``EquivalenceParams``); ``equivalence_test`` rejects a negative or
NaN statistic with the message of ``dist.check_statistic``, as the evidence
transforms do.  ``dist.check_int`` owns the integer rules: among them
``multinomial_power_mc`` takes only an integer sample size n >= 1 and
integer reps >= 1000, bools rejected, and ``combine_cells_poisson`` and
``lambda0_uniform`` take only an integer n >= 1 before their own floors.
``multinomial_power_mc`` rejects a probability vector that is not 1-d of
length >= 2 with the message of ``boundary._prob_vector``.  ``sim`` only
checks that a JSON parameter is a number before it hands the value to these
owners; the CLI tests pin that path.  Every entry point that takes cell
counts rejects float (even whole-valued), negative, empty, zero-total and
wrongly shaped counts with the message of ``pearson.check_counts``."""

import math
import re

import numpy as np
import pytest

from gofevid.boundary import lambda0_uniform
from gofevid.dist import ChiSqParams, RandomStream, chisq_quantile
from gofevid.divergence import J_noncentral, signed_root_J
from gofevid.evidence import EquivalenceParams, expected_evidence_against, \
    expected_evidence_equiv, lof_transform
from gofevid.model_fit import combine_cells_poisson, evidence_for_poisson, poisson_evidence_rows, \
    poisson_mle
from gofevid.pearson import CellData, equivalence_test, multinomial_power_mc, power_equivalence, \
    power_lack_of_fit

NAN, INF = math.nan, math.inf
P = EquivalenceParams(5, 12)
UNIFORM = [0.25] * 4
LAW_MAX = (r"no chi-squared law for nu = 5\.0, lam = {lam}\.0: lam must be at most LAM_MAX = 1e\+10, "
           r"where SciPy's kernels are finite")  # dist.check_law's message above LAM_MAX
VECTOR = "{} must be a 1-d probability vector of length >= 2"  # boundary._prob_vector's message


def _power_mc(alpha, true_probs=UNIFORM, null_probs=UNIFORM):
    return multinomial_power_mc(RandomStream(1), 100, true_probs, null_probs, alpha, 1000)


CASES = [
    # (call, the message's rule); the message then ends with ", got <value>"
    (lambda: expected_evidence_against(INF, 1), "nu must be positive and finite, got inf"),
    (lambda: expected_evidence_against(-INF, 1), "nu must be positive and finite, got -inf"),
    (lambda: expected_evidence_against(5, INF), "lam must be nonnegative and finite, got inf"),
    (lambda: expected_evidence_against(5, NAN), "lam must be nonnegative and finite, got nan"),
    (lambda: expected_evidence_equiv(P, INF), "lam must be nonnegative and finite, got inf"),
    (lambda: expected_evidence_equiv(P, -1), "lam must be nonnegative and finite, got -1"),
    (lambda: J_noncentral(INF, 1, 1), "nu must be positive and finite, got inf"),
    (lambda: J_noncentral(NAN, 1, 2), "nu must be positive and finite, got nan"),
    (lambda: J_noncentral(5, INF, INF), "lambdaA must be nonnegative and finite, got inf"),
    (lambda: J_noncentral(5, 1, -1), "lambdaB must be nonnegative and finite, got -1"),
    (lambda: signed_root_J(P, -1), "lam must be nonnegative and finite, got -1"),
    (lambda: signed_root_J(P, NAN), "lam must be nonnegative and finite, got nan"),
    (lambda: lof_transform(1, NAN), "nu must be positive and finite, got nan"),
    (lambda: lof_transform(1, 0), "nu must be positive and finite, got 0"),
    (lambda: EquivalenceParams(INF, 12), "nu must be positive and finite, got inf"),
    (lambda: EquivalenceParams(5, NAN), "lambda0 must be positive and finite, got nan"),
    (lambda: EquivalenceParams(5, 0), "lambda0 must be positive and finite, got 0"),
    (lambda: ChiSqParams(-INF), "nu must be positive and finite, got -inf"),
    (lambda: ChiSqParams(5, -1e-9), "lam must be nonnegative and finite, got -1e-09"),
    (lambda: chisq_quantile(0.0, ChiSqParams(5)), r"p must lie strictly in \(0, 1\), got 0.0"),
    (lambda: chisq_quantile(1.0, ChiSqParams(5)), r"p must lie strictly in \(0, 1\), got 1.0"),
    (lambda: chisq_quantile(NAN, ChiSqParams(5)), r"p must lie strictly in \(0, 1\), got nan"),
    (lambda: power_lack_of_fit(NAN, 5, 1), r"alpha must lie strictly in \(0, 1\), got nan"),
    (lambda: power_lack_of_fit(0.05, 5, INF), "lam must be nonnegative and finite, got inf"),
    (lambda: power_equivalence(0.0, P, 1), r"alpha must lie strictly in \(0, 1\), got 0.0"),
    (lambda: equivalence_test(1, P, 1.0), r"alpha must lie strictly in \(0, 1\), got 1.0"),
    (lambda: _power_mc(NAN), r"alpha must lie strictly in \(0, 1\), got nan"),
    (lambda: _power_mc(-INF), r"alpha must lie strictly in \(0, 1\), got -inf"),
    (lambda: equivalence_test(-3.0, P, 0.05), "statistic s must be nonnegative and not NaN"),
    (lambda: equivalence_test(NAN, P, 0.05), "statistic s must be nonnegative and not NaN"),
    (lambda: J_noncentral(5, 1e11, 1e11), LAW_MAX.format(lam="100000000000")),
    (lambda: signed_root_J(EquivalenceParams(5, 2e10), 2e10), LAW_MAX.format(lam="20000000000")),
    (lambda: combine_cells_poisson(100.5, 1.0), "n must be an integer >= 1, got 100.5"),
    (lambda: lambda0_uniform(100.7, 6, 0.5), "n must be an integer >= 1, got 100.7"),
    (lambda: lambda0_uniform(True, 6, 0.5), "n must be an integer >= 1, got True"),
    # a one-cell vector once gave power 0 at a NaN critical value, a 0-d one a
    # TypeError from len(), and a (rows, r) pair a numpy broadcast error
    (lambda: _power_mc(0.05, [1.0], [1.0]), VECTOR.format("null_probs")),
    (lambda: _power_mc(0.05, 1.0), VECTOR.format("true_probs")),
    (lambda: _power_mc(0.05, [UNIFORM] * 2, [UNIFORM] * 2), VECTOR.format("null_probs")),
]


@pytest.mark.parametrize("call, message", CASES, ids=[m.split(" ")[0] + f"-{i}"
                                                      for i, (_, m) in enumerate(CASES)])
def test_bad_parameter_raises_owner_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("n", [100.7, 100.0, True, False, 0, -3, np.int64(-3), "100", None],
                         ids=repr)
def test_power_mc_rejects_bad_n(n):
    # numpy's multinomial would truncate 100.7 to 100 and draw n = True as 1
    with pytest.raises(ValueError, match=f"^n must be an integer >= 1, got {re.escape(repr(n))}$"):
        multinomial_power_mc(RandomStream(1), n, UNIFORM, UNIFORM, 0.05, 1000)


def test_power_mc_takes_numpy_integer_n():
    est = multinomial_power_mc(RandomStream(1), np.int64(100), UNIFORM, UNIFORM, 0.05, 1000)
    assert est == _power_mc(0.05)


@pytest.mark.parametrize("reps", [1000.5, 2000.0, True, 999, np.int64(999), "1000", None],
                         ids=repr)
def test_power_mc_rejects_bad_reps(reps):
    # a float once reached range() and failed there with a TypeError
    with pytest.raises(ValueError,
                       match=f"^reps must be an integer >= 1000, got {re.escape(repr(reps))}$"):
        multinomial_power_mc(RandomStream(1), 100, UNIFORM, UNIFORM, 0.05, reps)


def test_power_mc_takes_numpy_integer_reps():
    est = multinomial_power_mc(RandomStream(1), 100, UNIFORM, UNIFORM, 0.05, np.int64(1000))
    assert est == _power_mc(0.05)


FLOATS = r"counts must be nonnegative integers, got dtype float64"
TABLE = [1, 2, 3]
BAD_COUNTS = [
    # (name, a 1-d table, the message's rule); 2-d entry points get it as one row
    ("2.99999", [2.99999, 3, 4], FLOATS),  # the float path once truncated this to n = 9
    ("3.0", [3.0, 3, 4], FLOATS),
    ("nan", [NAN, 3, 4], FLOATS),
    ("inf", [INF, 3, 4], FLOATS),  # poisson_mle once returned nan
    ("1e19", [1e19, 3, 4], FLOATS),
    ("negative", [-1, 3, 4], "counts must be nonnegative integers, got -1"),
    ("empty", [], None),
    ("zero-total", [0, 0, 0], "total count must be positive"),
    ("wrong-ndim", None, None),
]
COUNT_ENTRIES = [  # (name, ndim, call)
    ("CellData", 1, lambda c: CellData(counts=c, null_probs=[1 / 3] * 3)),
    ("poisson_mle", 1, poisson_mle),
    ("evidence_for_poisson", 1, evidence_for_poisson),
    ("poisson_evidence_rows", 2, poisson_evidence_rows),
]
SHAPES = {1: "1-d", 2: r"\(rows, cells\)"}


def _count_case(ndim, table, message):
    shape_message = f"counts must be a nonempty {SHAPES[ndim]} array"
    if table is None:  # a valid table given with the other number of axes
        return (TABLE if ndim == 2 else [TABLE]), shape_message
    return (table if ndim == 1 else [table]), message or shape_message


COUNT_CASES = [(call, *_count_case(ndim, table, message))
               for _, ndim, call in COUNT_ENTRIES for _, table, message in BAD_COUNTS]


@pytest.mark.parametrize("call, counts, message", COUNT_CASES,
                         ids=[f"{e}-{b}" for e, _, _ in COUNT_ENTRIES for b, _, _ in BAD_COUNTS])
def test_bad_counts_raise_check_counts_message(call, counts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(counts)
