"""Every public entry point that takes nu, lam, lambda0 or a test level
rejects NaN, +-inf and out-of-range values with the message of the one
check that owns the rule (``dist.check_nu``, ``check_lam``, ``check_level``
and the lambda0 rule of ``EquivalenceParams``)."""

import math

import pytest

from gofevid.dist import ChiSqParams, RandomStream, chisq_quantile, normal_quantile
from gofevid.divergence import J_noncentral, signed_root_J
from gofevid.evidence import EquivalenceParams, expected_evidence_against, \
    expected_evidence_equiv, lof_transform
from gofevid.pearson import equivalence_test, multinomial_power_mc, power_equivalence, \
    power_lack_of_fit

NAN, INF = math.nan, math.inf
P = EquivalenceParams(5, 12)
UNIFORM = [0.25] * 4


def _power_mc(alpha):
    return multinomial_power_mc(RandomStream(1), 100, UNIFORM, UNIFORM, alpha, 1000)


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
    (lambda: normal_quantile(NAN), r"p must lie strictly in \(0, 1\), got nan"),
    (lambda: normal_quantile([0.5, 1.0]), r"p must lie strictly in \(0, 1\), got 1.0"),
    (lambda: chisq_quantile(NAN, ChiSqParams(5)), r"p must lie strictly in \(0, 1\), got nan"),
    (lambda: power_lack_of_fit(NAN, 5, 1), r"alpha must lie strictly in \(0, 1\), got nan"),
    (lambda: power_lack_of_fit(0.05, 5, INF), "lam must be nonnegative and finite, got inf"),
    (lambda: power_equivalence(0.0, P, 1), r"alpha must lie strictly in \(0, 1\), got 0.0"),
    (lambda: equivalence_test(1, P, 1.0), r"alpha must lie strictly in \(0, 1\), got 1.0"),
    (lambda: _power_mc(NAN), r"alpha must lie strictly in \(0, 1\), got nan"),
    (lambda: _power_mc(-INF), r"alpha must lie strictly in \(0, 1\), got -inf"),
]


@pytest.mark.parametrize("call, message", CASES, ids=[m.split(" ")[0] + f"-{i}"
                                                      for i, (_, m) in enumerate(CASES)])
def test_bad_parameter_raises_owner_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
