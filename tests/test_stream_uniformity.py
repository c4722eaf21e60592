"""The paper's application to random number generators, aimed at the
harness's own streams: evidence that each ``RandomStream`` draws uniformly.

Choices made here (the paper's own n, r and k are not reproduced, and no
figure of the paper is claimed): 64 streams ``RandomStream(2019, i)``, each
binning 10^5 ``gen.random()`` values into r = 10 equiprobable cells, and
evidence for equivalence with uniform at relative cell error k = 0.1, so
lambda0 = n k^2 / (r - 1) = 111.1 and the most evidence to expect is
m0 = 8.63.  Every stream must show at least 3.3, "strong" evidence.  As a
control, the same values raised to the power 1.05 put 11.6% more than a
tenth of the mass in the first cell, outside the k = 0.1 margin, and every
stream must then fall below 1.645.  This is a sanity check on the streams,
not a substitute for a generator test battery.
"""

import numpy as np
import pytest

from gofevid.boundary import lambda0_uniform
from gofevid.dist import RandomStream
from gofevid.evidence import EquivalenceParams, equiv_transform, max_expected_evidence
from gofevid.pearson import pearson_stats

SEED, STREAMS, N, R, K = 2019, 64, 100_000, 10, 0.1
PARAMS = EquivalenceParams(nu=R - 1.0, lambda0=lambda0_uniform(N, R, K))


def _evidence(power: float) -> np.ndarray:
    """Evidence for uniformity of u**power per stream, u the stream's N uniforms."""
    counts = np.empty((STREAMS, R), dtype=np.int64)
    for i in range(STREAMS):
        u = RandomStream(SEED, i).gen.random(N) ** power
        counts[i] = np.bincount((u * R).astype(np.intp), minlength=R)
    return equiv_transform(pearson_stats(counts, np.full(R, 1.0 / R)), PARAMS)


def test_every_stream_shows_strong_evidence_of_uniformity():
    assert max_expected_evidence(PARAMS) == pytest.approx(8.63, abs=0.005)
    t = _evidence(1.0)
    assert t.min() >= 3.3, f"stream {t.argmin()} shows evidence {t.min():.3f}"


def test_a_skewed_transform_of_the_streams_is_not_uniform():
    t = _evidence(1.05)
    assert t.max() < 1.645, f"stream {t.argmax()} shows evidence {t.max():.3f}"
