"""Machine-speed probe for the end-to-end call timings.

Small shared virtual machines change speed by up to about 2x over minutes as
their neighbours come and go: on a 2-core x86_64 one, identical gofevid calls
timed in 9-s windows over 4.5 minutes had an interquartile spread of 30-60%.
A run therefore times a fixed reference computation, which touches no gofevid
code, every ``EVERY_S`` seconds between calls, and scales its call timings by
``nominal / median(probe times)``: a timing is reported as it would read on a
machine where the probe takes its nominal time.  The run is cut into blocks
of whole cycles and each block is scaled by the probes taken during it, so a
slow stretch inside a run is scaled by its own factor.  The raw timings and
the factors are printed beside every adjusted metric.

The slow periods do not slow every kind of work alike, so the probe is made of
the kind of work the workload does.  In the same 4.5 minutes, scaling by the
*scalar* probe (interpreter loop plus scalar SciPy calls) left a spread of
2-6% on divergence, power and fit-table calls; scaling by the *bulk* probe
(vector arithmetic and bulk sampling) left 5% on calibration calls; each probe
did two to three times worse on the other kind.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special

EVERY_S = 0.5
_X = np.linspace(0.5, 50.0, 4000)


def _scalar() -> None:
    s = 0
    for i in range(20000):
        s += i * i
    one = np.array([1.0])
    for i in range(60):
        one[0] = 1.0 + i
        special.logsumexp(np.log(one) - special.gammaln(one + 0.5))


def _bulk() -> None:
    for _ in range(3):
        np.sort(special.gammaln(_X) + np.sqrt(_X) * np.log(_X))
    draws = np.random.Generator(np.random.Philox(key=7)).standard_gamma(2.5, size=60000)
    np.sqrt(draws).sum()


KINDS = {"scalar": _scalar, "bulk": _bulk}
NOMINAL_S = {"scalar": 8e-3, "bulk": 3e-3}


class SpeedLog:
    """Probe timings of the given kinds, taken at most every EVERY_S seconds."""

    def __init__(self, kinds: tuple[str, ...]):
        self.kinds = kinds
        self.probes: list[tuple[float, float]] = []  # (start, seconds)
        self._next = 0.0

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            t0 = time.perf_counter()
            for kind in self.kinds:
                KINDS[kind]()
            self.probes.append((t0, time.perf_counter() - t0))
            self._next = time.perf_counter() + EVERY_S

    def factor(self, start: float, end: float) -> float:
        """Nominal over the median time of the probes taken between start and
        end (of all probes if none was); multiply a duration by it."""
        times = [d for t, d in self.probes if start <= t <= end] or [d for _, d in self.probes]
        return sum(NOMINAL_S[k] for k in self.kinds) / statistics.median(times)
