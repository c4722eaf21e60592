"""Bundled example datasets.

DIE_COUNTS: outcomes of 100 tosses of a six-sided die, counts per face 1-6.
ALPHA_EMISSIONS_COUNTS: frequency table of alpha-particle emissions per
ten-second interval (1207 intervals, values 0-19).
"""

from __future__ import annotations

DIE_COUNTS = (17, 16, 25, 9, 16, 17)

ALPHA_EMISSIONS_COUNTS = (
    1, 4, 13, 28, 56, 105, 126, 146, 164, 161,
    123, 101, 74, 53, 23, 15, 9, 3, 1, 1,
)

FIXTURES = {
    "die": DIE_COUNTS,
    "alpha": ALPHA_EMISSIONS_COUNTS,
}
