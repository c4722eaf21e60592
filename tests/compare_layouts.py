"""Equivalence of two stream layouts, from two result trees of every scenario.

Write each tree with ``gofevid simulate --scenario S --seed 17 --out DIR`` for
every scenario S at the default reps, once under each layout, then run, from
the repository root,

    python tests/compare_layouts.py OLD_DIR NEW_DIR

For every row of ``DIR/S/S.json`` in both trees it takes
z = (new - old) / sqrt(se_old^2 + se_new^2) of ``mean_t`` with ``mc_se``
(``power`` with ``power_se`` in ``table1_models``), prints the largest |z| and
its row, and exits 1 when that exceeds 4, the bound a layout change must meet.
It exits 2 when the trees do not hold the same rows.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BOUND = 4.0
COLUMNS = {"table1_models": ("model", "power", "power_se")}  # scenario -> (key, value, se)
DEFAULT = ("grid_point", "mean_t", "mc_se")


def _rows(tree: Path, scenario: str, key: str) -> dict:
    path = tree / scenario / f"{scenario}.json"
    return {json.dumps(row[key]): row for row in json.loads(path.read_text())}


def z_scores(old: Path, new: Path) -> list[tuple[float, str, str]]:
    """(z, scenario, row key) for every row of every scenario in both trees."""
    scenarios = sorted(p.name for p in old.iterdir() if (new / p.name / f"{p.name}.json").exists())
    if not scenarios:
        raise ValueError(f"no scenario has results in both {old} and {new}")
    out = []
    for scenario in scenarios:
        key, value, se = COLUMNS.get(scenario, DEFAULT)
        a, b = _rows(old, scenario, key), _rows(new, scenario, key)
        if a.keys() != b.keys():
            raise ValueError(f"{scenario}: the trees hold different rows")
        for name in a:
            diff = b[name][value] - a[name][value]
            scale = math.hypot(a[name][se], b[name][se])
            out.append((diff / scale if scale > 0 else (0.0 if diff == 0 else math.inf),
                        scenario, name))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        zs = z_scores(Path(argv[0]), Path(argv[1]))
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    z, scenario, name = max(zs, key=lambda t: abs(t[0]))
    print(f"{len(zs)} rows; max |z| = {abs(z):.3f} ({z:+.3f} at {scenario} {name}); "
          f"bound {BOUND:g}")
    return 1 if abs(z) > BOUND else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
