"""Command-line front end: evidence reports, sample-size planning, simulations."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import fixtures
from .boundary import _uniform_plan, lambda0_uniform
from .dist import check_probs, clip_repr
from .evidence import (
    EquivalenceParams,
    evidence_against,
    evidence_for_equivalence,
    evidence_label,
    max_expected_evidence,
)
from .pearson import CellData, pearson_stat
from .model_fit import evidence_for_normality, evidence_for_poisson
from .sim import SCENARIOS, SimConfig, run_scenario


MAX_COUNT_VALUE = 1_000_000  # largest value an 'index,count' line may give
MAX_COUNT = 2**53  # largest count, and largest total, that float64 holds exactly


class UsageError(ValueError):
    pass


def _data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of `path` that is neither
    blank nor a '#' comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse_counts(path: str) -> tuple[list[int], list[int]]:
    """Parse a counts file: either 'index,count' pairs or one count per line.

    Returns (indices, counts); one-count lines are indexed 0, 1, 2, ...
    """
    indices: list[int] = []
    counts: list[int] = []
    indexed = None
    for lineno, line in _data_lines(path):
        parts = [p.strip() for p in line.split(",")]
        try:
            if len(parts) == 2:
                is_pair = True
                idx, cnt = int(parts[0]), int(parts[1])
            elif len(parts) == 1:
                is_pair = False
                idx, cnt = len(counts), int(parts[0])
            else:
                raise ValueError("expected 'count' or 'index,count'")
            if cnt < 0:
                raise ValueError("counts must be nonnegative")
            if cnt > MAX_COUNT:
                raise ValueError(f"count {clip_repr(cnt)} exceeds the limit 2**53")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if indexed is None:
            indexed = is_pair
        elif indexed != is_pair:
            raise ValueError(f"{path}:{lineno}: mixed 'count' and 'index,count' lines")
        indices.append(idx)
        counts.append(cnt)
    if not counts:
        raise ValueError(f"{path}: no counts found")
    if sum(counts) > MAX_COUNT:
        raise ValueError(f"{path}: the counts total {sum(counts)}, above the limit 2**53")
    return indices, counts


def _parse_reals(path: str) -> np.ndarray:
    values = []
    for lineno, line in _data_lines(path):
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a number: {clip_repr(line)}") from exc
    if not values:
        raise ValueError(f"{path}: no data found")
    return np.asarray(values)


def _load_counts(args) -> tuple[list[int], np.ndarray]:
    """(indices, counts) from --fixture or the counts file, in index order.

    Lines that repeat an index are summed into one cell; a file of plain
    counts, or a fixture, is indexed 0, 1, 2, ...
    """
    if args.fixture and args.counts_file:
        raise UsageError("give either a counts file or --fixture, not both")
    if args.fixture:
        counts = fixtures.FIXTURES[args.fixture]
        indices = range(len(counts))
    elif args.counts_file:
        indices, counts = _parse_counts(args.counts_file)
    else:
        raise UsageError("provide a counts file or --fixture")
    cells: dict[int, int] = {}
    for idx, cnt in zip(indices, counts):
        cells[idx] = cells.get(idx, 0) + cnt
    order = sorted(cells)
    return order, np.asarray([cells[idx] for idx in order])


def _cells_report(args) -> dict:
    """The report keys evidence-lof and evidence-equiv share, r to nu: the
    observed cells' size and Pearson statistic."""
    _, counts = _load_counts(args)
    r = len(counts)
    if r < 2:
        raise ValueError("need at least 2 cells (df would be 0)")
    cells = CellData(counts=counts, null_probs=_null_probs(args, r))
    return {"r": r, "n": cells.n, "s_stat": pearson_stat(cells), "nu": float(r - 1)}


def _null_probs(args, r: int) -> np.ndarray:
    if args.probs in (None, "uniform"):
        return np.full(r, 1.0 / r)
    probs = _parse_reals(args.probs)
    if len(probs) != r:
        raise ValueError(f"--probs has {len(probs)} entries but the data has {r} cells")
    return check_probs(probs, "--probs", positive=True)


def _emit(args, report: dict, text_lines: list[str]) -> None:
    """Print a command's report, headed by its name, in the form args ask for."""
    report = {"command": args.command, **report}
    if args.output_format == "json":
        print(json.dumps({"schema": "gofevid.report/1", **report}, sort_keys=True))
    elif args.output_format == "csv":
        keys = [k for k, v in report.items() if not isinstance(v, (list, dict))]
        print(",".join(keys))
        print(",".join(str(report[k]) for k in keys))
    else:
        print("\n".join(text_lines))


def _evidence_line(kind: str, t: float) -> str:
    return f"{kind}: T = {t:.3f} ± 1  [{evidence_label(t)}]"


def _equivalence_lines(kind: str, report: dict) -> list[str]:
    """The text lines an equivalence report ends with, from its s_stat, nu,
    k, lambda0, m0, bias_adjust and t."""
    return [
        f"  S:                 {report['s_stat']:.4f}",
        f"  df (nu):           {report['nu']:g}",
        f"  k:                 {report['k']:g}",
        f"  lambda0:           {report['lambda0']:.4f}",
        f"  max expected (m0): {report['m0']:.4f}",
        f"  bias adjust:       {'on' if report['bias_adjust'] else 'off'}",
        "  " + _evidence_line(kind, report["t"]),
    ]


def cmd_evidence_lof(args) -> int:
    report = _cells_report(args)
    adjust = not args.no_bias_adjust
    ev = evidence_against(report["s_stat"], report["nu"], bias_adjust=adjust)
    report.update(bias_adjust=adjust, t=ev.t, se=1.0, label=evidence_label(ev.t))
    _emit(args, report, [
        "Evidence against the hypothesized cell probabilities",
        f"  cells (r):    {report['r']}",
        f"  n:            {report['n']}",
        f"  S:            {report['s_stat']:.4f}",
        f"  df (nu):      {report['nu']:g}",
        f"  bias adjust:  {'on' if adjust else 'off'}",
        "  " + _evidence_line("evidence against fit", ev.t),
    ])
    return 0


def cmd_evidence_equiv(args) -> int:
    report = _cells_report(args)
    params = EquivalenceParams(nu=report["nu"],
                               lambda0=lambda0_uniform(report["n"], report["r"], args.k))
    adjust = not args.no_bias_adjust
    ev = evidence_for_equivalence(report["s_stat"], params, bias_adjust=adjust)
    report.update(k=args.k, lambda0=params.lambda0, m0=max_expected_evidence(params),
                  bias_adjust=adjust, t=ev.t, se=1.0, label=evidence_label(ev.t))
    _emit(args, report, [
        "Evidence for equivalence to the hypothesized cell probabilities",
        f"  cells (r):         {report['r']}",
        f"  n:                 {report['n']}",
        *_equivalence_lines("evidence for equivalence", report),
    ])
    return 0


def cmd_samplesize(args) -> int:
    r = args.r
    nu, d0, n0 = _uniform_plan(args.m0, r, args.k)
    report = {
        "m0": args.m0,
        "r": r,
        "k": args.k,
        "nu": nu,
        "d0": d0,
        "n0": n0,
    }
    _emit(args, report, [
        f"Minimum sample size for maximum expected equivalence evidence m0 = {args.m0:g}",
        f"  cells (r):  {r}   df (nu): {nu:g}   k: {args.k:g}   d0: {d0:.6f}",
        f"  n0 = {n0}",
    ])
    return 0


def cmd_fit_normal(args) -> int:
    data = _parse_reals(args.data_file)
    report = evidence_for_normality(data, k=args.k, bias_adjust=not args.no_bias_adjust)
    d = report.to_dict()
    _emit(args, d, [
        "Evidence for normality",
        f"  n:                 {report.n}",
        f"  r (cells):         {report.r}",
        *_equivalence_lines("evidence for normality", d),
    ])
    return 0


def cmd_fit_poisson(args) -> int:
    values, counts = _load_counts(args)
    if values[0] < 0:
        raise ValueError("count-data indices must be nonnegative")
    if values[-1] > MAX_COUNT_VALUE:
        raise ValueError(f"count-data index {clip_repr(values[-1])} exceeds the limit "
                         f"{MAX_COUNT_VALUE}")
    table = np.zeros(values[-1] + 1, dtype=np.int64)  # dense frequency table on 0..max
    table[values] = counts
    report = evidence_for_poisson(table, k=args.k, bias_adjust=not args.no_bias_adjust)
    d = report.to_dict()
    _emit(args, d, [
        "Evidence for a Poisson model",
        f"  n:                 {report.n}",
        f"  mu_hat:            {report.mu_hat:.4f}",
        f"  combined cells:    r = {report.r} (first = values <= {report.r0 + 1}, "
        f"last = values >= {report.r0 + report.r})",
        *_equivalence_lines("evidence for Poisson", d),
    ])
    return 0


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    try:
        params = json.loads(args.params) if args.params else {}
    except RecursionError:
        raise ValueError("--params is nested too deeply") from None
    config = SimConfig(scenario=args.scenario, reps=args.reps, seed=args.seed,
                       params=params)
    out_dir = args.out or os.environ.get("GOFEVID_RESULTS_DIR", "results")
    out = Path(out_dir) / args.scenario
    out.mkdir(parents=True, exist_ok=True)  # before the run, so a bad --out fails at once
    rows = run_scenario(config, out_dir=out, workers=args.workers)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse gets a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="gofevid",
        description="Calibrated evidence for and against goodness of fit "
                    "from Pearson chi-squared statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("-f", "--output-format", choices=("text", "json", "csv"),
                       default="text")

    def add_counts_input(p, fixture_choices):
        p.add_argument("counts_file", nargs="?", help="CSV of 'index,count' or one count per line")
        p.add_argument("--fixture", choices=fixture_choices,
                       help="use a bundled dataset instead of a file")

    p = sub.add_parser("evidence-lof", help="evidence against a fully specified cell model")
    add_counts_input(p, fixtures.FIXTURES)
    p.add_argument("--probs", help="file of null cell probabilities, or 'uniform'")
    p.add_argument("--no-bias-adjust", action="store_true")
    add_format(p)
    p.set_defaults(fn=cmd_evidence_lof)

    p = sub.add_parser("evidence-equiv", help="evidence for equivalence to a cell model")
    add_counts_input(p, fixtures.FIXTURES)
    p.add_argument("--probs", help="file of null cell probabilities, or 'uniform'")
    p.add_argument("--k", type=float, default=0.5, help="max relative cell error (default 0.5)")
    p.add_argument("--no-bias-adjust", action="store_true")
    add_format(p)
    p.set_defaults(fn=cmd_evidence_equiv)

    p = sub.add_parser("samplesize", help="minimum n for a target maximum expected evidence")
    p.add_argument("--m0", type=float, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=float, default=1.0)
    add_format(p)
    p.set_defaults(fn=cmd_samplesize)

    p = sub.add_parser("fit-normal", help="evidence for normality of real-valued data")
    p.add_argument("data_file", help="one observation per line")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--no-bias-adjust", action="store_true")
    add_format(p)
    p.set_defaults(fn=cmd_fit_normal)

    p = sub.add_parser("fit-poisson", help="evidence for a Poisson model on count data")
    add_counts_input(p, ("alpha",))
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--no-bias-adjust", action="store_true")
    add_format(p)
    p.set_defaults(fn=cmd_fit_poisson)

    p = sub.add_parser("simulate", help="run a reproducible calibration scenario")
    p.add_argument("--scenario", choices=SCENARIOS, required=True)
    p.add_argument("--reps", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="results directory (default: results/, or GOFEVID_RESULTS_DIR)")
    p.add_argument("--workers", type=int, default=1,
                   help="threads for the scenario's units (grid points, table cells or "
                        "Table 1 rows), capped at the units and the usable CPUs; output is "
                        "identical for any value")
    p.add_argument("--params", help="scenario parameters as a JSON object")
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: simulate could not write its results
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: the run did not fit in memory; use fewer replications or a smaller "
              "sample size", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
