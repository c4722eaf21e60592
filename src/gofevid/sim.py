"""Deterministic Monte Carlo harness for the calibration studies.

Every scenario is reproducible from (config, seed): each grid point, table
cell or Table 1 row draws from the stream keyed by its position,
``RandomStream(seed, index)``, an SFC64 generator seeded by ``SeedSequence``
hashing of that key (stream layout 5).  Those grid points, cells and rows are
a scenario's units: with more than one worker they run on a thread pool that
outlives the call (one per worker count, at most the usable CPUs), the table
cells largest first, and the rows come back in input order.  Output is
byte-identical for any worker count.

A calibration grid point draws its replications from its own stream in blocks
of VST_BLOCK (``dist.sample_chisq``: for nu >= 1 the block's standard normals,
then its gammas), transforms each block and merges the blocks' moments, so its
memory is bounded for any reps.  That is stream layout 3; layout 2 drew all
reps at once from the Poisson mixture.

The fit tables stack their replications into rows and fit a block of rows at
once.  Replication i of a cell is row i of the cell's stream, and each block
of rows is one draw of shape (rows, width) from it, so the results do not
depend on the block size (stream layout 4; up to layout 3 each replication
drew from its own substream).  A normal-table replication draws its n values.
A count-table replication draws its frequency table directly, as one
Multinomial(n, pmf) row over the law's support (``dist.count_pmf``): the
frequency table of n iid draws has exactly that law (since stream layout 2;
layout 1 drew the n values and counted them).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import os
import reprlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .boundary import euclid_d, least_divergent_point, sup_M
from .dist import FAMILIES, ChiSqParams, RandomStream, count_pmf, count_support, sample_chisq
from .divergence import J_uniform
from .evidence import EquivalenceParams, equiv_transform, lof_transform
from .model_fit import UndefinedFit, normality_evidence_rows, poisson_evidence_rows
from .pearson import MIN_POWER_REPS, multinomial_power_mc, row_blocks

__all__ = [
    "SimConfig",
    "SimSummary",
    "PoissonCellSummary",
    "Table1Row",
    "SCENARIOS",
    "run_vst_lof",
    "run_vst_equiv",
    "run_normal_table",
    "run_poisson_table",
    "run_table1",
    "run_scenario",
]

TABLE3 = {  # Table 3 family -> (dist.FAMILIES name, its parameters)
    "normal": ("normal", {}),
    "logistic": ("logistic", {}),
    "t5": ("student_t", {"df": 5.0}),
}
TABLE3_FAMILIES = tuple(TABLE3)
TABLE4_DISTS = tuple(
    [("poisson", mu) for mu in (1, 5, 10, 20)]
    + [("neg_binomial", mu, 0.01) for mu in (1, 5, 10, 20)]
)
TABLE_N_LIST = (100, 400, 1600, 6400)
MAX_TABLE_N = 10_000_000  # largest sample size a fit-table cell or table1_models accepts
# 2: count-table replications draw their frequency table as one multinomial;
# 3: a calibration grid point draws chi2(nu, lam), nu >= 1, as a shifted normal
#    squared plus a central remainder, in blocks of VST_BLOCK replications;
# 4: replication i of a fit-table cell or Table 1 row is row i of its stream;
# 5: every stream is SFC64 seeded by SeedSequence hashing of (seed, index), not Philox
STREAM_LAYOUT = 5
VST_BLOCK = 2**16  # replications a calibration grid point draws and transforms at once


@dataclass(frozen=True)
class SimSummary:
    """Mean/sd of evidence values at one grid point, with replication metadata."""

    grid_point: tuple
    mean_t: float
    sd_t: float
    mc_se: float
    reps: int


@dataclass(frozen=True)
class PoissonCellSummary(SimSummary):
    mean_r: float = 0.0
    sd_r: float = 0.0
    mean_m0: float = 0.0
    sd_m0: float = 0.0


@dataclass(frozen=True)
class Table1Row:
    model: str
    d: float
    sup_m: float
    j_div: float
    power: float
    power_se: float
    reps: int


@dataclass(frozen=True)
class SimConfig:
    scenario: str
    reps: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {clip_repr(self.scenario)}; "
                             f"choose from {tuple(SCENARIOS)}")
        if not _is_int(self.reps):
            raise ValueError(f"reps must be an integer, got {clip_repr(self.reps)}")
        min_reps = MIN_POWER_REPS if self.scenario == "table1_models" else 100
        if self.reps < min_reps:
            raise ValueError(f"reps must be at least {min_reps}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {clip_repr(self.seed)}")
        # plain ints, so that the manifest can write numpy integers as JSON
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
        _validate_params(self.scenario, self.params)


_ECHO = reprlib.Repr()  # one level deep, a few short items: a few hundred characters at most
_ECHO.maxlevel = 1
_ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxdict = _ECHO.maxset = 4
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 40


def clip_repr(value) -> str:
    """repr(value), clipped so that an error message echoing input stays short."""
    return _ECHO.repr(value)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _nonempty_list(params: dict, key: str) -> list:
    value = params[key]
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ValueError(f"{key} must be a nonempty list")
    return value


def _check_dist(dist) -> None:
    ok = (isinstance(dist, (list, tuple))
          and ((len(dist) == 2 and dist[0] == "poisson")
               or (len(dist) == 3 and dist[0] == "neg_binomial"
                   and _is_real(dist[2]) and dist[2] >= 0))
          and _is_real(dist[1]) and dist[1] > 0)
    if not ok:
        raise ValueError(f"bad dists entry {clip_repr(dist)}: expected [\"poisson\", mu] or "
                         "[\"neg_binomial\", mu, alpha] with mu > 0 and alpha >= 0")
    # bounds the table width before anything is allocated; count_pmf's arguments share the cache
    count_support(dist[0], dist[1], dist[2] if len(dist) == 3 else 0.0)


def _validate_params(scenario: str, params: dict) -> None:
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    extra = set(params) - set(SCENARIOS[scenario][1])
    if extra:
        raise ValueError(f"unknown parameters {clip_repr(sorted(extra))} "
                         f"for scenario {scenario!r}")
    for key in ("nu", "lambda0"):
        if key in params and not (_is_real(params[key]) and params[key] > 0):
            raise ValueError(f"{key} must be a positive number")
    if "lambda_grid" in params and not all(
            _is_real(l) and l >= 0 for l in _nonempty_list(params, "lambda_grid")):
        raise ValueError("lambda_grid values must be nonnegative numbers")
    if "families" in params:
        bad = [f for f in _nonempty_list(params, "families") if f not in TABLE3_FAMILIES]
        if bad:
            raise ValueError(f"unknown families {clip_repr(bad)}; choose from {TABLE3_FAMILIES}")
    if "dists" in params:
        for dist in _nonempty_list(params, "dists"):
            _check_dist(dist)
    if "n_list" in params and not all(  # one table row holds n values: bound it here
            _is_int(n) and 100 <= n <= MAX_TABLE_N for n in _nonempty_list(params, "n_list")):
        raise ValueError(f"n_list entries must be integers from 100 to {MAX_TABLE_N}")
    if "n" in params and not (_is_int(params["n"]) and 1 <= params["n"] <= MAX_TABLE_N):
        raise ValueError(f"n must be an integer from 1 to {MAX_TABLE_N}")
    if "alpha" in params and not (_is_real(params["alpha"]) and 0 < params["alpha"] < 1):
        raise ValueError("alpha must lie strictly in (0, 1)")


def _moments(values: np.ndarray) -> tuple:
    """(n, mean, M2) of `values`, M2 being the sum of squared deviations from
    the mean: the terms ``values.std(ddof=1)`` sums."""
    mean = float(values.mean())
    return len(values), mean, float(np.square(values - mean).sum())


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """(n, mean, M2) of two sets of values together (Chan, Golub & LeVeque
    1979); merged into (0, 0.0, 0.0), b comes back unchanged."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * n_a * n_b / n


def _summary(grid_point: tuple, n: int, mean: float, m2: float) -> SimSummary:
    sd = math.sqrt(m2 / (n - 1))
    return SimSummary(grid_point=grid_point, mean_t=mean, sd_t=sd, mc_se=sd / math.sqrt(n),
                      reps=n)


def _summarize(grid_point: tuple, values: np.ndarray) -> SimSummary:
    return _summary(grid_point, *_moments(values))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    """The process's pool of `workers` threads, started on first use and kept
    warm: starting a pool per call costs more than a small table's cells."""
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="gofevid-sim")


# a forked child inherits the cached pools but not their threads
os.register_at_fork(after_in_child=_executor.cache_clear)


def _map_units(fn, items: list, workers: int, size=None) -> list:
    """[fn(item) for item in items] on at most `workers` threads and at most
    the usable CPUs; one worker or one item runs inline.

    Items are submitted in decreasing `size(item)` when `size` is given, so
    the largest start first; results come back in input order.  A failure
    raises the lowest-index unit's exception and cancels the units not yet
    started.  A unit must not itself map onto the pool: it would wait for
    threads its caller holds.
    """
    workers = min(workers, _usable_cpus())
    if min(workers, len(items)) <= 1:
        return [fn(item) for item in items]
    pool = _executor(workers)
    order = sorted(range(len(items)), key=lambda i: -size(items[i])) if size else range(len(items))
    futures = [None] * len(items)
    for i in order:
        futures[i] = pool.submit(fn, items[i])
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()


def _run_vst(grid_head: tuple, transform, nu: float, lambda_grid, reps: int, seed: int,
             workers: int):
    """Summaries of transform(S), S ~ chi2(nu, lambda), one unit per lambda.

    A unit draws its reps in blocks of VST_BLOCK from its own stream and
    merges the blocks' moments, so memory stays bounded for any reps.
    """
    def unit(item):
        idx, lam = item
        stream, params = RandomStream(seed, idx), ChiSqParams(nu, lam)
        acc = (0, 0.0, 0.0)
        for lo in range(0, reps, VST_BLOCK):
            size = min(VST_BLOCK, reps - lo)
            acc = _merge_moments(acc, _moments(transform(sample_chisq(stream, params, size=size))))
        return _summary((*grid_head, lam), *acc)

    return _map_units(unit, list(enumerate(float(l) for l in lambda_grid)), workers)


def run_vst_lof(nu: float, lambda_grid, reps: int, seed: int, workers: int = 1):
    """Simulated mean/sd of the bias-adjusted lack-of-fit evidence per lambda."""
    return _run_vst((nu,), lambda s: lof_transform(s, nu, bias_adjust=True),
                    nu, lambda_grid, reps, seed, workers)


def run_vst_equiv(nu: float, lambda0: float, lambda_grid, reps: int, seed: int,
                  workers: int = 1):
    """Simulated mean/sd of the bias-adjusted equivalence evidence per lambda."""
    params = EquivalenceParams(nu=nu, lambda0=lambda0)
    return _run_vst((nu, lambda0), lambda s: equiv_transform(s, params, bias_adjust=True),
                    nu, lambda_grid, reps, seed, workers)


def _cell_n(item) -> int:
    return item[2]


def run_normal_table(families=TABLE3_FAMILIES, n_list=TABLE_N_LIST, reps: int = 4000,
                     seed: int = 0, workers: int = 1):
    """Evidence-for-normality summaries per (family, n) cell."""
    cells = [(idx, family, int(n))
             for idx, (family, n) in enumerate(itertools.product(families, n_list))]

    def unit(item):
        idx, family, n = item
        name, params = TABLE3[family]
        sampler = FAMILIES[name]
        gen = RandomStream(seed, idx).gen
        ts = np.empty(reps)
        for lo, hi in row_blocks(0, reps, n):
            ts[lo:hi] = normality_evidence_rows(sampler(gen, (hi - lo, n), **params))
        return _summarize((family, n), ts)

    return _map_units(unit, cells, workers, size=_cell_n)


def run_poisson_table(dists=TABLE4_DISTS, n_list=TABLE_N_LIST, reps: int = 4000,
                      seed: int = 0, workers: int = 1):
    """Evidence-for-Poisson summaries (plus cell-count and m0 columns) per cell.

    Each replication draws its frequency table of n counts as one multinomial
    over ``count_pmf(*dist)``; a replication whose fit is undefined stops the
    run with a ValueError naming the cell and the replication; with several
    such cells, the first in input order is named, at any worker count.
    """
    cells = [(idx, tuple(dist), int(n))
             for idx, (dist, n) in enumerate(itertools.product(dists, n_list))]

    def unit(item):
        idx, dist, n = item
        gen = RandomStream(seed, idx).gen
        pmf = count_pmf(*dist)
        ts = np.empty(reps)
        rs = np.empty(reps)
        m0s = np.empty(reps)
        for lo, hi in row_blocks(0, reps, len(pmf)):
            tables = gen.multinomial(n, pmf, size=hi - lo)
            try:
                _, rs[lo:hi], m0s[lo:hi], ts[lo:hi] = poisson_evidence_rows(tables)
            except UndefinedFit as exc:
                raise ValueError(f"poisson_fit_table cell {list(dist)}, n = {n}, "
                                 f"replication {lo + exc.row}: {exc}") from None
        base = _summarize((dist, n), ts)
        return PoissonCellSummary(
            grid_point=base.grid_point, mean_t=base.mean_t, sd_t=base.sd_t,
            mc_se=base.mc_se, reps=base.reps,
            mean_r=float(rs.mean()), sd_r=float(rs.std(ddof=1)),
            mean_m0=float(m0s.mean()), sd_m0=float(m0s.std(ddof=1)),
        )

    return _map_units(unit, cells, workers, size=_cell_n)


def run_table1(n: int = 100, alpha: float = 0.05, reps: int = 20000, seed: int = 0,
               workers: int = 1):
    """Distance/divergence metrics and simulated power for the reconstructible
    least-divergence model, with a uniform control row."""
    r = 6
    uniform = np.full(r, 1.0 / r)

    def unit(item):
        idx, name, probs = item
        est = multinomial_power_mc(RandomStream(seed, idx), n, probs, uniform, alpha, reps)
        return Table1Row(
            model=name,
            d=euclid_d(probs, uniform),
            sup_m=sup_M(probs, uniform),
            j_div=J_uniform(probs, 1),
            power=est.power, power_se=est.se, reps=reps,
        )

    return _map_units(unit, [(0, "p7", least_divergent_point(r, 0.15)), (1, "uniform", uniform)],
                      workers)


SCENARIOS = {  # name -> (runner, default params); a scenario accepts just its defaults' keys
    "vst_lof_calibration": (run_vst_lof, {"nu": 1.0, "lambda_grid": range(36)}),
    "vst_equiv_calibration": (run_vst_equiv,
                              {"nu": 1.0, "lambda0": 12.0, "lambda_grid": range(26)}),
    "normal_fit_table": (run_normal_table, {"families": TABLE3_FAMILIES, "n_list": TABLE_N_LIST}),
    "poisson_fit_table": (run_poisson_table, {"dists": TABLE4_DISTS, "n_list": TABLE_N_LIST}),
    "table1_models": (run_table1, {"n": 100, "alpha": 0.05}),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv_cells(row) -> dict:
    """Column -> text of one row; a grid_point tuple spreads into grid_0, grid_1, ..."""
    cells = {}
    for f in fields(row):
        value = getattr(row, f.name)
        if f.name == "grid_point":
            cells.update((f"grid_{i}", "/".join(map(str, v)) if isinstance(v, tuple) else _fmt(v))
                         for i, v in enumerate(value))
        else:
            cells[f.name] = _fmt(value)
    return cells


def _rows_to_csv(rows) -> str:
    table = [_csv_cells(row) for row in rows]
    return "\n".join([",".join(table[0])] + [",".join(cells.values()) for cells in table]) + "\n"


def _rows_to_json(rows) -> str:
    def as_dict(row):
        d = {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(row).items()}
        return d

    return json.dumps([as_dict(r) for r in rows], sort_keys=True, indent=2) + "\n"


def _write_new(path: Path, text: str) -> None:
    # a new file: truncating an existing one costs several times as much on ext4
    path.unlink(missing_ok=True)
    path.write_text(text)


def run_scenario(config: SimConfig, out_dir=None, workers: int = 1):
    """Run one scenario; optionally write CSV + JSON + manifest to out_dir."""
    t0 = time.perf_counter()
    runner, defaults = SCENARIOS[config.scenario]
    rows = runner(**{**defaults, **config.params, "reps": config.reps, "seed": config.seed,
                     "workers": workers})
    elapsed = time.perf_counter() - t0

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_new(out / f"{config.scenario}.csv", _rows_to_csv(rows))
        _write_new(out / f"{config.scenario}.json", _rows_to_json(rows))
        manifest = {
            "scenario": config.scenario,
            "seed": config.seed,
            "reps": config.reps,
            "params": config.params,
            "rows": len(rows),
            "elapsed_s": elapsed,
            "stream_layout": STREAM_LAYOUT,
            "versions": {"gofevid": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__},
        }
        _write_new(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return rows
