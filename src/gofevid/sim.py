"""Deterministic Monte Carlo harness for the calibration studies.

Every scenario is reproducible from (config, seed): each table cell or
Table 1 row draws from the stream keyed by its position,
``RandomStream(seed, index)``, an SFC64 generator seeded by ``SeedSequence``
hashing of that key (stream layout 5), and a calibration from stream 0 or,
for nu < 1, its grid point's stream (below).  Grid points, cells and rows are
a scenario's units: with more than one worker they run on a thread pool that
outlives the call (one per worker count, at most the usable CPUs), the table
cells largest first, and the rows come back in input order.  Output is
byte-identical for any worker count.

A calibration draws its replications in blocks of VST_BLOCK; each grid point
transforms each block and merges the blocks' moments, so memory is bounded
for any reps.  For nu >= 1 the grid shares its draws (common random numbers,
stream layout 6): block b's parts are drawn once from stream 0, its standard
normals Z and then, for nu > 1, its central remainders R ~ chi2(nu - 1), and
grid point i transforms (Z + sqrt(lambda_i))^2 + R, a chi2(nu, lambda_i) draw.
``dist`` owns both steps, which ``dist.sample_chisq`` takes too.  Each row's
mean, sd and mc_se hold on their own; the rows' errors are correlated.  For
nu < 1 grid point i draws its blocks from stream i by the Poisson mixture.  Up
to layout 5 every grid point drew from its own stream (layout 3: as a shifted
normal squared plus a remainder; layout 2: all reps at once from the Poisson
mixture).

A block is checked once, not per grid point: when Z has no NaN and R passes
``dist.check_statistic``, every S formed from them is nonnegative and not
NaN, so each grid point hands its S straight to the transform's unchecked
array core in ``evidence``.  For nu < 1 each grid point checks its own draw.
``_moments`` then reduces the transformed block in place, consuming it.

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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .boundary import euclid_d, least_divergent_point, sup_M
from .dist import _MASK64, FAMILIES, ChiSqParams, RandomStream, _shift_parts, _shifted_square, \
    check_int, check_law, check_level, check_positive, check_statistic, clip_repr, count_pmf, \
    count_support, sample_chisq
from .divergence import J_uniform
from .evidence import EquivalenceParams, _equiv_values, _lof_values
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
# 5: every stream is SFC64 seeded by SeedSequence hashing of (seed, index), not Philox;
# 6: for nu >= 1 a calibration draws each block once, from stream 0, for its whole grid
STREAM_LAYOUT = 6
VST_BLOCK = 2**16  # replications a calibration draws and transforms at once


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
        check_int(self.reps, "reps", MIN_POWER_REPS if self.scenario == "table1_models" else 100)
        check_int(self.seed, "seed", 0, _MASK64)
        # plain ints, so that the manifest can write numpy integers as JSON
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
        _validate_params(self.scenario, self.params)


def _json_number(value, name: str) -> float:
    """value as a float, once it is a real number such as an int or a float,
    not a bool: dist's range checks take it from there, and their comparisons
    raise TypeError on a string, None or a list.  An int past float64 becomes
    an infinity, as 1e400 does in JSON."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {clip_repr(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _nonempty_list(params: dict, key: str) -> list:
    value = params[key]
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ValueError(f"{key} must be a nonempty list")
    return value


def _check_dist(dist) -> None:
    if not (isinstance(dist, (list, tuple))
            and ((len(dist) == 2 and dist[0] == "poisson")
                 or (len(dist) == 3 and dist[0] == "neg_binomial"))):
        raise ValueError(f"bad dists entry {clip_repr(dist)}: expected [\"poisson\", mu] or "
                         "[\"neg_binomial\", mu, alpha]")
    mu = _json_number(dist[1], "mu")
    alpha = _json_number(dist[2], "alpha") if len(dist) == 3 else 0.0
    # checks mu and alpha and bounds the table width before anything is allocated;
    # count_pmf's arguments share the cache
    count_support(dist[0], mu, alpha)


def _validate_params(scenario: str, params: dict) -> None:
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    extra = set(params) - set(SCENARIOS[scenario][1])
    if extra:
        raise ValueError(f"unknown parameters {clip_repr(sorted(extra))} "
                         f"for scenario {scenario!r}")
    for key in ("nu", "lambda0"):
        if key in params:
            check_positive(_json_number(params[key], key), key)
    if "lambda_grid" in params:
        nu = params.get("nu", SCENARIOS[scenario][1]["nu"])
        for lam in _nonempty_list(params, "lambda_grid"):  # checked before anything is drawn
            check_law(nu, _json_number(lam, "lambda_grid entry"))
    if "families" in params:
        bad = [f for f in _nonempty_list(params, "families") if f not in TABLE3_FAMILIES]
        if bad:
            raise ValueError(f"unknown families {clip_repr(bad)}; choose from {TABLE3_FAMILIES}")
    if "dists" in params:
        for dist in _nonempty_list(params, "dists"):
            _check_dist(dist)
    if "n_list" in params:  # one table row holds n values: bound it here
        for n in _nonempty_list(params, "n_list"):
            check_int(n, "n_list entry", 100, MAX_TABLE_N)
    if "n" in params:
        check_int(params["n"], "n", 1, MAX_TABLE_N)
    if "alpha" in params:
        check_level(_json_number(params["alpha"], "alpha"), "alpha")


def _moments(values: np.ndarray) -> tuple:
    """(n, mean, M2) of `values`, M2 being the sum of squared deviations from
    the mean: the terms ``values.std(ddof=1)`` sums.  `values` is consumed:
    it comes back holding the squared deviations."""
    n = len(values)
    mean = float(np.add.reduce(values) / n)  # the bits of values.mean()
    values -= mean
    np.square(values, out=values)
    return n, mean, float(values.sum())


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
    """The summary of `values`, which ``_moments`` consumes."""
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


def _run_vst(grid_head: tuple, core, nu: float, lambda_grid, reps: int, seed: int,
             workers: int):
    """Summaries of core(S), S ~ chi2(nu, lambda), one unit per lambda.

    `core` is a transform's array core from ``evidence``, which does not check
    its input: every S is checked here first.  Replications come in blocks of
    VST_BLOCK and each grid point merges the blocks' moments, so memory stays
    bounded for any reps.  For nu >= 1 each block's parts, Z ~ N(0, 1) then
    R ~ chi2(nu - 1), are drawn once from stream 0 and checked once: if Z has
    no NaN and R passes ``check_statistic``, every grid point's S = (Z +
    sqrt(lambda))^2 + R, which it forms and transforms itself, is nonnegative
    and not NaN.  For nu < 1 grid point i draws S from stream i and checks it.
    """
    grid = [float(l) for l in lambda_grid]
    params = [ChiSqParams(nu, lam) for lam in grid]  # every lambda checked before any draw
    units = list(range(len(grid)))
    streams = [RandomStream(seed, i) for i in (units if nu < 1.0 else [0])]
    accs = [(0, 0.0, 0.0)] * len(grid)
    for lo in range(0, reps, VST_BLOCK):
        size = min(VST_BLOCK, reps - lo)
        if nu < 1.0:
            def draw(i):
                s = sample_chisq(streams[i], params[i], size)
                check_statistic(s)
                return s
        else:
            z, rest = _shift_parts(streams[0].gen, nu, size)
            check_statistic(np.abs(z))  # |Z| fails exactly where Z is NaN
            if rest is not None:
                check_statistic(rest)
            draw = lambda i: _shifted_square(z, rest, grid[i])
        blocks = _map_units(lambda i: _moments(core(draw(i))), units, workers)
        accs = list(map(_merge_moments, accs, blocks))
    return [_summary((*grid_head, lam), *acc) for lam, acc in zip(grid, accs)]


def run_vst_lof(nu: float, lambda_grid, reps: int, seed: int, workers: int = 1):
    """Simulated mean/sd of the bias-adjusted lack-of-fit evidence per lambda."""
    return _run_vst((nu,), lambda s: _lof_values(s, nu, True),
                    nu, lambda_grid, reps, seed, workers)


def run_vst_equiv(nu: float, lambda0: float, lambda_grid, reps: int, seed: int,
                  workers: int = 1):
    """Simulated mean/sd of the bias-adjusted equivalence evidence per lambda."""
    params = EquivalenceParams(nu=nu, lambda0=lambda0)
    return _run_vst((nu, lambda0), lambda s: _equiv_values(s, params, True),
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


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # a float's str -> json's


def _flatten(values: tuple, leaves: list) -> tuple:
    """Append the scalars of `values` to `leaves`, depth first; return its
    shape: per item its type, or for a tuple the tuple's shape."""
    shape = []
    for v in values:
        if type(v) is tuple:
            shape.append(_flatten(v, leaves))
        else:
            leaves.append(v)
            shape.append(type(v))
    return tuple(shape)


@functools.cache  # a scenario's rows take a few shapes, one per type of parameter
def _layout(cls, shape: tuple) -> tuple:
    """(CSV line, JSON item, indices of the str scalars) of a row of class cls
    whose field values have this ``_flatten`` shape; the line and the item are
    format strings whose i-th field takes the text of the row's i-th scalar.

    The item is what ``json.dumps(rows, sort_keys=True, indent=2)`` writes for
    the row, tuples as lists: json lays out a skeleton row whose scalars are
    placeholders "@i@".  The line spreads a grid_point tuple into its cells
    and joins each cell's scalars by '/'.
    """
    names = [f.name for f in fields(cls)]
    leaf = itertools.count()

    def skeleton(s):
        return [skeleton(x) for x in s] if type(s) is tuple else f"@{next(leaf)}@"

    item = json.dumps([dict(zip(names, map(skeleton, shape)))], sort_keys=True, indent=2)[2:-2]
    item = item.replace("{", "{{").replace("}", "}}").replace('"@', "{").replace('@"', "}")
    leaf = itertools.count()

    def cell(s):
        return "/".join(map(cell, s)) if type(s) is tuple else f"{{{next(leaf)}}}"

    line = ",".join(map(cell, shape[0] + shape[1:] if names[0] == "grid_point" else shape))
    types = []
    _flatten(shape, types)  # the shape's own scalars are the row's scalar types
    return line, item, [i for i, t in enumerate(types) if issubclass(t, str)]


def _render(rows) -> tuple:
    """(CSV, JSON) texts of rows of one dataclass, each scalar formatted once
    for both.

    The CSV has a header, then one line per row: the fields in order, a
    grid_point tuple (SimSummary's first field) spread into grid_0, ... (as
    many as the first row has), a tuple within it joined by '/', every scalar
    as ``str`` writes it (``float.__repr__`` for a float).  The JSON is byte
    for byte ``json.dumps([vars(row), ...], sort_keys=True, indent=2) + "\n"``
    with tuples as lists: each row fills the template ``_layout`` builds for
    its class and shape, a str escaped as json does it and a non-finite float
    written NaN, Infinity or -Infinity.
    """
    cls = type(rows[0])
    names = [f.name for f in fields(cls)]
    values = attrgetter(*names)
    if names[0] == "grid_point":
        names[:1] = [f"grid_{i}" for i in range(len(rows[0].grid_point))]
    lines = [",".join(names)]
    items = []
    for row in rows:
        leaves = []
        line, item, strs = _layout(cls, _flatten(values(row), leaves))
        texts = list(map(str, leaves))
        lines.append(line.format(*texts))
        json_texts = list(map(_JSON_NONFINITE.get, texts, texts))
        for i in strs:
            json_texts[i] = encode_basestring_ascii(leaves[i])
        items.append(item.format(*json_texts))
    return "\n".join(lines) + "\n", "[\n" + ",\n".join(items) + "\n]\n"


def _write_new(path: Path, text: str) -> None:
    # a new file: truncating an existing one costs several times as much on ext4.
    # os.open and os.write skip Path.write_text's buffered text layer; a regular
    # file takes the whole buffer in one write
    path.unlink(missing_ok=True)
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


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
        csv_text, json_text = _render(rows)
        _write_new(out / f"{config.scenario}.csv", csv_text)
        _write_new(out / f"{config.scenario}.json", json_text)
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
