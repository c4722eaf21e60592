"""Deterministic Monte Carlo harness for the calibration studies.

Every scenario is reproducible from (config, seed): each table cell or
Table 1 row draws from the stream keyed by its position,
``RandomStream(seed, index)``, an SFC64 generator seeded by ``SeedSequence``
hashing of that key, and a calibration from stream 0 or, for nu < 1, its
grid point's stream (below); these rules are stream layout 6
(``STREAM_LAYOUT``).  A scenario's units are the table cells, the Table 1
rows, or for a calibration contiguous chunks of its grid, one per worker:
with more than one worker they run on a thread pool that outlives the call
(one per worker count, at most the usable CPUs), the table cells largest
first, and the rows come back in input order.  Output is byte-identical
for any worker count.  Once a unit fails, the units after it in input order
stop at their next row block or tile; the first failure in input order is
the one raised.

A calibration draws its replications in blocks of VST_BLOCK; each grid point
transforms each block and merges the blocks' moments, so memory is bounded
for any reps.  A chunk transforms a block in tiles of up to VST_BLOCK values,
one row per grid point, so that a thread makes a few long numpy calls, each
releasing the GIL for long enough to pay for the switch.  For nu >= 1 the
grid shares its draws (common random numbers): block b's parts are drawn
once from stream 0, its standard normals Z and then, for nu > 1, its central
remainders R ~ chi2(nu - 1), and grid point i transforms (Z +
sqrt(lambda_i))^2 + R, a chi2(nu, lambda_i) draw.
``dist`` owns both steps, which ``dist.sample_chisq`` takes too.  Each row's
mean, sd and mc_se hold on their own; the rows' errors are correlated.  For
nu < 1 grid point i draws its blocks from stream i by the Poisson mixture.

A block is checked once, not per grid point: when Z has no NaN and R passes
``dist.check_statistic``, every S formed from them is nonnegative and not
NaN, so each tile goes straight to the transform's unchecked array core in
``evidence``, which writes over it.  For nu < 1 each grid point checks its
own draw and is a tile of its own.  ``_moments`` then reduces the transformed
tile row by row in place, consuming it; a row's bits are those of the point
reduced alone.

The fit tables stack their replications into rows and fit a block of rows at
once.  Replication i of a cell is row i of the cell's stream, and each block
of rows is one draw of shape (rows, width) from it, so the results do not
depend on the block size.  A normal-table replication draws its n values.
A count-table replication draws its frequency table directly, as one
Multinomial(n, pmf) row over the law's support (``dist.count_pmf``): the
frequency table of n iid draws has exactly that law.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import os
import threading
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
    mean_r: float
    sd_r: float
    mean_m0: float
    sd_m0: float


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


def _moments(values: np.ndarray):
    """(n, mean, M2) of `values`, M2 being the sum of squared deviations from
    the mean: the terms ``values.std(ddof=1)`` sums.  A 2-D `values` gives a
    list of them, one per row, each row reduced as it would be on its own.
    `values` is consumed: it comes back holding the squared deviations."""
    if values.ndim > 1:  # the row-wise calls cost three times the 1-D ones on one row
        n = values.shape[1]
        means = np.add.reduce(values, axis=1, keepdims=True) / n
        values -= means
        np.square(values, out=values)
        return [(n, mean, m2) for mean, m2 in zip(means.ravel().tolist(),
                                                  np.add.reduce(values, axis=1).tolist())]
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


class _Stopped(Exception):
    """Ends a pool unit once a unit of lower index in its call has failed.
    The call raises that failure, which comes first in input order, so this
    exception is never seen."""


class _Running(threading.local):
    stop = None  # the stop test of the pool unit this thread runs, if any


_running = _Running()


def _stop_point() -> None:
    """Raise _Stopped in a pool unit once a unit of lower index in its
    ``_map_units`` call has failed; inline, do nothing.  Units call it
    between row blocks or tiles, so a failure ends its call's later units
    within one block or tile and frees their threads for the next call."""
    stop = _running.stop  # a class default, not getattr's missed lookup: called per tile
    if stop is not None and stop():
        raise _Stopped


def _map_units(fn, items: list, workers: int, size=None) -> list:
    """[fn(item) for item in items] on at most `workers` threads and at most
    the usable CPUs; one worker or one item runs inline.

    Items are submitted in decreasing `size(item)` when `size` is given, so
    the largest start first; results come back in input order.  A failure
    raises the lowest-index unit's exception and cancels the units not yet
    started.  Once a unit fails, every unit of higher index stops at its next
    ``_stop_point`` (or before it starts); units of lower index run on, as
    one of them may fail too and be the one raised.  A unit must not itself
    map onto the pool: it would wait for threads its caller holds.
    """
    workers = min(workers, _usable_cpus())
    if min(workers, len(items)) <= 1:
        return [fn(item) for item in items]
    pool = _executor(workers)
    order = sorted(range(len(items)), key=lambda i: -size(items[i])) if size else range(len(items))
    failed = [len(items)]  # lowest index of a failed unit so far
    lock = threading.Lock()

    def run(i, item):
        _running.stop = lambda: failed[0] < i
        try:
            _stop_point()
            return fn(item)
        except BaseException:
            with lock:
                failed[0] = min(failed[0], i)
            raise
        finally:
            del _running.stop

    futures = [None] * len(items)
    for i in order:
        futures[i] = pool.submit(functools.partial(run, i), items[i])
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()


def _run_vst(grid_head: tuple, core, nu: float, lambda_grid, reps: int, seed: int,
             workers: int):
    """Summaries of core(S), S ~ chi2(nu, lambda), one per lambda.

    `core` is a transform's array core from ``evidence``, which does not check
    its input: every S is checked here first.  Replications come in blocks of
    VST_BLOCK and each grid point merges the blocks' moments, so memory stays
    bounded for any reps.  For nu >= 1 each block's parts, Z ~ N(0, 1) then
    R ~ chi2(nu - 1), are drawn once from stream 0 and checked once: if Z has
    no NaN and R passes ``check_statistic``, every grid point's S = (Z +
    sqrt(lambda))^2 + R is nonnegative and not NaN.  For nu < 1 grid point i
    draws S from stream i and checks it.

    The units of a block are contiguous chunks of the grid, one per worker
    (at most the usable CPUs and the grid points).  A chunk forms S for up to
    VST_BLOCK // size grid points at once, a tile of one row per point, in a
    buffer it reuses; the core transforms the tile in place and ``_moments``
    reduces it row by row, so a thread makes a few long numpy calls, not many
    short ones that trade the GIL back and forth.  A lone chunk, which runs
    inline, takes one grid point per tile: with no thread to hand the GIL to,
    a wider tile only moves more memory per call.  For nu < 1 each grid point
    is a tile of its own.  A chunk stops between tiles once an earlier chunk
    has failed.
    """
    grid = [float(l) for l in lambda_grid]
    params = [ChiSqParams(nu, lam) for lam in grid]  # every lambda checked before any draw
    # workers below 1 run inline, as in _map_units; an empty grid has no chunk
    count = min(max(workers, 1), _usable_cpus(), len(grid))
    chunks = [(len(grid) * c // count, len(grid) * (c + 1) // count) for c in range(count)]
    streams = [RandomStream(seed, i) for i in (range(len(grid)) if nu < 1.0 else [0])]
    roots = np.sqrt(grid)
    accs = [(0, 0.0, 0.0)] * len(grid)
    for lo in range(0, reps, VST_BLOCK):
        size = min(VST_BLOCK, reps - lo)
        if nu < 1.0:
            height = 1

            def tile(a, b, buf):
                s = sample_chisq(streams[a], params[a], size)
                check_statistic(s)
                return s
        else:
            height = max(1, VST_BLOCK // size) if len(chunks) > 1 else 1
            z, rest = _shift_parts(streams[0].gen, nu, size)
            check_statistic(np.abs(z))  # |Z| fails exactly where Z is NaN
            if rest is not None:
                check_statistic(rest)

            def tile(a, b, buf):  # one grid point as a 1-D row: 2-D calls cost more
                if b - a == 1:
                    return _shifted_square(z, rest, roots[a], out=buf[0])
                return _shifted_square(z, rest, roots[a:b, None], out=buf[:b - a])

        def unit(chunk):
            first, last = chunk
            buf = np.empty((min(height, last - first), size)) if nu >= 1.0 else None
            moments = []
            for a in range(first, last, height):
                _stop_point()
                s = tile(a, min(a + height, last), buf)
                flat = s.reshape(-1)  # a view: s is C-contiguous
                core(flat, out=flat)
                m = _moments(s)
                moments += m if s.ndim > 1 else [m]
            return moments

        blocks = _map_units(unit, chunks, workers)
        accs = list(map(_merge_moments, accs, itertools.chain.from_iterable(blocks)))
    return [_summary((*grid_head, lam), *acc) for lam, acc in zip(grid, accs)]


def run_vst_lof(nu: float, lambda_grid, reps: int, seed: int, workers: int = 1):
    """Simulated mean/sd of the bias-adjusted lack-of-fit evidence per lambda."""
    return _run_vst((nu,), lambda s, out: _lof_values(s, nu, True, out),
                    nu, lambda_grid, reps, seed, workers)


def run_vst_equiv(nu: float, lambda0: float, lambda_grid, reps: int, seed: int,
                  workers: int = 1):
    """Simulated mean/sd of the bias-adjusted equivalence evidence per lambda."""
    params = EquivalenceParams(nu=nu, lambda0=lambda0)
    return _run_vst((nu, lambda0), lambda s, out: _equiv_values(s, params, True, out),
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
        for lo, hi in row_blocks(reps, n):
            _stop_point()
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
        for lo, hi in row_blocks(reps, len(pmf)):
            _stop_point()
            tables = gen.multinomial(n, pmf, size=hi - lo)
            try:
                _, rs[lo:hi], m0s[lo:hi], ts[lo:hi] = poisson_evidence_rows(tables)
            except UndefinedFit as exc:
                raise ValueError(f"poisson_fit_table cell {list(dist)}, n = {n}, "
                                 f"replication {lo + exc.row}: {exc}") from None
        t, r, m0 = (_summarize((dist, n), column) for column in (ts, rs, m0s))
        return PoissonCellSummary(**vars(t), mean_r=r.mean_t, sd_r=r.sd_t,
                                  mean_m0=m0.mean_t, sd_m0=m0.sd_t)

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
        files = {f"{config.scenario}.csv": csv_text, f"{config.scenario}.json": json_text,
                 "manifest.json": json.dumps(manifest, sort_keys=True, indent=2) + "\n"}
        for name, text in files.items():
            # a new file: truncating an existing one costs several times as much on ext4
            (out / name).unlink(missing_ok=True)
            (out / name).write_bytes(text.encode())
    return rows
