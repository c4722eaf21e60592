"""The benchmark's four workloads, each a closed loop of calls into gofevid.

A workload turns the benchmark seed into inputs, yields one *cycle* of
operations at a time, and gives every operation a check against the
independent references in ``checks``.  gofevid is reached only through its
public entry points: ``gofevid.cli.main`` in-process (which runs the ``sim``
scenarios through ``simulate``) and the public functions of the package.
Every call looks its target up on the module at call time, so the timing
wrappers of a traced run see it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gofevid
import gofevid.cli
import gofevid.fixtures

import checks
from checks import Failure

TABLE3_FAMILIES = ("normal", "logistic", "t5")
TABLE4_DISTS = tuple([["poisson", mu] for mu in (1, 5, 10, 20)]
                     + [["neg_binomial", mu, 0.01] for mu in (1, 5, 10, 20)])
TABLE_N_LIST = (100, 400, 1600, 6400)
FIT_REPS = 100          # replications per fit-table cell (the minimum simulate accepts)
TABLE1_REPS = 1000      # multinomial_power_mc needs at least 1000
CALIBRATION_REPS = 10000
LOF_GRID = tuple(float(l) for l in range(36))    # simulate's default grids
EQUIV_GRID = tuple(float(l) for l in range(26))


@dataclass
class Op:
    """One timed call: ``run`` returns the output, ``check`` judges it."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    units: int = 1
    # filled in by the runner
    cycle: int = 0
    start_s: float = 0.0
    output: object = None
    error: str | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    failures: list = field(default_factory=list)
    # mc_parallel: the same call at --workers 1, made by ``after`` outside the timing
    after: Callable[[], None] | None = None
    replay: object = None
    replay_s: float | None = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """gofevid.cli.main in-process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = gofevid.cli.main(argv)
    return rc, buf.getvalue()


def simulate(scenario: str, reps: int, seed: int, params: dict, workers: int, out: Path):
    """``gofevid simulate``; returns (exit code, CSV text or None)."""
    rc, _ = run_cli(["simulate", "--scenario", scenario, "--reps", str(reps), "--seed", str(seed),
                     "--out", str(out), "--workers", str(workers), "--params", json.dumps(params)])
    csv = (out / scenario / f"{scenario}.csv").read_text() if rc == 0 else None
    return rc, csv


def cycle_seeds(seed: int, cycle: int, count: int) -> list[int]:
    """Simulation seeds for one cycle, fixed by (benchmark seed, cycle)."""
    state = np.random.SeedSequence([seed, cycle]).generate_state(count, dtype=np.uint64)
    return [int(s) >> 1 for s in state]


class Workload:
    name = ""
    # cycles the traced run repeats per 10 s of --seconds (fixed work, so counts repeat)
    trace_cycles_per_10s = 1
    # the kinds of work in the machine-speed probe (see speed.py)
    probe_kinds: tuple[str, ...] = ("scalar",)

    def __init__(self, seed: int, tmp: Path, workers: int):
        self.seed = seed
        self.tmp = tmp
        self.workers = workers
        tmp.mkdir(parents=True, exist_ok=True)

    def warmup(self) -> None:
        """Run each kind of call once at its smallest size."""

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def inputs(self) -> dict:
        raise NotImplementedError


def _sim_check(rows_check):
    def check(out) -> list:
        rc, csv = out
        if rc != 0 or csv is None:
            return [Failure(f"simulate exited {rc}")]
        return rows_check(checks.parse_csv(csv))
    return check


def _calibration_check(scenario: str, params: dict, reps: int):
    nu = float(params.get("nu", 1.0))
    if scenario == "vst_lof_calibration":
        return functools.partial(checks.check_calibration, kind="lof", nu=nu, grid=LOF_GRID, reps=reps)
    return functools.partial(checks.check_calibration, kind="equiv", nu=nu, grid=EQUIV_GRID, reps=reps,
                             lambda0=float(params.get("lambda0", 12.0)))


def _normal_check(families, n_list, reps: int):
    cells = [(f, n) for f in families for n in n_list]

    def check(rows):
        fails = checks.expect(len(rows) == len(cells), f"normal_fit_table: {len(rows)} rows")
        for row, (family, n) in zip(rows, cells):
            fails += checks.check_normal_cell(row, family, n, reps)
        return fails
    return check


def _poisson_check(dist, n: int, reps: int):
    def check(rows):
        return (checks.expect(len(rows) == 1, f"poisson_fit_table: {len(rows)} rows")
                + checks.check_poisson_cell(rows[0], dist, n, reps))
    return check


class MCFitTables(Workload):
    """The per-replication path: every replication builds its own generator
    and runs a scalar model_fit pipeline.  One simulate call per table cell."""

    name = "mc_fit_tables"
    trace_cycles_per_10s = 1
    CALLS_PER_CYCLE = (len(TABLE3_FAMILIES) + len(TABLE4_DISTS)) * len(TABLE_N_LIST) + 1

    def warmup(self) -> None:
        out = self.tmp / "warmup"
        simulate("normal_fit_table", FIT_REPS, 0, {"families": ["normal"], "n_list": [100]}, 1, out)
        simulate("poisson_fit_table", FIT_REPS, 0, {"dists": [["poisson", 1]], "n_list": [100]}, 1, out)
        simulate("table1_models", TABLE1_REPS, 0, {}, 1, out)

    def cycle(self, index: int) -> list[Op]:
        out = self.tmp / "sim"
        seeds = iter(cycle_seeds(self.seed, index, self.CALLS_PER_CYCLE))
        ops = []
        for family in TABLE3_FAMILIES:
            for n in TABLE_N_LIST:
                params = {"families": [family], "n_list": [n]}
                ops.append(Op("normal_fit_table", functools.partial(
                    simulate, "normal_fit_table", FIT_REPS, next(seeds), params, 1, out),
                    _sim_check(_normal_check([family], [n], FIT_REPS)), FIT_REPS))
        for dist in TABLE4_DISTS:
            for n in TABLE_N_LIST:
                params = {"dists": [dist], "n_list": [n]}
                ops.append(Op("poisson_fit_table", functools.partial(
                    simulate, "poisson_fit_table", FIT_REPS, next(seeds), params, 1, out),
                    _sim_check(_poisson_check(dist, n, FIT_REPS)), FIT_REPS))
        ops.append(Op("table1_models", functools.partial(
            simulate, "table1_models", TABLE1_REPS, next(seeds), {}, 1, out),
            _sim_check(functools.partial(checks.check_table1, n=100, reps=TABLE1_REPS)), 2 * TABLE1_REPS))
        return ops

    def inputs(self) -> dict:
        return {"normal_fit_table": {"families": TABLE3_FAMILIES, "n_list": TABLE_N_LIST, "reps_per_cell": FIT_REPS},
                "poisson_fit_table": {"dists": TABLE4_DISTS, "n_list": TABLE_N_LIST, "reps_per_cell": FIT_REPS},
                "table1_models": {"n": 100, "alpha": 0.05, "reps_per_row": TABLE1_REPS},
                "calls_per_cycle": self.CALLS_PER_CYCLE,
                "units_per_cycle": (self.CALLS_PER_CYCLE - 1) * FIT_REPS + 2 * TABLE1_REPS,
                "workers": 1, "unit": "replication"}


CALIBRATION_CALLS = (
    ("vst_lof_calibration", {}),
    ("vst_lof_calibration", {"nu": 5.0}),
    ("vst_equiv_calibration", {}),
    ("vst_equiv_calibration", {"nu": 5.0, "lambda0": 12.0}),
)


class MCCalibration(Workload):
    """Bulk sampling: one generator per grid point, vectorized transforms."""

    name = "mc_calibration"
    trace_cycles_per_10s = 4
    probe_kinds = ("bulk",)

    def warmup(self) -> None:
        out = self.tmp / "warmup"
        for scenario, params in CALIBRATION_CALLS[::2]:
            simulate(scenario, 100, 0, {**params, "lambda_grid": [0.0]}, 1, out)

    def cycle(self, index: int) -> list[Op]:
        out = self.tmp / "sim"
        ops = []
        for (scenario, params), seed in zip(CALIBRATION_CALLS, cycle_seeds(self.seed, index, 4)):
            grid = LOF_GRID if scenario == "vst_lof_calibration" else EQUIV_GRID
            ops.append(Op(scenario, functools.partial(
                simulate, scenario, CALIBRATION_REPS, seed, params, 1, out),
                _sim_check(_calibration_check(scenario, params, CALIBRATION_REPS)),
                CALIBRATION_REPS * len(grid)))
        return ops

    def inputs(self) -> dict:
        return {"calls": [{"scenario": s, "params": p} for s, p in CALIBRATION_CALLS],
                "reps_per_grid_point": CALIBRATION_REPS,
                "grid_points_per_cycle": 2 * len(LOF_GRID) + 2 * len(EQUIV_GRID),
                "workers": 1, "unit": "replication"}


PARALLEL_CALLS = (
    ("vst_equiv_calibration", {"nu": 5.0, "lambda0": 12.0}, 20000, len(EQUIV_GRID)),
    ("normal_fit_table", {"families": ["normal", "logistic"], "n_list": [100, 400]}, FIT_REPS, 4),
    ("table1_models", {}, TABLE1_REPS, 2),
)


class MCParallel(Workload):
    """The thread-pool paths (sim._map_units, multinomial_power_mc) at
    --workers <nproc>; every call is replayed at --workers 1, outside the
    timing, and must give the same CSV bytes."""

    name = "mc_parallel"
    trace_cycles_per_10s = 4
    probe_kinds = ("scalar", "bulk")

    def warmup(self) -> None:
        out = self.tmp / "warmup"
        for workers in {1, self.workers}:
            simulate("vst_equiv_calibration", 100, 0, {"nu": 5.0, "lambda_grid": [0.0, 1.0]}, workers, out)
            simulate("normal_fit_table", FIT_REPS, 0, {"families": ["normal", "logistic"], "n_list": [100]}, workers, out)
            simulate("table1_models", TABLE1_REPS, 0, {}, workers, out)

    def _rows_check(self, scenario: str, params: dict, reps: int):
        if scenario == "vst_equiv_calibration":
            return _calibration_check(scenario, params, reps)
        if scenario == "normal_fit_table":
            return _normal_check(params["families"], params["n_list"], reps)
        return functools.partial(checks.check_table1, n=100, reps=reps)

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for (scenario, params, reps, rows), seed in zip(PARALLEL_CALLS, cycle_seeds(self.seed, index, 3)):
            op = Op(scenario, functools.partial(simulate, scenario, reps, seed, params, self.workers, self.tmp / "sim"),
                    check=None, units=reps * rows)
            op.after = functools.partial(self._replay, op, scenario, reps, seed, params)
            op.check = functools.partial(self._check, op, _sim_check(self._rows_check(scenario, params, reps)))
            ops.append(op)
        return ops

    def _replay(self, op: Op, scenario: str, reps: int, seed: int, params: dict) -> None:
        t0 = time.perf_counter()
        op.replay = simulate(scenario, reps, seed, params, 1, self.tmp / "replay")
        op.replay_s = time.perf_counter() - t0

    def _check(self, op: Op, rows_check, out) -> list:
        if op.replay is None:
            op.after()
        return (checks.expect(out == op.replay and out[0] == 0,
                              f"{op.kind}: CSV bytes differ between --workers {self.workers} and --workers 1")
                + rows_check(out))

    def inputs(self) -> dict:
        return {"calls": [{"scenario": s, "params": p, "reps": r, "rows": n} for s, p, r, n in PARALLEL_CALLS],
                "workers": self.workers, "replay_workers": 1, "unit": "replication"}


NUS = (1.0, 5.0, 14.0)
LAMBDA0 = 12.0
FIT_NORMAL_N = (100, 1600, 6400)
DENSITY_FAR_TAIL = (800.0, 1000.0, 1200.0, 1500.0)
# The three nu=1 divergences cost about the same and are the slowest calls
# (2% of calls, four times slower than the next), so call_p99_ms falls in the
# middle of their cluster rather than at its edge.
J_POINTS = ((1.0, 12.0, 180.0), (1.0, 12.0, 200.0), (1.0, 12.0, 220.0), (14.0, 12.0, 200.0))
SIGNED_ROOT_J_POINT = (5.0, 12.0, 3.0)
TABLE2_M0 = (1.0, 1.645, 3.3, 5.0)
TABLE2_R = (2, 3, 4, 6, 10, 20)


class AnalysisNumerics(Workload):
    """One analyst call at a time, no Monte Carlo: CLI reports, power curves,
    the equivalence test, CDF, density, divergence and sample-size planning.

    The seed draws the lambda grids (one value per stratum, so every seed
    costs about the same), evaluation points and fit-normal data; the
    divergence points are fixed so that the slowest calls are the same on
    every seed.  The counts are chosen so that the median call is in the
    middle of the power_lack_of_fit calls: 48 planning calls cost microseconds,
    48 power_lack_of_fit calls about 0.3 ms, and the other 48 calls more."""

    name = "analysis_numerics"
    trace_cycles_per_10s = 4

    def __init__(self, seed: int, tmp: Path, workers: int):
        super().__init__(seed, tmp, workers)
        rng = np.random.default_rng([seed, 0xA11])
        self.lam_grid = tuple(float(v) for v in (np.arange(16) + rng.uniform(0.0, 1.0, 16)) * 30.0 / 16)
        self.equiv_lam_grid = tuple(float(v) for v in (np.arange(8) + rng.uniform(0.0, 1.0, 8)) * 30.0 / 8)
        self.eq_s = {nu: tuple(float(v) for v in rng.uniform(0.2, 20.0, 2)) for nu in NUS}
        self.cdf = {}
        for nu, lam_lo in zip(NUS, (5.0, 20.0, 40.0)):
            lam = float(rng.uniform(lam_lo, lam_lo + 10.0))
            hi = nu + lam + 8.0 * math.sqrt(2.0 * nu + 4.0 * lam)
            self.cdf[nu] = (lam, np.sort(rng.uniform(0.0, hi, 200)))
        self.density = []
        for nu, lam in ((1.0, float(rng.uniform(0.0, 10.0))), (5.0, LAMBDA0), (14.0, 200.0)):
            hi = nu + lam + 10.0 * math.sqrt(2.0 * nu + 4.0 * lam)
            x = np.sort(rng.uniform(0.05, hi, 50))
            tail = DENSITY_FAR_TAIL if (nu, lam) == (14.0, 200.0) else ()
            self.density.append((nu, lam, np.concatenate([x, tail]), min(tail, default=math.inf)))
        self.sample_sizes = [(float(m0), int(r)) for m0, r in zip(rng.uniform(0.5, 5.0, 47), rng.integers(2, 21, 47))]
        self.table2_k = float(rng.uniform(0.2, 1.0))
        self.fit_normal = {}
        for n in FIT_NORMAL_N:
            x = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0), n)
            path = tmp / f"normal_{n}.txt"
            path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
            self.fit_normal[n] = (path, x)

    def warmup(self) -> None:
        run_cli(["evidence-lof", "--fixture", "die", "-f", "json"])
        run_cli(["evidence-equiv", "--fixture", "die", "-f", "json"])
        run_cli(["samplesize", "--m0", "3.3", "--r", "6", "--k", "0.5", "-f", "json"])
        run_cli(["fit-poisson", "--fixture", "alpha", "-f", "json"])
        run_cli(["fit-normal", str(self.fit_normal[100][0]), "-f", "json"])
        gofevid.power_lack_of_fit(0.05, 5.0, 1.0)
        gofevid.power_equivalence(0.05, gofevid.EquivalenceParams(5.0, LAMBDA0), 1.0)
        gofevid.equivalence_test(1.0, gofevid.EquivalenceParams(5.0, LAMBDA0), 0.05)
        gofevid.chisq_cdf(np.array([1.0, 2.0]), gofevid.ChiSqParams(5.0, 1.0))
        gofevid.chisq_density(np.array([1.0, 2.0]), gofevid.ChiSqParams(5.0, 1.0))
        gofevid.sample_size(3.3, 5.0, 6, 0.1)
        gofevid.table2([1.0], [6])

    def cycle(self, index: int) -> list[Op]:
        G = gofevid
        alpha = checks.ALPHA
        ops = [
            Op("cli:evidence-lof", functools.partial(run_cli, ["evidence-lof", "--fixture", "die", "-f", "json"]),
               checks.check_cli_evidence_lof),
            Op("cli:evidence-equiv", functools.partial(run_cli, ["evidence-equiv", "--fixture", "die", "-f", "json"]),
               checks.check_cli_evidence_equiv),
            Op("cli:samplesize", functools.partial(run_cli, ["samplesize", "--m0", "3.3", "--r", "6", "--k", "0.5", "-f", "json"]),
               checks.check_cli_samplesize),
            Op("cli:fit-poisson", functools.partial(run_cli, ["fit-poisson", "--fixture", "alpha", "-f", "json"]),
               functools.partial(checks.check_cli_fit_poisson, table=gofevid.fixtures.ALPHA_EMISSIONS_COUNTS)),
        ]
        for n, (path, x) in self.fit_normal.items():
            ops.append(Op("cli:fit-normal", functools.partial(run_cli, ["fit-normal", str(path), "-f", "json"]),
                          functools.partial(checks.check_cli_fit_normal, x=x)))
        for nu in NUS:
            params = G.EquivalenceParams(nu, LAMBDA0)
            for lam in self.lam_grid:
                ops.append(Op("power_lack_of_fit", lambda nu=nu, lam=lam: G.power_lack_of_fit(alpha, nu, lam),
                              functools.partial(checks.check_power_lof, nu=nu, lam=lam)))
            for lam in self.equiv_lam_grid:
                ops.append(Op("power_equivalence", lambda p=params, lam=lam: G.power_equivalence(alpha, p, lam),
                              functools.partial(checks.check_power_equiv, nu=nu, lambda0=LAMBDA0, lam=lam)))
            for s in self.eq_s[nu]:
                ops.append(Op("equivalence_test", lambda s=s, p=params: G.equivalence_test(s, p, alpha),
                              functools.partial(checks.check_equivalence_test, s=s, nu=nu, lambda0=LAMBDA0)))
            lam, x = self.cdf[nu]
            ops.append(Op("chisq_cdf", lambda x=x, nu=nu, lam=lam: G.chisq_cdf(x, G.ChiSqParams(nu, lam)),
                          functools.partial(checks.check_chisq_cdf, x=x, nu=nu, lam=lam)))
        for nu, lam, x, tail_from in self.density:
            ops.append(Op("chisq_density", lambda x=x, nu=nu, lam=lam: G.chisq_density(x, G.ChiSqParams(nu, lam)),
                          functools.partial(checks.check_chisq_density, x=x, nu=nu, lam=lam, tail_from=tail_from)))
        for nu, lam_a, lam_b in J_POINTS:
            ops.append(Op("J_noncentral", lambda p=(nu, lam_a, lam_b): G.J_noncentral(*p),
                          functools.partial(checks.check_J, nu=nu, lam_a=lam_a, lam_b=lam_b)))
        nu, lambda0, lam = SIGNED_ROOT_J_POINT
        ops.append(Op("signed_root_J", lambda: G.signed_root_J(G.EquivalenceParams(nu, lambda0), lam),
                      functools.partial(checks.check_signed_root_J, nu=nu, lambda0=lambda0, lam=lam)))
        for m0, r in self.sample_sizes:
            d0 = 0.5 / math.sqrt(r * (r - 1))
            ops.append(Op("sample_size", lambda m0=m0, r=r, d0=d0: G.sample_size(m0, r - 1.0, r, d0),
                          functools.partial(checks.check_sample_size, m0=m0, r=r, k=0.5)))
        k = self.table2_k
        ops.append(Op("table2", lambda: G.table2(TABLE2_M0, TABLE2_R, k),
                      functools.partial(checks.check_table2, m0_list=TABLE2_M0, r_list=TABLE2_R, k=k)))
        return ops

    def inputs(self) -> dict:
        return {"lambda_grid": self.lam_grid, "equiv_lambda_grid": self.equiv_lam_grid, "nus": NUS, "lambda0": LAMBDA0,
                "fit_normal_n": FIT_NORMAL_N, "cdf_points_per_call": 200,
                "density_points_per_call": [len(d[2]) for d in self.density],
                "density_far_tail": {"nu": 14.0, "lam": 200.0, "x": DENSITY_FAR_TAIL},
                "J_points": J_POINTS, "signed_root_J_point": SIGNED_ROOT_J_POINT,
                "sample_size_calls": len(self.sample_sizes), "table2": [TABLE2_M0, TABLE2_R],
                "calls_per_cycle": len(self.cycle(0)), "workers": 1, "unit": "call"}


WORKLOADS = {w.name: w for w in (MCFitTables, MCCalibration, AnalysisNumerics, MCParallel)}
