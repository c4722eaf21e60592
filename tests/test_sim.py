import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import oracles
from gofevid import __version__
from gofevid.dist import FAMILIES, ChiSqParams, RandomStream, count_pmf, count_support, \
    sample_chisq, sample_family
from gofevid.evidence import EquivalenceParams, equiv_transform, lof_transform
from gofevid.model_fit import UndefinedFit, evidence_for_normality
from gofevid import dist, pearson, sim
from gofevid.boundary import least_divergent_point
from gofevid.pearson import multinomial_power_mc, row_blocks
from gofevid.sim import (
    PoissonCellSummary,
    SimConfig,
    run_normal_table,
    run_poisson_table,
    run_scenario,
    run_table1,
    run_vst_equiv,
    run_vst_lof,
)


class TestRunVstLof:
    def test_reproducible(self):
        a = run_vst_lof(5.0, [0, 4, 8], reps=2000, seed=31)
        b = run_vst_lof(5.0, [0, 4, 8], reps=2000, seed=31)
        assert a == b

    def test_workers_equivalent(self):
        a = run_vst_lof(1.0, list(range(8)), reps=1000, seed=7, workers=1)
        b = run_vst_lof(1.0, list(range(8)), reps=1000, seed=7, workers=3)
        assert a == b

    @pytest.mark.parametrize("nu,lam", [(1.0, 0.0), (1.0, 8.0), (5.0, 4.0), (5.0, 20.0)])
    def test_matches_exact_moments(self, nu, lam):
        (row,) = run_vst_lof(nu, [lam], reps=40_000, seed=13)
        mean, sd = oracles.transform_moments(
            lambda x: lof_transform(x, nu, bias_adjust=True), nu, lam)
        assert abs(row.mean_t - mean) < 4 * row.mc_se
        assert abs(row.sd_t - sd) < 5 * sd / math.sqrt(2 * (row.reps - 1))

    def test_summary_metadata(self):
        (row,) = run_vst_lof(5.0, [8.0], reps=500, seed=0)
        assert row.reps == 500
        assert row.mc_se == pytest.approx(row.sd_t / math.sqrt(500))
        assert row.grid_point == (5.0, 8.0)


class TestVstBlocks:
    """More than VST_BLOCK replications are drawn block by block, for nu >= 1
    once per block for the whole grid, and each grid point merges the blocks'
    moments."""

    def test_merged_summary_matches_one_pass(self):
        reps, nu, lam = sim.VST_BLOCK + 1, 5.0, 8.0
        (row,) = run_vst_lof(nu, [lam], reps=reps, seed=41)
        stream, params = RandomStream(41, 0), ChiSqParams(nu, lam)
        t = np.concatenate([lof_transform(sample_chisq(stream, params, size=size), nu)
                            for size in (sim.VST_BLOCK, 1)])
        assert row.reps == reps
        assert row.mean_t == pytest.approx(t.mean(), rel=1e-12)
        assert row.sd_t == pytest.approx(t.std(ddof=1), rel=1e-12)
        assert row.mc_se == pytest.approx(t.std(ddof=1) / math.sqrt(reps), rel=1e-12)

    def test_draws_never_exceed_a_block(self, monkeypatch):
        normals, remainders = [], []

        class RecordingGenerator:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, size):
                normals.append(size)
                return self.gen.standard_normal(size)

            def standard_gamma(self, shape, size):
                remainders.append((shape, size))
                return self.gen.standard_gamma(shape, size=size)

        class RecordingStream(RandomStream):
            @property
            def gen(self):
                return RecordingGenerator(RandomStream.gen.fget(self))

        monkeypatch.setattr(sim, "RandomStream", RecordingStream)
        for nu in (1.0, 5.0):
            normals.clear()
            remainders.clear()
            run_vst_equiv(nu, 12.0, [0.0, 3.0, 12.0], reps=2 * sim.VST_BLOCK + 5, seed=2)
            # one shared draw per block for all three grid points; the block size is part of layout 6
            assert normals == [2**16, 2**16, 5]
            assert remainders == ([(0.5 * (nu - 1.0), size) for size in normals] if nu > 1.0 else [])

    def test_bounded_temporaries(self):
        # a grid point of a full block holds Z and S, which the core
        # transforms and _moments squares in place: two arrays of one block
        # (512 KB each), and further temporaries would take the peak past 4.5
        run_vst_lof(1.0, [25.0], reps=1000, seed=1)
        tracemalloc.start()
        try:
            run_vst_lof(1.0, [25.0], reps=sim.VST_BLOCK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * sim.VST_BLOCK) <= 4.5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bounded_temporaries_in_tiles(self, monkeypatch, workers):
        # 8 grid points at a quarter block: at two workers each chunk is one
        # tile of four points, a full block; at one worker a tile is one point.
        # The running tiles stay within the bound of one full-block grid point
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        grid = [25.0 + i for i in range(8)]
        run_vst_lof(1.0, grid, reps=1000, seed=1, workers=workers)
        tracemalloc.start()
        try:
            run_vst_lof(1.0, grid, reps=sim.VST_BLOCK // 4, seed=1, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * sim.VST_BLOCK) <= 4.5

    def test_workers_equivalent(self):
        a = run_vst_equiv(1.0, 12.0, [0, 12], reps=sim.VST_BLOCK + 100, seed=8, workers=1)
        b = run_vst_equiv(1.0, 12.0, [0, 12], reps=sim.VST_BLOCK + 100, seed=8, workers=2)
        assert a == b

    @pytest.mark.parametrize("size", [1, 2, 127, 128, 129, 1000, 10_000, sim.VST_BLOCK + 5])
    def test_moments_in_place_match_numpy(self, size):
        v = RandomStream(31, size).gen.standard_normal(size) * 3.0 + 7.0
        want = (len(v), float(v.mean()), float(((v - v.mean()) ** 2).sum()))
        n, mean, m2 = sim._moments(v.copy())
        assert n == want[0]
        assert (mean.hex(), m2.hex()) == (want[1].hex(), want[2].hex())
        rows = np.stack([v, v[::-1], 2.0 * v])  # a tile: each row's bits as if alone
        assert [(n, mean.hex(), m2.hex()) for n, mean, m2 in sim._moments(rows.copy())] == [
            (len(r), float(r.mean()).hex(), float(((r - r.mean()) ** 2).sum()).hex()) for r in rows]


def _bad_parts(where: str, value: float):
    """sim._shift_parts with `value` written into Z or R of the last block
    (the one of 5 draws) only."""
    def parts(gen, nu, size):
        z, rest = dist._shift_parts(gen, nu, size)
        if size == 5:
            (z if where == "z" else rest)[3] = value
        return z, rest
    return parts


class TestBlockCheck:
    """For nu >= 1 each shared block is checked once, before any grid point
    transforms it, with check_statistic's message; for nu < 1 each grid
    point's draw is checked."""

    MESSAGE = "^statistic s must be nonnegative and not NaN$"
    REPS = sim.VST_BLOCK + 5

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("nu, where, value", [
        (1.0, "z", math.nan), (5.0, "z", math.nan),
        (5.0, "rest", -1e-3), (5.0, "rest", math.nan),
    ])
    def test_bad_block_rejected(self, monkeypatch, nu, where, value, workers):
        monkeypatch.setattr(sim, "_shift_parts", _bad_parts(where, value))
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_vst_lof(nu, [0.0, 30.0], reps=self.REPS, seed=4, workers=workers)
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_vst_equiv(nu, 12.0, [0.0, 30.0], reps=self.REPS, seed=4, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("value", [math.nan, -1e-3])
    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_small_nu_checks_every_grid_point(self, monkeypatch, bad, value, workers):
        grid = [0.0, 2.5, 30.0]

        def draw(stream, params, size):
            s = sample_chisq(stream, params, size)
            if params.lam == grid[bad] and size == 5:
                s[3] = value
            return s

        monkeypatch.setattr(sim, "sample_chisq", draw)
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_vst_lof(0.5, grid, reps=self.REPS, seed=4, workers=workers)
        with pytest.raises(ValueError, match=self.MESSAGE):
            run_vst_equiv(0.5, 12.0, grid, reps=self.REPS, seed=4, workers=workers)


class TestStreamLayout6:
    """For nu >= 1 block b is Z ~ N(0, 1) and then, for nu > 1, R ~ chi2(nu - 1),
    drawn once from RandomStream(seed, 0); grid point i transforms
    (Z + sqrt(lambda_i))^2 + R.  For nu < 1 grid point i draws from stream i."""

    GRID = [0.0, 0.5, 12.0, 30.0]
    REPS = sim.VST_BLOCK + 5

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("nu", [1.0, 5.0])
    def test_shared_blocks(self, nu, workers):
        gen = RandomStream(19, 0).gen
        blocks = []
        for size in (sim.VST_BLOCK, 5):
            z = gen.standard_normal(size)
            rest = 2.0 * gen.standard_gamma(0.5 * (nu - 1.0), size=size) if nu > 1.0 else 0.0
            blocks.append((z, rest))
        want = []
        for lam in self.GRID:
            acc = (0, 0.0, 0.0)
            for z, rest in blocks:
                acc = sim._merge_moments(acc, sim._moments(
                    lof_transform(np.square(z + math.sqrt(lam)) + rest, nu)))
            want.append(sim._summary((nu, lam), *acc))
        assert run_vst_lof(nu, self.GRID, reps=self.REPS, seed=19, workers=workers) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equivalence_shares_the_blocks(self, workers):
        params = EquivalenceParams(5.0, 12.0)
        gen = RandomStream(20, 0).gen
        z = gen.standard_normal(1000)
        rest = 2.0 * gen.standard_gamma(2.0, size=1000)
        want = [sim._summarize((5.0, 12.0, lam), equiv_transform(
            np.square(z + math.sqrt(lam)) + rest, params, bias_adjust=True)) for lam in self.GRID]
        assert run_vst_equiv(5.0, 12.0, self.GRID, reps=1000, seed=20, workers=workers) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_nu_keeps_per_point_streams(self, workers):
        nu = 0.5
        want = []
        for idx, lam in enumerate(self.GRID):
            stream, params, acc = RandomStream(19, idx), ChiSqParams(nu, lam), (0, 0.0, 0.0)
            for size in (sim.VST_BLOCK, 5):
                acc = sim._merge_moments(acc, sim._moments(
                    lof_transform(sample_chisq(stream, params, size), nu)))
            want.append(sim._summary((nu, lam), *acc))
        assert run_vst_lof(nu, self.GRID, reps=self.REPS, seed=19, workers=workers) == want

    # SHA-256 of the CSV below, recorded at layout 6 under numpy 2.4.6 and scipy 1.17.1
    SMALL_NU_CSV = "26ff3dc18d987453581d7db624858d14280f002e119f571c79a8a3d90f621e29"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_nu_blocks_pinned(self, workers):
        if (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"):
            pytest.skip("the digest was recorded under numpy 2.4.6 and scipy 1.17.1")
        rows = run_vst_lof(0.5, [0, 2.5, 30], 2 * sim.VST_BLOCK + 5, 9, workers)
        assert hashlib.sha256(sim._render(rows)[0].encode()).hexdigest() == self.SMALL_NU_CSV

    def test_every_lambda_checked_before_drawing(self, monkeypatch):
        monkeypatch.setattr(sim, "RandomStream", None)  # any draw would fail on this
        with pytest.raises(ValueError, match="lam = 20000000000.0:"):
            run_vst_lof(5.0, [0.0, 2e10], reps=100, seed=1)


def _vst_reference(transform, nu: float, grid, reps: int, seed: int) -> list:
    """The summaries of a calibration built point by point from layout 6: for
    nu >= 1 every grid point transforms the blocks of stream 0, for nu < 1
    grid point i draws from stream i; each block's moments as numpy gives
    them, merged block by block."""
    sizes = [min(sim.VST_BLOCK, reps - lo) for lo in range(0, reps, sim.VST_BLOCK)]
    if nu >= 1.0:
        gen = RandomStream(seed, 0).gen
        blocks = []
        for size in sizes:
            z = gen.standard_normal(size)
            blocks.append((z, 2.0 * gen.standard_gamma(0.5 * (nu - 1.0), size=size)
                           if nu > 1.0 else 0.0))
    rows = []
    for idx, lam in enumerate(grid):
        stream, acc = RandomStream(seed, idx), (0, 0.0, 0.0)
        for b, size in enumerate(sizes):
            if nu >= 1.0:
                z, rest = blocks[b]
                s = np.square(z + math.sqrt(lam)) + rest
            else:
                s = sample_chisq(stream, ChiSqParams(nu, lam), size)
            t = transform(s)
            acc = sim._merge_moments(acc, (size, float(t.mean()),
                                           float(((t - t.mean()) ** 2).sum())))
        rows.append((lam, acc))
    return rows


class TestVstChunks:
    """A calibration's units are contiguous chunks of its grid, one per worker,
    each transformed in tiles of up to VST_BLOCK values: every summary is the
    one built point by point, at any worker count, grid length and reps."""

    GRIDS = {1: [7.5], 7: [0.0, 0.5, 2.0, 5.0, 12.0, 20.0, 30.0], 36: list(range(36))}

    @pytest.mark.parametrize("reps", [5, 4000, 20000, sim.VST_BLOCK + 5])
    @pytest.mark.parametrize("points", [1, 7, 36])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("kind", ["lof", "equiv"])
    def test_byte_identical_to_point_by_point(self, monkeypatch, kind, nu, points, reps):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
        grid, seed = self.GRIDS[points], 29
        if kind == "lof":
            head = (nu,)
            ref = _vst_reference(lambda s: lof_transform(s, nu), nu, grid, reps, seed)
            run = functools.partial(run_vst_lof, nu, grid, reps, seed)
        else:
            params, head = EquivalenceParams(nu, 12.0), (nu, 12.0)
            ref = _vst_reference(lambda s: equiv_transform(s, params), nu, grid, reps, seed)
            run = functools.partial(run_vst_equiv, nu, 12.0, grid, reps, seed)
        want = [sim._summary((*head, float(lam)), *acc) for lam, acc in ref]
        for workers in (1, 2, 3):
            assert run(workers=workers) == want, f"workers = {workers}"

    @pytest.mark.parametrize("cpus, workers, points", [
        (2, 1, 36), (2, 2, 36), (2, 8, 36), (4, 3, 7), (4, 8, 2), (4, 4, 1),
    ])
    def test_one_chunk_per_worker(self, monkeypatch, cpus, workers, points):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        items, map_units = [], sim._map_units

        def recording(fn, chunks, workers):
            items.append(list(chunks))
            return map_units(fn, chunks, workers)

        monkeypatch.setattr(sim, "_map_units", recording)
        run_vst_lof(5.0, range(points), reps=2 * sim.VST_BLOCK + 5, seed=3, workers=workers)
        count = min(workers, cpus, points)
        assert [len(chunks) for chunks in items] == [count] * 3  # one call per block
        for chunks in items:  # contiguous, in order, covering the grid
            assert [a for a, _ in chunks] == [0] + [b for _, b in chunks[:-1]]
            assert chunks[-1][1] == points

    def test_empty_grid_and_no_worker(self):
        # an empty grid has no chunk, and workers below 1 run inline as one
        assert run_vst_lof(5.0, [], reps=100, seed=3, workers=2) == []
        one = run_vst_lof(5.0, [0.0, 4.0], reps=100, seed=3, workers=1)
        assert run_vst_lof(5.0, [0.0, 4.0], reps=100, seed=3, workers=0) == one


class TestRunVstEquiv:
    def test_anchor_case(self):
        (row,) = run_vst_equiv(5.0, 12.0, [6.0], reps=40_000, seed=23)
        assert abs(row.mean_t - 0.95) < 0.05
        assert abs(row.sd_t - 1.03) < 0.05

    def test_boundary_nearly_unbiased(self):
        (row,) = run_vst_equiv(5.0, 12.0, [12.0], reps=40_000, seed=24)
        assert abs(row.mean_t) < 0.1

    @pytest.mark.parametrize("nu,lam", [(1.0, 0.0), (1.0, 12.0), (5.0, 6.0)])
    def test_matches_exact_moments(self, nu, lam):
        params = EquivalenceParams(nu, 12.0)
        (row,) = run_vst_equiv(nu, 12.0, [lam], reps=40_000, seed=25)
        mean, sd = oracles.transform_moments(
            lambda x: equiv_transform(x, params, bias_adjust=True), nu, lam)
        assert abs(row.mean_t - mean) < 4 * row.mc_se
        assert abs(row.sd_t - sd) < 5 * sd / math.sqrt(2 * (row.reps - 1))

    def test_workers_equivalent(self):
        a = run_vst_equiv(1.0, 12.0, list(range(6)), reps=800, seed=3, workers=1)
        b = run_vst_equiv(1.0, 12.0, list(range(6)), reps=800, seed=3, workers=4)
        assert a == b


class TestRunNormalTable:
    def test_smoke_and_determinism(self):
        a = run_normal_table(("normal",), (100,), reps=150, seed=40)
        b = run_normal_table(("normal",), (100,), reps=150, seed=40)
        assert a == b
        assert a[0].grid_point == ("normal", 100)
        assert a[0].reps == 150

    def test_normal_mean_tracks_m0(self):
        # n=400 cell: evidence should average near the tabled 1.90
        (row,) = run_normal_table(("normal",), (400,), reps=600, seed=42)
        assert abs(row.mean_t - 1.90) < 4 * row.mc_se + 0.05

    def test_normal_1600_cell(self):
        (row,) = run_normal_table(("normal",), (1600,), reps=2000, seed=43)
        assert abs(row.mean_t - 5.05) < 0.1

    @pytest.mark.parametrize("family", sim.TABLE3_FAMILIES)
    @pytest.mark.parametrize("n,reps", [(100, 200), (6400, 5)])
    def test_batched_t_equals_report_on_same_substreams(self, family, n, reps):
        # reps span more than one block of stacked rows at both sizes; the
        # reports fit the rows of one draw from the run's first cell's stream
        name, params = sim.TABLE3[family]
        data = sample_family(RandomStream(46, 0), name, size=(reps, n), **params)
        ts = np.array([evidence_for_normality(row).evidence.t for row in data])
        (row,) = run_normal_table((family,), (n,), reps=reps, seed=46)
        assert row == sim._summarize((family, n), ts)

    def test_logistic_6400_cell(self):
        (row,) = run_normal_table(("logistic",), (6400,), reps=2000, seed=44)
        assert abs(row.mean_t - 5.46) < 0.15


class TestRunPoissonTable:
    def test_smoke_columns(self):
        (row,) = run_poisson_table((("poisson", 1),), (400,), reps=300, seed=50)
        assert isinstance(row, PoissonCellSummary)
        assert abs(row.mean_r - 5.0) < 0.3
        assert row.mean_m0 > 0
        assert row.grid_point == (("poisson", 1), 400)

    def test_neg_binomial_cell(self):
        (row,) = run_poisson_table((("neg_binomial", 1, 0.01),), (400,), reps=200, seed=51)
        assert row.reps == 200

    def test_determinism(self):
        a = run_poisson_table((("poisson", 5),), (100,), reps=200, seed=52)
        b = run_poisson_table((("poisson", 5),), (100,), reps=200, seed=52)
        assert a == b

    def test_workers_identical_bytes(self, tmp_path):
        config = SimConfig(scenario="poisson_fit_table", reps=150, seed=56,
                           params={"dists": [["poisson", 5], ["neg_binomial", 20, 0.01]],
                                   "n_list": [100, 1600]})
        run_scenario(config, out_dir=tmp_path / "w1", workers=1)
        run_scenario(config, out_dir=tmp_path / "w2", workers=2)
        for name in ("poisson_fit_table.csv", "poisson_fit_table.json"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    def test_undefined_fit_named_alike_at_any_workers(self, monkeypatch):
        # cells 2 and 3 fail; cell 3 (n = 400) is submitted before cell 2
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        messages = []
        for workers in (1, 2):
            with pytest.raises(ValueError) as exc:
                run_poisson_table((("poisson", 5), ("poisson", 0.001)), (100, 400), reps=100,
                                  seed=58, workers=workers)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "cell ['poisson', 0.001], n = 100, replication 0:" in messages[0]

    def test_each_law_support_found_once(self):
        # SimConfig bounds each law's width; the run's count_pmf reuses that support
        count_support.cache_clear()
        count_pmf.cache_clear()
        config = SimConfig(scenario="poisson_fit_table", reps=100, seed=57,
                           params={"dists": [["poisson", 5], ["neg_binomial", 20, 0.01]],
                                   "n_list": [100]})
        run_scenario(config)
        info = count_support.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_poisson_5_6400_cell(self):
        (row,) = run_poisson_table((("poisson", 5),), (6400,), reps=2000, seed=53)
        assert abs(row.mean_t - 9.00) < 0.1
        assert abs(row.mean_r - 14.0) < 0.2

    def test_neg_binomial_10_1600_cell(self):
        (row,) = run_poisson_table((("neg_binomial", 10, 0.01),), (1600,),
                                   reps=2000, seed=54)
        assert abs(row.mean_t - 1.54) < 0.15

    def test_poisson_20_100_cell(self):
        (row,) = run_poisson_table((("poisson", 20),), (100,), reps=2000, seed=55)
        assert abs(row.mean_t - 0.25) < 0.1


class TestRunTable1:
    def test_p7_row_metrics_and_power(self):
        rows = run_table1(n=100, alpha=0.05, reps=2000, seed=60)
        p7 = rows[0]
        assert p7.model == "p7"
        assert abs(p7.d - 0.150) < 1e-6
        assert abs(p7.sup_m - 0.137) < 5e-4
        assert abs(p7.j_div - 0.107) < 5e-4
        assert abs(p7.power - 0.762) < 0.04

    def test_uniform_control_row(self):
        rows = run_table1(n=100, alpha=0.05, reps=2000, seed=61)
        unif = rows[1]
        assert unif.model == "uniform"
        assert unif.d == 0.0
        assert abs(unif.power - 0.05) < 0.02

    def test_deterministic_part_stable_across_reps(self):
        a = run_table1(reps=1000, seed=62)[0]
        b = run_table1(reps=2000, seed=63)[0]
        assert a.j_div == b.j_div
        assert a.d == b.d


class TestSimConfig:
    @pytest.mark.parametrize("scenario, params, nu", [
        ("vst_lof_calibration", {"lambda_grid": [0, 2e10]}, 1.0),
        ("vst_equiv_calibration", {"nu": 5, "lambda_grid": [math.nextafter(1e10, math.inf)]}, 5.0),
    ])
    def test_lambda_grid_capped_at_the_law_range(self, scenario, params, nu):
        lam = params["lambda_grid"][-1]
        with pytest.raises(ValueError, match=f"nu = {nu}, lam = {lam!r}: lam must be at most"):
            SimConfig(scenario, 100, 1, params)
        SimConfig(scenario, 100, 1, {**params, "lambda_grid": [0, dist.LAM_MAX]})

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            SimConfig(scenario="nope", reps=1000, seed=0)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            SimConfig(scenario="table1_models", reps=99, seed=0)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            SimConfig(scenario="vst_lof_calibration", reps=1000, seed=0,
                      params={"nu": -1})
        with pytest.raises(ValueError):
            SimConfig(scenario="vst_lof_calibration", reps=1000, seed=0,
                      params={"bogus": 1})
        with pytest.raises(ValueError):
            SimConfig(scenario="normal_fit_table", reps=1000, seed=0,
                      params={"families": ["cauchy"]})

    @pytest.mark.parametrize("scenario,params", [
        ("vst_lof_calibration", {"nu": "a"}),
        ("vst_lof_calibration", {"lambda_grid": 5}),
        ("vst_lof_calibration", {"lambda_grid": []}),
        ("poisson_fit_table", {"dists": [["poisson"]]}),
        ("poisson_fit_table", {"dists": [["neg_binomial", 5]]}),
        ("poisson_fit_table", {"n_list": [100.5]}),
        ("normal_fit_table", {"families": 3}),
        ("table1_models", {"n": "100"}),
        ("vst_lof_calibration", {"nu": 10**400}),  # past float64: once an OverflowError
    ])
    def test_mistyped_params(self, scenario, params):
        with pytest.raises(ValueError):
            SimConfig(scenario=scenario, reps=1000, seed=0, params=params)

    @pytest.mark.parametrize("scenario", ["normal_fit_table", "poisson_fit_table"])
    def test_n_list_capped_before_allocating(self, scenario):
        tracemalloc.start()
        with pytest.raises(ValueError, match="^n_list entry must be an integer from 100 to 10000000, "
                                             "got 1000000000000$"):
            SimConfig(scenario, 1000, 0, {"n_list": [10**12]})
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="^n_list entry must be an integer from 100 to 10000000, "
                                             "got 10000001$"):
            SimConfig(scenario, 1000, 0, {"n_list": [sim.MAX_TABLE_N + 1]})
        SimConfig(scenario, 1000, 0, {"n_list": [100, sim.MAX_TABLE_N]})

    def test_table1_reps_floor(self):
        with pytest.raises(ValueError, match="^reps must be an integer >= 1000, got 200$"):
            SimConfig("table1_models", 200, 1)
        SimConfig("table1_models", 1000, 1)
        SimConfig("normal_fit_table", 200, 1)  # the other scenarios keep the floor of 100

    def test_params_must_be_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            SimConfig(scenario="table1_models", reps=1000, seed=0, params=5)

    @pytest.mark.parametrize("reps", [1000.0, 1000.5, True, "1000", None], ids=repr)
    def test_reps_must_be_an_integer(self, reps):
        with pytest.raises(ValueError,
                           match=f"^reps must be an integer >= 100, got {re.escape(repr(reps))}$"):
            SimConfig("normal_fit_table", reps, 1)

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, "1", None, -1, 2**64], ids=repr)
    def test_seed_must_be_an_unsigned_64_bit_integer(self, seed):
        # seed=1.7 once drew from stream seed 1 while the manifest recorded 1.7
        with pytest.raises(ValueError, match="^seed must be an integer from 0 to 18446744073709551615, "
                                             f"got {re.escape(repr(seed))}$"):
            SimConfig("normal_fit_table", 1000, seed)

    def test_numpy_integers_stored_as_int(self, tmp_path):
        # np.int64 reps or seed once ran the scenario and then failed writing the manifest
        config = SimConfig("vst_lof_calibration", np.int64(100), np.uint64(2**64 - 1),
                           {"lambda_grid": [1.0]})
        assert type(config.reps) is int and type(config.seed) is int
        assert config == SimConfig("vst_lof_calibration", 100, 2**64 - 1, {"lambda_grid": [1.0]})
        run_scenario(config, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["reps"], manifest["seed"]) == (100, 2**64 - 1)


SMALL_PARAMS = {  # one small run of each scenario; the calibration grids have 3 points
    "vst_lof_calibration": {"nu": 5, "lambda_grid": [0, 4.5, 8]},
    "vst_equiv_calibration": {"nu": 1.0, "lambda0": 6, "lambda_grid": [0, 6, 12]},
    "normal_fit_table": {"families": ["normal", "t5"], "n_list": [100, 200]},
    "poisson_fit_table": {"dists": [["poisson", 5], ["neg_binomial", 20, 0.01]],
                          "n_list": [100, 400]},
    "table1_models": {"n": 60, "alpha": 0.1},
}
CSV_HEADERS = {
    "vst_lof_calibration": "grid_0,grid_1,mean_t,sd_t,mc_se,reps",
    "vst_equiv_calibration": "grid_0,grid_1,grid_2,mean_t,sd_t,mc_se,reps",
    "normal_fit_table": "grid_0,grid_1,mean_t,sd_t,mc_se,reps",
    "poisson_fit_table": "grid_0,grid_1,mean_t,sd_t,mc_se,reps,mean_r,sd_r,mean_m0,sd_m0",
    "table1_models": "model,d,sup_m,j_div,power,power_se,reps",
}


def _unit_threads(monkeypatch) -> set:
    """The idents of the threads that run calibration units from now on: each
    unit calls the transform's core."""
    threads, core = set(), sim._lof_values

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        return core(*args, **kwargs)

    monkeypatch.setattr(sim, "_lof_values", recording)
    return threads


def _both_pool_threads_serve() -> None:
    """Run a call whose two units must run at once on the two-thread pool:
    it ends only when no unit of an earlier call holds a thread."""
    barrier = threading.Barrier(2, timeout=5)

    def unit(item):
        barrier.wait()
        return item

    assert sim._map_units(unit, [0, 1], workers=2) == [0, 1]


class TestMapUnits:
    def test_threads_capped_at_units(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
        threads = _unit_threads(monkeypatch)
        assert run_vst_lof(1.0, [0, 1], reps=200, seed=3, workers=4) == \
            run_vst_lof(1.0, [0, 1], reps=200, seed=3, workers=1)
        assert len(threads - {threading.get_ident()}) <= 2
        threads.clear()
        run_vst_lof(1.0, [0], reps=200, seed=3, workers=4)
        assert threads == {threading.get_ident()}  # a single unit runs inline

    def test_threads_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        threads = _unit_threads(monkeypatch)
        assert run_vst_lof(1.0, range(8), reps=200, seed=3, workers=8) == \
            run_vst_lof(1.0, range(8), reps=200, seed=3, workers=1)
        assert 1 <= len(threads - {threading.get_ident()}) <= 2

    def test_tables_run_on_the_pool_largest_first(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        submitted = []
        with ThreadPoolExecutor(2) as pool:
            def submit(fn, item):
                submitted.append(item)
                return pool.submit(fn, item)

            monkeypatch.setattr(sim, "_executor", lambda workers: SimpleNamespace(submit=submit))
            for scenario in ("normal_fit_table", "poisson_fit_table", "table1_models"):
                config = SimConfig(scenario, 1000, 3, SMALL_PARAMS[scenario])
                assert run_scenario(config, workers=2) == run_scenario(config, workers=1)
        # cells by decreasing n, in input order within an n; rows come back in input order
        assert [item[0] for item in submitted] == [1, 3, 0, 2, 1, 3, 0, 2, 0, 1]

    def test_lowest_index_failure_raised_and_rest_cancelled(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        started, four_failed, hold = [], threading.Event(), threading.Event()

        def unit(item):
            started.append(item)
            if item == 4:  # submitted first, and the first to fail
                four_failed.set()
                raise ValueError("unit 4")
            if item == 0:
                four_failed.wait(10)
                raise ValueError("unit 0")
            hold.wait(10)  # units 1 and 2 hold both threads, so unit 3 waits in the queue
            raise ValueError(f"unit {item}")

        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(sim, "_executor", lambda workers: pool)
            try:
                with pytest.raises(ValueError, match="unit 0"):
                    sim._map_units(unit, [0, 1, 2, 3, 4], workers=2, size=lambda item: item == 4)
            finally:
                hold.set()
        assert 3 not in started  # cancelled before it started

    def test_failure_stops_higher_units_within_one_block(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        running, failing, blocks_after = threading.Event(), threading.Event(), []

        def unit(item):
            if item == 0:
                running.wait(10)
                failing.set()
                raise ValueError("unit 0")
            for block in range(1000):  # 10 s unless stopped
                sim._stop_point()
                running.set()
                if failing.is_set():
                    blocks_after.append(block)
                time.sleep(0.01)

        start = time.perf_counter()
        with pytest.raises(ValueError, match="unit 0"):
            sim._map_units(unit, [0, 1], workers=2)
        assert time.perf_counter() - start < 5.0
        _both_pool_threads_serve()
        # one block may begin between failing.set() and the failure's record
        assert len(blocks_after) <= 2

    def test_failed_chunk_stops_running_chunk_within_one_tile(self, monkeypatch):
        # at a full block a tile is one grid point, so each of the two chunks
        # of this grid is 20 tiles; chunk 0 fails in its first tile once chunk
        # 1 is running, and chunk 1 would run on for about 0.2 s unless stopped
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        running, failing, tiles_after = threading.Event(), threading.Event(), []
        square = sim._shifted_square

        def tile(z, rest, root, out):
            if np.ravel(root)[0] == 0.0:
                running.wait(10)
                failing.set()
                raise ValueError("chunk 0")
            running.set()
            if failing.is_set():
                tiles_after.append(root)
            time.sleep(0.01)
            return square(z, rest, root, out=out)

        monkeypatch.setattr(sim, "_shifted_square", tile)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="chunk 0"):
            run_vst_lof(1.0, range(40), reps=sim.VST_BLOCK, seed=1, workers=2)
        assert time.perf_counter() - start < 5.0
        _both_pool_threads_serve()
        # one tile may begin between failing.set() and the failure's record
        assert len(tiles_after) <= 2

    def test_lowest_failure_raised_under_contention(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                fails = set(random.Random(trial).sample(range(12), 3))

                def unit(item):
                    for _ in range(20):
                        sim._stop_point()
                    if item in fails:
                        raise ValueError(f"unit {item}")
                    return item

                with pytest.raises(ValueError, match=f"^unit {min(fails)}$"):
                    sim._map_units(unit, list(range(12)), workers=4)
        finally:
            sys.setswitchinterval(interval)

    def test_failed_cell_stops_running_cell_within_one_block(self, monkeypatch):
        # cell 0 fails at once; cell 3, Poisson(20) at n = 6400, runs about 90
        # row blocks unless cell 0's failure stops it
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        failed, blocks_after, rows = threading.Event(), [], sim.poisson_evidence_rows

        def recording(tables):
            if failed.is_set() and tables.shape[1] > 10:
                blocks_after.append(len(tables))
            try:
                return rows(tables)
            except UndefinedFit:
                failed.set()
                raise

        monkeypatch.setattr(sim, "poisson_evidence_rows", recording)
        with pytest.raises(ValueError, match=r"cell \['poisson', 0.001\], n = 100, replication 0:"):
            run_poisson_table((("poisson", 0.001), ("poisson", 20)), (100, 6400), reps=100000,
                              seed=0, workers=2)
        _both_pool_threads_serve()
        assert failed.is_set()
        assert len(blocks_after) <= 2

    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_gets_fresh_pools(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        run_vst_lof(1.0, [0, 1], reps=200, seed=3, workers=2)  # the parent's pool is warm

        def child():
            same = (run_vst_lof(1.0, [0, 1, 2], reps=200, seed=4, workers=2)
                    == run_vst_lof(1.0, [0, 1, 2], reps=200, seed=4, workers=1))
            os._exit(0 if same else 3)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        if proc.is_alive():
            proc.kill()
            proc.join(10)
            pytest.fail("the forked child hung on the inherited pool")
        assert proc.exitcode == 0


def _recorded_rows(monkeypatch, module, name):
    """Copies of the first argument of every call to module.name, in call order."""
    calls, fn = [], getattr(module, name)

    def recording(rows, *args, **kwargs):
        calls.append(np.array(rows))
        return fn(rows, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


class TestStreamLayout4:
    """Replication i of cell c is row i of one (reps, width) draw from
    RandomStream(seed, c).gen, however the rows are blocked."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(pearson, "CHUNK_VALUES", 1 << 12)  # several blocks per cell

    @pytest.mark.parametrize("family", sim.TABLE3_FAMILIES)
    def test_normal_table(self, monkeypatch, family):
        calls = _recorded_rows(monkeypatch, sim, "normality_evidence_rows")
        run_normal_table((family,), (100, 400), reps=50, seed=8)
        assert len(calls) == len(row_blocks(50, 100)) + len(row_blocks(50, 400)) == 7
        name, params = sim.TABLE3[family]
        for cell, n in enumerate((100, 400)):
            want = FAMILIES[name](RandomStream(8, cell).gen, (50, n), **params)
            got = np.concatenate([c for c in calls if c.shape[1] == n])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dist", [("poisson", 5.0), ("neg_binomial", 10.0, 0.01)])
    def test_poisson_table(self, monkeypatch, dist):
        calls = _recorded_rows(monkeypatch, sim, "poisson_evidence_rows")
        run_poisson_table((dist,), (100, 400), reps=200, seed=8)
        pmf = count_pmf(*dist)
        assert len(calls) == 2 * len(row_blocks(200, len(pmf))) > 2
        for cell, n in enumerate((100, 400)):
            want = RandomStream(8, cell).gen.multinomial(n, pmf, size=200)
            got = np.concatenate([c for c in calls if c.sum(axis=1)[0] == n])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_multinomial_power_mc(self, monkeypatch):
        # through run_table1, whose rows p7 and uniform use streams 0 and 1
        calls = _recorded_rows(monkeypatch, pearson, "_pearson")
        run_table1(n=100, reps=1500, seed=8)
        assert len(calls) == 2 * len(row_blocks(1500, 6)) > 2
        half = len(calls) // 2
        for idx, probs in enumerate([least_divergent_point(6, 0.15), np.full(6, 1.0 / 6)]):
            want = RandomStream(8, idx).gen.multinomial(100, probs, size=1500)
            got = np.concatenate(calls[idx * half : (idx + 1) * half])
            assert got.tobytes() == want.tobytes()


class TestGeneratorsPerBlock:
    """The blocks of stacked replications of one cell share one generator,
    however many blocks the cell draws, whatever its bit generator."""

    @pytest.fixture
    def generator_builds(self, monkeypatch):
        monkeypatch.setattr(pearson, "CHUNK_VALUES", 1 << 14)  # several blocks per case
        built = []
        generator = np.random.Generator

        def counting(*args, **kwargs):
            built.append(1)
            return generator(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", counting)
        return built

    def test_normal_table(self, generator_builds):
        run_normal_table(("normal",), (1600,), reps=40, seed=1)
        assert len(row_blocks(40, 1600)) == 4
        assert len(generator_builds) == 1

    def test_poisson_table(self, generator_builds):
        run_poisson_table((("poisson", 5),), (100,), reps=2000, seed=1)
        assert len(row_blocks(2000, len(count_pmf("poisson", 5)))) == 5
        assert len(generator_builds) == 1

    def test_multinomial_power_mc(self, generator_builds):
        probs = np.full(6, 1.0 / 6)
        multinomial_power_mc(RandomStream(1, 0), 100, probs, probs, 0.05, 6000)
        assert len(row_blocks(6000, 6)) == 3
        assert len(generator_builds) == 1


def test_results_independent_of_block_size(monkeypatch):
    def run_all():
        probs = np.full(6, 1.0 / 6)
        return (run_normal_table(("normal", "t5"), (100, 400), reps=100, seed=3),
                run_poisson_table((("poisson", 5), ("neg_binomial", 1, 0.01)), (100,),
                                  reps=100, seed=3),
                multinomial_power_mc(RandomStream(3, 0), 100, least_divergent_point(6, 0.15),
                                     probs, 0.05, 1000))

    default = run_all()
    monkeypatch.setattr(pearson, "CHUNK_VALUES", 1 << 10)
    assert len(row_blocks(100, 400)) == 50
    assert run_all() == default


@pytest.mark.parametrize("scenario", sim.SCENARIOS)
def test_scenario_bytes_independent_of_workers(tmp_path, scenario):
    config = SimConfig(scenario, 1000, 17, SMALL_PARAMS[scenario])
    rows = run_scenario(config, out_dir=tmp_path / "w1", workers=1)
    run_scenario(config, out_dir=tmp_path / "w2", workers=2)
    for name in (f"{scenario}.csv", f"{scenario}.json"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
    lines = (tmp_path / "w1" / f"{scenario}.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADERS[scenario]
    assert len(lines) == 1 + len(rows)


def _reference_texts(rows) -> tuple:
    """(CSV, JSON) of rows written out plainly: the JSON by json.dumps, the
    CSV by joining each field's str, grid_point spread into its cells and a
    tuple within it joined by '/'."""
    def as_json(value):
        return [as_json(v) for v in value] if isinstance(value, tuple) else value

    def cell(value):
        return "/".join(map(str, value)) if isinstance(value, tuple) else str(value)

    names = list(vars(rows[0]))
    lines = []
    for row in rows:
        cells = [cell(getattr(row, name)) for name in names]
        if names[0] == "grid_point":
            cells[:1] = map(cell, row.grid_point)
        lines.append(",".join(cells))
    header = names
    if names[0] == "grid_point":
        header = [f"grid_{i}" for i in range(len(rows[0].grid_point))] + names[1:]
    csv_text = "\n".join([",".join(header)] + lines) + "\n"
    json_text = json.dumps([{k: as_json(v) for k, v in vars(row).items()} for row in rows],
                           sort_keys=True, indent=2) + "\n"
    return csv_text, json_text


NONFINITE = (math.nan, math.inf, -math.inf)


class TestRender:
    """sim._render against json.dumps and a plain CSV join."""

    @pytest.mark.parametrize("scenario", sim.SCENARIOS)
    def test_every_scenario(self, scenario):
        rows = run_scenario(SimConfig(scenario, 1000, 17, SMALL_PARAMS[scenario]))
        assert sim._render(rows) == _reference_texts(rows)
        assert sim._render(rows[:1]) == _reference_texts(rows[:1])

    def test_default_poisson_grid_mixes_tuple_lengths(self):
        rows = run_poisson_table(n_list=[100], reps=100, seed=2)
        assert {len(row.grid_point[0]) for row in rows} == {2, 3}
        assert sim._render(rows) == _reference_texts(rows)

    def test_nonfinite_floats(self):
        rows = [sim.SimSummary((5, lam), mean, sd, se, 100)
                for lam, mean, sd, se in itertools.product([0.0, math.inf], NONFINITE + (1.5,),
                                                           NONFINITE, (0.1,))]
        csv_text, json_text = sim._render(rows)
        assert (csv_text, json_text) == _reference_texts(rows)
        assert "nan" in csv_text and "NaN" in json_text and "-Infinity" in json_text

    def test_strings_escaped_in_json_only(self):
        names = ['p"7', "back\\slash", "caf\u00e9", "\u2713 tab\t", "{0}", "nan", ""]
        rows = [sim.Table1Row(name, 0.1 * i, math.nan, math.inf, -0.0, 1e300, 1000)
                for i, name in enumerate(names)]
        assert sim._render(rows) == _reference_texts(rows)
        for row in rows:
            assert sim._render([row]) == _reference_texts([row])

    def test_mixed_count_laws_in_one_table(self):
        grid = [(("poisson", 5), 100), (("neg_binomial", 20, 0.01), 400),
                (("poisson", 1.5), 6400), (("neg_binomial", 1, math.nan), 100),
                (("poisson", math.inf), 100)]
        rows = [PoissonCellSummary(g, 0.1, 1.0, 0.01, 100, 7.25, 0.5, 4.0, math.nan)
                for g in grid]
        assert sim._render(rows) == _reference_texts(rows)
        assert sim._render(rows[::-1]) == _reference_texts(rows[::-1])
        assert sim._render(rows[1:2]) == _reference_texts(rows[1:2])


class TestRunScenario:
    def test_identical_csv_bytes(self, tmp_path):
        config = SimConfig(scenario="vst_equiv_calibration", reps=500, seed=77,
                           params={"nu": 5.0, "lambda0": 12.0, "lambda_grid": [0, 6, 12]})
        run_scenario(config, out_dir=tmp_path / "a")
        run_scenario(config, out_dir=tmp_path / "b")
        csv_a = (tmp_path / "a" / "vst_equiv_calibration.csv").read_bytes()
        csv_b = (tmp_path / "b" / "vst_equiv_calibration.csv").read_bytes()
        assert csv_a == csv_b
        assert (tmp_path / "a" / "manifest.json").exists()
        assert (tmp_path / "a" / "vst_equiv_calibration.json").exists()

    def test_replaces_stale_files(self, tmp_path):
        config = SimConfig(scenario="vst_lof_calibration", reps=200, seed=5,
                           params={"lambda_grid": [0, 4]})
        names = ("vst_lof_calibration.csv", "vst_lof_calibration.json", "manifest.json")
        stale = tmp_path / "stale"
        stale.mkdir()
        for name in names:
            (stale / name).write_text("stale\n" * 1000)  # longer than any result
        fresh = tmp_path / "fresh"
        with open(stale / names[0], "rb") as held:
            run_scenario(config, out_dir=stale)
            run_scenario(config, out_dir=fresh)
            for name in names[:2]:
                assert (stale / name).read_bytes() == (fresh / name).read_bytes()
            manifests = [json.loads((d / names[2]).read_text()) for d in (stale, fresh)]
            for m in manifests:
                del m["elapsed_s"]  # the only field that differs between two runs
            assert manifests[0] == manifests[1]
            assert held.read() == b"stale\n" * 1000  # an open reader keeps the old bytes

    def test_csv_has_expected_rows(self, tmp_path):
        config = SimConfig(scenario="vst_lof_calibration", reps=200, seed=5,
                           params={"nu": 1.0, "lambda_grid": [0, 1, 2, 3]})
        rows = run_scenario(config, out_dir=tmp_path)
        text = (tmp_path / "vst_lof_calibration.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        assert len(text) == 5  # header + 4 rows
        assert text[0].startswith("grid_0")

    def test_manifest_records_layout_and_versions(self, tmp_path):
        config = SimConfig(scenario="table1_models", reps=1000, seed=6)
        run_scenario(config, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["stream_layout"] == sim.STREAM_LAYOUT == 6
        assert manifest["versions"] == {"gofevid": __version__, "numpy": np.__version__,
                                        "scipy": scipy.__version__}

    def test_table1_scenario_csv(self, tmp_path):
        config = SimConfig(scenario="table1_models", reps=1000, seed=6)
        rows = run_scenario(config, out_dir=tmp_path)
        assert len(rows) == 2
        header = (tmp_path / "table1_models.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "model"
