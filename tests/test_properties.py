"""Property tests: transform shape, affine invariance, batched rows against the
report functions, and exit codes of the CLI on fuzzed input."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from gofevid.cli import main
from gofevid.dist import count_pmf
from gofevid.evidence import EquivalenceParams, equiv_transform, lof_transform
from gofevid.model_fit import (
    UndefinedFit,
    evidence_for_normality,
    evidence_for_poisson,
    normality_evidence_rows,
    poisson_evidence_rows,
)
from gofevid.sim import SCENARIOS

# derandomized so that a tier-1 run is reproducible; no example database on disk
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

nus = st.floats(0.05, 500.0)
statistics = st.floats(0.0, 1e6)


@PROPERTY
@given(nus, statistics, statistics, st.floats(0.01, 1000.0), st.booleans())
def test_transforms_monotone(nu, s1, s2, lambda0, adjust):
    lo, hi = min(s1, s2), max(s1, s2)
    params = EquivalenceParams(nu, lambda0)
    assert lof_transform(lo, nu, adjust) <= lof_transform(hi, nu, adjust)
    assert equiv_transform(lo, params, adjust) >= equiv_transform(hi, params, adjust)


@PROPERTY
@given(nus, st.floats(0.01, 1000.0))
def test_transforms_continuous_at_nu(nu, lambda0):
    params = EquivalenceParams(nu, lambda0)
    below = math.nextafter(nu, 0.0)  # the last statistic on the lower branch
    tol = 1e-6 * max(1.0, math.sqrt(nu))
    assert abs(lof_transform(below, nu) - lof_transform(nu, nu)) < tol
    assert abs(equiv_transform(below, params) - equiv_transform(nu, params)) < tol


@PROPERTY
@given(st.integers(0, 2**32), st.integers(100, 600), st.floats(1e-3, 1e3),
       st.booleans(), st.floats(-1e3, 1e3))
def test_normality_evidence_affine_invariant(seed, n, scale, flip, shift):
    x = np.random.default_rng(seed).standard_normal(n)
    a = -scale if flip else scale
    base = evidence_for_normality(x)
    moved = evidence_for_normality(a * x + shift)
    # a negative scale reflects the data, so the cells come in reverse order
    assert moved.counts.tolist() == (base.counts[::-1] if flip else base.counts).tolist()
    assert abs(moved.evidence.t - base.evidence.t) < 1e-9


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(100, 2000),
       st.floats(0.05, 1.0), st.booleans())
def test_normality_rows_equal_reports(seed, rows, n, k, adjust):
    data = np.random.default_rng(seed).standard_t(6, size=(rows, n))
    want = [evidence_for_normality(row, k, adjust).evidence.t for row in data]
    assert normality_evidence_rows(data, k, adjust).tolist() == want


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(10, 3000),
       st.floats(0.2, 40.0), st.floats(0.0, 0.2), st.floats(0.05, 1.0), st.booleans())
def test_poisson_rows_equal_reports(seed, rows, n, mu, alpha, k, adjust):
    pmf = count_pmf("neg_binomial", mu, alpha)
    rng = np.random.default_rng(seed)
    tables = np.stack([rng.multinomial(n, pmf) for _ in range(rows)])
    try:
        mu_hat, r, m0, t = poisson_evidence_rows(tables, k, adjust)
    except UndefinedFit as exc:  # the report of that row fails the same way
        try:
            evidence_for_poisson(tables[exc.row], k, adjust)
        except ValueError as report_exc:
            assert str(report_exc) == str(exc)
        else:
            raise AssertionError(f"row {exc.row} is undefined in the batch only")
        return
    reports = [evidence_for_poisson(table, k, adjust) for table in tables]
    assert mu_hat.tolist() == [rep.mu_hat for rep in reports]
    assert r.tolist() == [rep.r for rep in reports]
    assert m0.tolist() == [rep.m0 for rep in reports]
    assert t.tolist() == [rep.evidence.t for rep in reports]


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call; any exception that
    escapes ``main`` (a traceback for a user) fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def _check_exit(argv) -> None:
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err


numbers = st.one_of(
    st.integers(-5, 50), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(["nan", "inf", "-0", "1e400"]))
count_lines = st.one_of(
    st.builds(str, numbers),
    st.builds(lambda i, c: f"{i},{c}", st.integers(-3, 40), numbers),
    st.sampled_from(["", "# comment", "1,2,3", "x", "5,", ",5", " 7 "]),
)
real_lines = st.one_of(st.builds(repr, st.floats(allow_nan=True, allow_infinity=True)),
                       st.builds(str, numbers), st.sampled_from(["", "#", "abc", "1e999"]))


count_files = st.one_of(
    st.lists(count_lines, max_size=30),
    st.lists(st.builds(str, st.integers(0, 60)), min_size=1, max_size=25),
    st.lists(st.builds(lambda i, c: f"{i},{c}", st.integers(-3, 40), st.integers(0, 60)),
             min_size=1, max_size=25),
)


@settings(PROPERTY, max_examples=60)
@given(count_files, st.sampled_from(["evidence-lof", "evidence-equiv", "fit-poisson"]),
       st.one_of(st.none(), st.lists(real_lines, max_size=8)))
def test_cli_count_files(lines, command, probs):
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        argv = [command, str(counts)]
        if probs is not None and command != "fit-poisson":
            (Path(tmp) / "probs.txt").write_text("\n".join(probs) + "\n")
            argv += ["--probs", str(Path(tmp) / "probs.txt")]
        _check_exit(argv)


normal_samples = st.builds(
    lambda seed, n, junk: [repr(float(v)) for v in np.random.default_rng(seed).standard_normal(n)]
    + junk, st.integers(0, 2**32), st.integers(90, 300), st.lists(real_lines, max_size=2))


@PROPERTY
@given(st.one_of(st.lists(real_lines, max_size=20), normal_samples),
       st.sampled_from(["0.5", "0", "1", "2", "nan"]))
def test_cli_reals_files(lines, k):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.txt"
        data.write_text("\n".join(lines) + "\n")
        _check_exit(["fit-normal", str(data), "--k", k])


# Values stay small: a valid table parameter sets how much a replication
# allocates and how long it runs, and large valid sizes are not what this
# test is about.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 400), st.floats(-5.0, 60.0),
              st.sampled_from([math.nan, math.inf, "a", "poisson", "neg_binomial", "t5"])),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)
plausible_params = {
    "nu": st.floats(0.1, 30.0),
    "lambda0": st.floats(0.1, 30.0),
    "lambda_grid": st.lists(st.floats(0.0, 30.0), min_size=1, max_size=4),
    "families": st.lists(st.sampled_from(["normal", "logistic", "t5"]), min_size=1, max_size=2),
    "dists": st.lists(st.one_of(
        st.tuples(st.just("poisson"), st.floats(0.01, 20.0)).map(list),
        st.tuples(st.just("neg_binomial"), st.floats(0.01, 20.0), st.floats(0.0, 0.1)).map(list)),
        min_size=1, max_size=2),
    "n_list": st.lists(st.integers(99, 400), min_size=1, max_size=2),
    "n": st.integers(0, 200),
    "alpha": st.floats(0.0, 0.5),
}


def mostly(valid, junk):
    """Draws from `valid` three times in four and from `junk` otherwise."""
    return st.integers(0, 3).flatmap(lambda i: junk if i == 0 else valid)


def scenario_params(scenario):
    """The scenario's own keys with plausible values, some of them junk."""
    plausible = st.fixed_dictionaries({}, optional={
        key: mostly(plausible_params[key], json_values) for key in sorted(SCENARIOS[scenario][1])})
    return st.tuples(st.just(scenario), mostly(plausible, json_values))


@PROPERTY
@given(st.sampled_from(list(SCENARIOS)).flatmap(scenario_params),
       mostly(st.just(True), st.just(False)))
def test_cli_simulate_params(scenario_and_params, whole):
    scenario, params = scenario_and_params
    text = json.dumps(params) if whole else json.dumps(params)[:-1]  # truncated JSON too
    with tempfile.TemporaryDirectory() as tmp:
        _check_exit(["simulate", "--scenario", scenario, "--reps", "100", "--out", tmp,
                     "--params", text])
