import argparse
import csv
import errno
import io
import json
import math
import os
import threading
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gofevid import cli, sim
from gofevid.cli import MAX_COUNT, MAX_COUNT_VALUE, main
from gofevid.dist import RandomStream, count_pmf


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvidenceLof:
    def test_die_fixture_text(self, capsys):
        code, out, _ = run_cli(capsys, "evidence-lof", "--fixture", "die")
        assert code == 0
        assert "S:            7.7600" in out
        assert "T = 0.802" in out
        assert "± 1" in out
        assert "negligible" in out

    def test_die_fixture_json(self, capsys):
        code, out, _ = run_cli(capsys, "evidence-lof", "--fixture", "die", "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "gofevid.report/1"
        assert abs(doc["s_stat"] - 7.76) < 0.005
        assert abs(doc["t"] - 0.8018) < 5e-4
        assert doc["nu"] == 5.0

    def test_counts_file(self, capsys, tmp_path):
        f = tmp_path / "counts.csv"
        f.write_text("".join(f"{i},{c}\n" for i, c in enumerate([17, 16, 25, 9, 16, 17], 1)))
        code, out, _ = run_cli(capsys, "evidence-lof", str(f), "-f", "json")
        assert code == 0
        assert abs(json.loads(out)["s_stat"] - 7.76) < 0.005

    def test_exact_fit_reports_bias_term_only_offset(self, capsys, tmp_path):
        # counts equal to expectation give S = 0, so T is the transform floor
        # -sqrt(2 nu) plus the adjustment 0.2/sqrt(nu)
        f = tmp_path / "flat.csv"
        f.write_text("10\n10\n10\n10\n")
        code, out, _ = run_cli(capsys, "evidence-lof", str(f), "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["s_stat"] == 0.0
        assert doc["t"] == pytest.approx(-math.sqrt(6.0) + 0.2 / math.sqrt(3.0))
        assert doc["bias_adjust"] is True

    def test_single_cell_rejected(self, capsys, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("42\n")
        code, _, err = run_cli(capsys, "evidence-lof", str(f))
        assert code == 1
        assert "error" in err

    def test_custom_probs(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("30\n70\n")
        probs = tmp_path / "p.txt"
        probs.write_text("0.3\n0.7\n")
        code, out, _ = run_cli(capsys, "evidence-lof", str(counts), "--probs",
                               str(probs), "-f", "json")
        assert code == 0
        assert json.loads(out)["s_stat"] == pytest.approx(0.0)


    def test_nan_probs_named(self, capsys, tmp_path):
        counts = tmp_path / "c.txt"
        counts.write_text("3\n4\n")
        probs = tmp_path / "p.txt"
        probs.write_text("0.5\nnan\n")
        code, _, err = run_cli(capsys, "evidence-lof", str(counts), "--probs", str(probs))
        assert code == 1
        assert "every --probs entry must exceed 1e-12, got nan" in err


class TestRepeatedIndices:
    @pytest.mark.parametrize("command", ["evidence-lof", "evidence-equiv"])
    def test_repeated_index_lines_are_summed(self, capsys, tmp_path, command):
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("1,10\n1,12\n2,9\n")
        summed = tmp_path / "summed.csv"
        summed.write_text("22\n9\n")
        code, out, _ = run_cli(capsys, command, str(repeated), "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["r"] == 2 and doc["nu"] == 1.0 and doc["n"] == 31
        code, want, _ = run_cli(capsys, command, str(summed), "-f", "json")
        assert code == 0
        assert out == want


class TestEvidenceEquiv:
    def test_die_fixture_values(self, capsys):
        code, out, _ = run_cli(capsys, "evidence-equiv", "--fixture", "die",
                               "--k", "0.5", "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda0"] == pytest.approx(5.0)
        assert doc["m0"] == pytest.approx(1.157, abs=5e-4)
        assert doc["t"] == pytest.approx(0.2626, abs=5e-4)

    def test_k_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "evidence-equiv", "--fixture", "die", "--k", "0")
        assert code == 1
        assert "k" in err

    def test_provenance_echoed_in_text(self, capsys):
        code, out, _ = run_cli(capsys, "evidence-equiv", "--fixture", "die")
        assert code == 0
        for label in ("lambda0", "m0", "k:", "bias adjust", "df (nu)"):
            assert label.split(":")[0] in out


class TestSamplesize:
    @pytest.mark.parametrize("m0,r,k,want", [
        ("3.3", "6", "0.5", 427),   # direct evaluation (4x the k=1 entry prints 428)
        ("1.645", "2", "1", 10),
        ("5", "25", "1", 1432),
    ])
    def test_values(self, capsys, m0, r, k, want):
        code, out, _ = run_cli(capsys, "samplesize", "--m0", m0, "--r", r,
                               "--k", k, "-f", "json")
        assert code == 0
        assert json.loads(out)["n0"] == want

    def test_n0_above_int64_range(self, capsys):
        # n0 is an exact Python int; it must not pass through an int64 array.
        code, out, _ = run_cli(capsys, "samplesize", "--m0", "3.3", "--r", "6",
                               "--k", "1e-9")
        assert code == 0
        assert "  n0 = 106627581392778264576\n" in out


    @pytest.mark.parametrize("argv,message", [
        (["--m0", "3.3", "--r", "1"], "r must be an integer >= 2"),
        (["--m0", "inf", "--r", "6"], "m0 must be positive and finite, got inf"),
        (["--m0", "3.3", "--r", "6", "--k", "nan"], "k must lie in (0, 1]"),
        (["--m0", "1e308", "--r", "6"], "the required sample size is not a finite number"),
        (["--m0", "3.3", "--r", "6", "--k", "1e-300"],
         "the required sample size is not a finite number"),
    ])
    def test_domain_errors_exit_1(self, capsys, argv, message):
        code, _, err = run_cli(capsys, "samplesize", *argv)
        assert code == 1
        assert message in err


class TestFitPoisson:
    def test_alpha_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "fit-poisson", "--fixture", "alpha", "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["s_stat"] - 8.95) < 0.01
        assert abs(doc["lambda0"] - 20.117) < 0.001
        assert abs(doc["m0"] - 2.56) < 0.005
        assert abs(doc["t"] - 3.53) < 0.01
        assert doc["r"] == 16

    def test_sparse_indexed_file(self, capsys, tmp_path):
        f = tmp_path / "counts.csv"
        rng = np.random.default_rng(8)
        values = rng.poisson(4.0, 800)
        lines = [f"{v},{c}" for v, c in enumerate(np.bincount(values)) if c > 0]
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "fit-poisson", str(f), "-f", "json")
        assert code == 0
        assert json.loads(out)["n"] == 800

    def test_index_above_limit_rejected(self, capsys, tmp_path, monkeypatch):
        # the limit is checked before the dense table is allocated
        monkeypatch.setattr(np, "zeros", None)
        f = tmp_path / "counts.csv"
        f.write_text(f"0,5\n{MAX_COUNT_VALUE + 1},1\n")
        code, _, err = run_cli(capsys, "fit-poisson", str(f))
        assert code == 1
        assert str(MAX_COUNT_VALUE) in err


class TestCountLimit:
    @pytest.mark.parametrize("command", ["fit-poisson", "evidence-lof", "evidence-equiv"])
    def test_count_above_2_53_rejected(self, capsys, tmp_path, command):
        f = tmp_path / "counts.csv"
        f.write_text("5\n99999999999999999999999\n")
        code, _, err = run_cli(capsys, command, str(f))
        assert code == 1
        assert "counts.csv:2:" in err and "2**53" in err

    @pytest.mark.parametrize("command", ["fit-poisson", "evidence-lof"])
    def test_total_above_2_53_rejected(self, capsys, tmp_path, command):
        f = tmp_path / "counts.csv"
        f.write_text(f"0,{MAX_COUNT // 2}\n1,{MAX_COUNT // 2 + 1}\n")
        code, _, err = run_cli(capsys, command, str(f))
        assert code == 1
        assert "total" in err and "2**53" in err

    def test_count_at_2_53_accepted(self, capsys, tmp_path):
        f = tmp_path / "counts.csv"
        f.write_text(f"{MAX_COUNT // 2}\n{MAX_COUNT // 2}\n")
        code, out, _ = run_cli(capsys, "evidence-lof", str(f), "-f", "json")
        assert code == 0
        assert json.loads(out)["n"] == MAX_COUNT


class TestFitNormal:
    def test_simulated_normal_data(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        f = tmp_path / "data.txt"
        f.write_text("\n".join(repr(float(v)) for v in rng.standard_normal(400)) + "\n")
        code, out, _ = run_cli(capsys, "fit-normal", str(f), "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["t"] < 4.0
        assert doc["r"] == 10
        assert doc["lambda0"] == pytest.approx(400 * 0.25 / 9)
        assert sum(doc["counts"]) == 400

    def test_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("")
        code, _, err = run_cli(capsys, "fit-normal", str(f))
        assert code == 1
        assert "no data" in err

    def test_malformed_line_reports_lineno(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\n2.0\nbanana\n")
        code, _, err = run_cli(capsys, "fit-normal", str(f))
        assert code == 1
        assert ":3:" in err

    def test_long_bad_line_clipped(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\n" + "x" * 200_000 + "\n")
        code, _, err = run_cli(capsys, "fit-normal", str(f))
        assert code == 1
        assert ":2: not a number: 'xxx" in err
        assert len(err.splitlines()) == 1 and len(err) < 400

    def test_overflowing_scale_exits_1(self, capsys, tmp_path):
        f = tmp_path / "huge.txt"
        values = np.random.default_rng(5).standard_normal(200) * 1e307
        f.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        code, out, err = run_cli(capsys, "fit-normal", str(f), "-f", "json")
        assert code == 1
        assert out == ""
        assert "overflows float64" in err


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["evidence-lof", "{missing}"],
        ["evidence-lof", "--fixture", "die", "--probs", "{missing}"],
        ["fit-normal", "{missing}"],
    ])
    def test_unreadable_file_exits_1(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing.txt"
        code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {missing}: ")

    @pytest.mark.parametrize("argv", [
        ["evidence-lof", "{path}"],
        ["evidence-lof", "--fixture", "die", "--probs", "{path}"],
        ["fit-normal", "{path}"],
    ])
    def test_non_utf8_file_names_the_file(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff1\n2\n")
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
        assert code == 1
        assert out == ""
        assert err == (f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")

    def test_three_field_count_line_exits_1(self, capsys, tmp_path):
        f = tmp_path / "counts.csv"
        f.write_text("1,5\n2,6,7\n")
        code, _, err = run_cli(capsys, "evidence-lof", str(f))
        assert code == 1
        assert err == f"error: {f}:2: expected 'count' or 'index,count'\n"

    def test_probs_of_the_wrong_length_exit_1(self, capsys, tmp_path):
        probs = tmp_path / "p.txt"
        probs.write_text("# null\n0.5\n\n0.5\n")
        code, _, err = run_cli(capsys, "evidence-equiv", "--fixture", "die", "--probs", str(probs))
        assert code == 1
        assert err == "error: --probs has 2 entries but the data has 6 cells\n"


class TestCsvReports:
    @pytest.mark.parametrize("argv", [
        ["evidence-lof", "--fixture", "die"],
        ["evidence-equiv", "--fixture", "alpha", "--k", "0.3"],
        ["samplesize", "--m0", "3.3", "--r", "6", "--k", "0.5"],
        ["fit-normal", "{data}"],
        ["fit-poisson", "--fixture", "alpha", "--no-bias-adjust"],
    ])
    def test_csv_holds_the_scalars_of_the_json_report(self, capsys, tmp_path, argv):
        data = tmp_path / "data.txt"
        data.write_text("\n".join(repr(float(v)) for v in
                                  np.random.default_rng(3).standard_normal(300)))
        argv = [a.format(data=data) for a in argv]
        code, out, _ = run_cli(capsys, *argv, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        del doc["schema"]
        scalars = {k: v for k, v in doc.items() if not isinstance(v, (list, dict))}
        code, out, _ = run_cli(capsys, *argv, "-f", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert header[0] == "command" and len(header) == len(row) == len(set(header))
        assert set(header) == scalars.keys()
        for key, cell in zip(header, row):
            want = scalars[key]
            got = cell == "True" if isinstance(want, bool) else type(want)(cell)
            assert (type(got), got) == (type(want), want), key


class TestBundledData:
    @pytest.mark.parametrize("command,name,fixture", [
        ("evidence-lof", "die.csv", "die"),
        ("fit-poisson", "alpha_emissions.csv", "alpha"),
    ])
    def test_data_file_reports_as_its_fixture(self, capsys, command, name, fixture):
        path = resources.files("gofevid") / "data" / name
        from_file = run_cli(capsys, command, str(path), "-f", "json")
        assert from_file[0] == 0
        assert from_file == run_cli(capsys, command, "--fixture", fixture, "-f", "json")


class TestSimulate:
    def test_unknown_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "nope"])
        assert exc.value.code == 2

    def test_same_seed_identical_csv(self, capsys, tmp_path):
        args = ["simulate", "--scenario", "vst_lof_calibration", "--reps", "400",
                "--seed", "9", "--params", '{"nu": 1.0, "lambda_grid": [0, 2, 4]}']
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "r1"))
        assert code == 0
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "r2"))
        assert code == 0
        a = (tmp_path / "r1" / "vst_lof_calibration" / "vst_lof_calibration.csv").read_bytes()
        b = (tmp_path / "r2" / "vst_lof_calibration" / "vst_lof_calibration.csv").read_bytes()
        assert a == b

    def test_equiv_scenario_lambda6_row(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "vst_equiv_calibration",
            "--reps", "4000", "--seed", "1", "--out", str(tmp_path),
            "--params", '{"nu": 5.0, "lambda0": 12.0, "lambda_grid": [0, 6, 12]}')
        assert code == 0
        lines = (tmp_path / "vst_equiv_calibration" /
                 "vst_equiv_calibration.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        row6 = next(l.split(",") for l in lines[1:] if l.split(",")[2] == "6.0")
        mean = float(row6[header.index("mean_t")])
        assert abs(mean - 0.95) < 0.07

    def test_lambda_above_law_range_exits_1_before_drawing(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "vst_lof_calibration",
                               "--reps", "100", "--out", str(tmp_path),
                               "--params", '{"lambda_grid": [0, 1e11]}')
        assert code == 1
        assert "nu = 1.0, lam = 100000000000.0: lam must be at most" in err
        assert not (tmp_path / "vst_lof_calibration" / "vst_lof_calibration.csv").exists()

    @pytest.mark.parametrize("scenario,params,message", [
        ("vst_lof_calibration", '{"nu": "a"}', "nu must be a number, got 'a'"),
        ("vst_lof_calibration", '{"nu": true}', "nu must be a number, got True"),
        ("table1_models", '{"alpha": true}', "alpha must be a number, got True"),
        ("vst_equiv_calibration", '{"lambda0": 1e400}', "lambda0 must be positive and finite, got inf"),
        ("table1_models", '{"alpha": 1}', "alpha must lie strictly in (0, 1), got 1.0"),
        ("table1_models", '{"n": 0}', "n must be an integer from 1 to 10000000, got 0"),
        ("vst_lof_calibration", '{"lambda_grid": 5}', "lambda_grid must be a nonempty list"),
        ("poisson_fit_table", '{"dists": [["poisson"]]}', "bad dists entry"),
        ("poisson_fit_table", '{"dists": [["poisson", "1"]]}', "mu must be a number, got '1'"),
        ("poisson_fit_table", '{"n_list": [100.5]}',
         "n_list entry must be an integer from 100 to 10000000, got 100.5"),
        ("normal_fit_table", '{"n_list": [99]}',
         "n_list entry must be an integer from 100 to 10000000, got 99"),
    ])
    def test_mistyped_params_exit_1(self, capsys, tmp_path, scenario, params, message):
        # 1000 replications: table1_models' floor, so each case fails on its params
        code, _, err = run_cli(capsys, "simulate", "--scenario", scenario, "--reps", "1000",
                               "--out", str(tmp_path), "--params", params)
        assert code == 1
        assert message in err
        assert not (tmp_path / scenario).exists()

    @pytest.mark.parametrize("mu,cause", [
        (0.001, "every observed value is 0, so mu_hat = 0"),
        (0.05, "tail-cell combining left r = {r} cells at mu_hat = {mu_hat:g}"),
    ])
    def test_undefined_poisson_fit_names_replication(self, capsys, tmp_path, mu, cause):
        # the cell's replications are the rows of RandomStream(0, 0); keeping 3 cells
        # needs 100 P(X >= 2) >= 5, so mu_hat > 0.35, and at these means every
        # replication is undefined: the error names the first
        tables = RandomStream(0, 0).gen.multinomial(100, count_pmf("poisson", mu), size=100)
        mu_hat = tables @ np.arange(tables.shape[1]) / 100
        assert mu_hat.max() < 0.3
        assert (mu_hat[0] == 0) == cause.startswith("every")
        r = 1 if 100 * -math.expm1(-mu_hat[0]) < 5 else 2  # cells {0}, or {0} and {1, 2, ...}
        params = json.dumps({"dists": [["poisson", mu]], "n_list": [100]})
        code, _, err = run_cli(capsys, "simulate", "--scenario", "poisson_fit_table",
                               "--reps", "100", "--seed", "0", "--out", str(tmp_path),
                               "--params", params)
        assert code == 1
        cause = cause.format(r=r, mu_hat=mu_hat[0])
        assert f"cell ['poisson', {mu}], n = 100, replication 0: {cause}" in err

    def test_huge_n_rejected_before_allocating(self, capsys, tmp_path):
        tracemalloc.start()
        code, _, err = run_cli(capsys, "simulate", "--scenario", "normal_fit_table",
                               "--reps", "100", "--out", str(tmp_path),
                               "--params", '{"families": ["normal"], "n_list": [1000000000000]}')
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert code == 1
        assert "n_list entry must be an integer from 100 to 10000000, got 1000000000000" in err
        assert peak < 1 << 20
        assert not (tmp_path / "normal_fit_table").exists()

    def test_table1_reps_floor_is_a_config_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("the run started"))
        code, _, err = run_cli(capsys, "simulate", "--scenario", "table1_models",
                               "--reps", "200", "--out", str(tmp_path))
        assert code == 1
        assert "reps must be an integer >= 1000, got 200" in err

    def test_tiny_neg_binomial_alpha_runs(self, capsys, tmp_path):
        # alpha mu = 1e-26: the law is Poisson(0.5) to double precision, not a point mass at 0
        code, _, err = run_cli(capsys, "simulate", "--scenario", "poisson_fit_table",
                               "--reps", "100", "--out", str(tmp_path), "--params",
                               '{"dists":[["neg_binomial",0.5,1.85e-26]],"n_list":[221]}')
        assert code == 0, err

    def test_count_support_bounded(self, capsys, tmp_path):
        # the support width is checked before any table is allocated
        code, _, _ = run_cli(capsys, "simulate", "--scenario", "poisson_fit_table",
                             "--reps", "100", "--out", str(tmp_path),
                             "--params", '{"dists": [["poisson", 1e9]], "n_list": [100]}')
        assert code == 1

    def test_workers_below_one_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "table1_models",
                               "--reps", "1000", "--out", str(tmp_path), "--workers", "0")
        assert code == 2
        assert "--workers" in err

    def test_workers_capped_at_usable_cpus(self, capsys, tmp_path, monkeypatch):
        units, core = set(), sim._lof_values

        def recording(*args, **kwargs):
            units.add(threading.get_ident())
            return core(*args, **kwargs)

        monkeypatch.setattr(sim, "_lof_values", recording)
        threads = threading.active_count()
        code, _, _ = run_cli(capsys, "simulate", "--scenario", "vst_lof_calibration",
                             "--reps", "100", "--out", str(tmp_path), "--workers", "1000000")
        assert code == 0
        cpus = sim._usable_cpus()
        assert 1 <= cpus <= (os.cpu_count() or 1)
        assert 1 <= len(units) <= cpus
        assert threading.active_count() <= threads + cpus  # the kept pool, nothing more

    def test_memory_error_exits_1(self, capsys, tmp_path, monkeypatch):
        def out_of_memory(config, out_dir, workers):
            raise MemoryError

        monkeypatch.setattr(cli, "run_scenario", out_of_memory)
        code, _, err = run_cli(capsys, "simulate", "--scenario", "normal_fit_table",
                               "--out", str(tmp_path))
        assert code == 1
        assert "did not fit in memory" in err
        assert "Traceback" not in err

    def test_deeply_nested_params_exit_1(self, capsys, tmp_path):
        depth = 100_000
        params = '{"nu": ' + "[" * depth + "]" * depth + "}"
        code, _, err = run_cli(capsys, "simulate", "--scenario", "vst_lof_calibration",
                               "--out", str(tmp_path), "--params", params)
        assert code == 1
        assert err == "error: --params is nested too deeply\n"

    def test_out_naming_a_file_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("the run started"))
        out = tmp_path / "results.txt"
        out.write_text("")
        code, _, err = run_cli(capsys, "simulate", "--scenario", "table1_models",
                               "--reps", "1000", "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and str(out / "table1_models") in err
        assert len(err.splitlines()) == 1

    def test_unwritable_result_file_fails_with_a_message(self, capsys, tmp_path, monkeypatch):
        real_open = Path.open

        def refuse(path, *args, **kwargs):
            if str(path).startswith(str(tmp_path)):
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", refuse)
        code, _, err = run_cli(capsys, "simulate", "--scenario", "table1_models",
                               "--reps", "1000", "--out", str(tmp_path))
        assert code == 1
        path = tmp_path / "table1_models" / "table1_models.csv"
        assert err == f"error: [Errno 13] Permission denied: '{path}'\n"

    def test_result_files_replace_old_ones(self, capsys, tmp_path):
        args = ("simulate", "--scenario", "table1_models", "--reps", "1000", "--out", str(tmp_path))
        assert run_cli(capsys, *args)[0] == 0
        first = {p.name: p.read_bytes() for p in (tmp_path / "table1_models").iterdir()}
        for path in (tmp_path / "table1_models").iterdir():
            path.write_text("stale " * 10_000)
        assert run_cli(capsys, *args)[0] == 0
        again = {p.name: p.read_bytes() for p in (tmp_path / "table1_models").iterdir()}
        assert again.keys() == first.keys() == {"table1_models.csv", "table1_models.json",
                                                "manifest.json"}
        assert again["table1_models.csv"] == first["table1_models.csv"]
        assert again["table1_models.json"] == first["table1_models.json"]

    def test_table1_n_capped(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("the run started"))
        code, _, err = run_cli(capsys, "simulate", "--scenario", "table1_models",
                               "--reps", "1000", "--out", str(tmp_path),
                               "--params", '{"n": 100000000000000000000}')
        assert code == 1
        assert "n must be an integer from 1 to 10000000" in err
        assert not (tmp_path / "table1_models").exists()

    @pytest.mark.parametrize("params,message", [
        ({"dists": [["p" * 100_000, 1]]}, "bad dists entry ['ppp"),
        ({"k" * 50_000: 1}, "unknown parameters ['kkk"),
    ])
    def test_long_bad_params_clipped(self, capsys, tmp_path, params, message):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "poisson_fit_table",
                               "--reps", "100", "--out", str(tmp_path),
                               "--params", json.dumps(params))
        assert code == 1
        assert message in err
        assert len(err.splitlines()) == 1 and len(err) < 400

    def test_bad_params_json(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "table1_models",
                               "--params", "{not json")
        assert code == 1
        assert "error" in err


class TestParserReuse:
    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(self, **kwargs):  # called once per build, by the top-level parser
            built.append(1)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli.build_parser.cache_clear()
        try:
            for argv in (["evidence-lof", "--fixture", "die"],
                         ["samplesize", "--m0", "3.3", "--r", "6"],
                         ["evidence-equiv", "--fixture", "die", "-f", "json"]):
                assert run_cli(capsys, *argv)[0] == 0
        finally:
            cli.build_parser.cache_clear()
        assert built == [1]

    def test_failed_parse_leaves_no_state(self, capsys):
        argv = ["evidence-lof", "--fixture", "die", "-f", "json"]
        alone = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["evidence-lof", "--fixture", "die", "-f", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *argv) == alone


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["evidence-lof", "--fixture", "d20"])
        assert exc.value.code == 2

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "evidence-lof")
        assert code == 2
        assert "usage error" in err

    def test_file_and_fixture_are_exclusive(self, capsys, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("1\n2\n")
        code, _, err = run_cli(capsys, "evidence-lof", str(f), "--fixture", "die")
        assert code == 2
        assert "not both" in err
