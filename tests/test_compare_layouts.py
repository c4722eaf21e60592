"""``compare_layouts.py`` on small result trees written by ``gofevid simulate``."""

import json

import compare_layouts
from gofevid.cli import main

RUNS = {"vst_lof_calibration": ["--params", '{"lambda_grid": [0, 4]}'],
        "table1_models": ["--reps", "1000"]}


def _tree(path, seed):
    for scenario, extra in RUNS.items():
        assert main(["simulate", "--scenario", scenario, "--reps", "200", "--seed", str(seed),
                     "--out", str(path), *extra]) == 0
    return path


def test_same_tree_reads_zero(tmp_path, capsys):
    tree = _tree(tmp_path / "a", 17)
    assert compare_layouts.main([str(tree), str(tree)]) == 0
    assert "4 rows; max |z| = 0.000" in capsys.readouterr().out


def test_shifted_row_is_named_and_fails(tmp_path, capsys):
    old = _tree(tmp_path / "old", 17)
    new = _tree(tmp_path / "new", 17)
    path = new / "table1_models" / "table1_models.json"
    rows = json.loads(path.read_text())
    rows[1]["power"] += 5 * 2**0.5 * rows[1]["power_se"]
    path.write_text(json.dumps(rows))
    assert compare_layouts.main([str(old), str(new)]) == 1
    assert 'max |z| = 5.000 (+5.000 at table1_models "uniform")' in capsys.readouterr().out


def test_different_rows_are_an_error(tmp_path, capsys):
    old = _tree(tmp_path / "old", 17)
    assert main(["simulate", "--scenario", "vst_lof_calibration", "--reps", "200",
                 "--seed", "17", "--out", str(tmp_path / "new")]) == 0
    assert compare_layouts.main([str(old), str(tmp_path / "new")]) == 2
    assert "vst_lof_calibration: the trees hold different rows" in capsys.readouterr().err
