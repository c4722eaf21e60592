#!/usr/bin/env python3
"""Quick self-check of the benchmark itself, at a tiny size.

    python3 perfbench/selfcheck.py

For every workload it makes one untraced run and two traced runs with
``--seconds 1`` and checks that each prints a result line with exactly the
contract's keys, that the correctness checks ran and passed, that every
metric named in BENCHMARK.json is present with its unit, and that the count
metrics of the two traced runs are identical.  It also checks that
predictions.json names only known workloads and metrics, and that the
benchmark refuses to run, without printing a result, in a copy that lacks
gofevid's sources.  Takes a minute or two; exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
# ratios of two counts repeat exactly as well
EXACT_RATIOS = {"dist.values_per_gen", "dist.chisq_quantile.cdf_calls_per_call"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess, wanted: list[dict], problems: list[str], label: str) -> dict:
    if done.returncode != 0:
        problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
        return {}
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{label}: correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    if not any(line.startswith("error_rate") for line in lines):
        problems.append(f"{label}: no error_rate line, so the correctness checks did not report")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {m['name']} is {got}")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]} | {"error_rate", "none"}
    problems: list[str] = []

    predictions = json.loads((HERE / "predictions.json").read_text())
    if set(predictions["workloads"]) != set(workloads):
        problems.append("predictions.json: workloads differ from BENCHMARK.json")
    for row in predictions["predictions"]:
        moved = {part.strip() for part in row["moves"].split(" and ")}
        unknown = (set(row["layer_metrics"]) | moved) - names
        unknown |= set(row["workloads"]) - set(workloads)
        if unknown:
            problems.append(f"predictions.json: unknown names {sorted(unknown)}")

    for workload in workloads:
        result_of(run(workload, 0), spec["end_to_end"], problems, f"{workload} trace=0")
        traced = [result_of(run(workload, 1), spec["per_layer"], problems, f"{workload} trace=1 #{i}")
                  for i in (1, 2)]
        for m in spec["per_layer"]:
            if m["unit"] == "count" or m["name"] in EXACT_RATIOS:
                values = [t.get(m["name"], {}).get("value") for t in traced]
                if values[0] != values[1]:
                    problems.append(f"{workload}: count {m['name']} differs between traced runs: {values}")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(workloads[0], 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"without src/ the benchmark exited {done.returncode} and printed {done.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("PROBLEM", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
