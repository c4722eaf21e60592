#!/usr/bin/env python3
"""Benchmark for gofevid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

gofevid is imported from the ``src`` directory next to this one.  Workloads
are closed loops of calls from one process (see ``workloads.py``):

* ``--trace 0`` measures the ``end_to_end`` metrics of BENCHMARK.json with
  tracing off.  Set-up is timed in several fresh processes and reported as
  their median; then the workload runs whole cycles until ``--seconds`` have
  passed.
* ``--trace 1`` runs a fixed number of cycles (set by ``--seconds``) untraced
  and then again with the timing wrappers of ``tracing.py`` installed, and
  reports the ``per_layer`` metrics.

Every output is checked against the references in ``checks.py`` after the
timed region.  Human-readable lines come first; the last line of stdout is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts operations with an unexpected failure; the
known defects listed in ``checks.KNOWN_DEFECTS`` are counted in the printed
``error_rate`` instead.  Exit status: 0 with a result, 1 when set-up failed or
a correctness check could not be run, 2 when gofevid's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
BLOCKS = 5  # a run's call timings are scaled and summarised in this many blocks of cycles
PARALLEL_SCENARIOS = ("vst_equiv_calibration", "normal_fit_table", "table1_models")
WORKLOAD_NAMES = ("mc_fit_tables", "mc_calibration", "analysis_numerics", "mc_parallel")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over gofevid's source tree, which identifies the code measured
    where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def measure_setup(workload: str, seed: int, tmp: Path, workers: int) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    times = []
    for i in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(tmp / f"setup{i}"), str(workers)],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_ops(workload, *, cycles: int | None = None, seconds: float | None = None, speed=None,
            after: bool = False):
    """Run whole cycles until `cycles` are done or `seconds` have passed,
    probing the machine's speed between calls if `speed` is given and running
    each call's untimed `after` step right after it if `after` is set."""
    ops, index, t0 = [], 0, time.perf_counter()
    while True:
        for op in workload.cycle(index):
            c0, w0 = time.process_time(), time.perf_counter()
            op.cycle, op.start_s = index, w0
            try:
                op.output = op.run()
            except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
                op.error = f"{op.kind} raised {type(exc).__name__}: {exc}"
            op.wall_s = time.perf_counter() - w0
            op.cpu_s = time.process_time() - c0
            ops.append(op)
            if after and op.after is not None and op.error is None:
                op.after()
            if speed is not None:
                speed.tick()
        index += 1
        if (cycles is not None and index >= cycles) or (seconds is not None and time.perf_counter() - t0 >= seconds):
            return ops, index


def check_ops(ops) -> None:
    from checks import Failure

    for op in ops:
        op.failures = [Failure(op.error)] if op.error else op.check(op.output)


def tally(ops) -> dict:
    unexpected = [op for op in ops if any(f.known is None for f in op.failures)]
    known = [op for op in ops if op.failures and op not in unexpected]
    return {"attempted": len(ops), "unexpected": unexpected, "known": known,
            "error_rate": (len(unexpected) + len(known)) / len(ops)}


def print_failures(t: dict) -> None:
    import checks

    for op in t["unexpected"][:10]:
        for f in op.failures[:3]:
            print(f"  FAILED {f.message}")
    seen = set()
    for op in t["known"]:
        for f in op.failures:
            if f.known not in seen:
                seen.add(f.known)
                print(f"  known defect {f.known}: {checks.KNOWN_DEFECTS[f.known]}; e.g. {f.message}")


def end_to_end(args, workload, workers: int, tmp: Path) -> tuple[dict, dict, list]:
    from speed import SpeedLog

    setup = measure_setup(args.workload, args.seed, tmp, workers)
    workload.warmup()
    speed = SpeedLog(workload.probe_kinds)
    ops, cycles = run_ops(workload, seconds=args.seconds, speed=speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # blocks of whole cycles, each scaled by the probes taken while it ran
    per_block = max(1, cycles // BLOCKS)
    blocks: dict[int, list] = {}
    for op in ops:
        blocks.setdefault(min(op.cycle // per_block, BLOCKS - 1), []).append(op)
    factors, rates, p50s, adjusted = [], [], [], []
    for block in blocks.values():
        f = speed.factor(block[0].start_s, block[-1].start_s + block[-1].wall_s)
        lat = [op.wall_s * 1e3 * f for op in block]
        factors.append(f)
        rates.append(sum(op.units for op in block if op.error is None) / sum(op.wall_s for op in block) / f)
        p50s.append(statistics.median(lat))
        adjusted += lat
    p99 = statistics.quantiles(adjusted, n=100, method="inclusive")[98]
    metrics = {
        "setup_s": statistics.median(setup),
        "units_per_s": statistics.median(rates),
        "call_p50_ms": statistics.median(p50s),
        "call_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb,
    }
    check_ops(ops)
    latencies = [op.wall_s * 1e3 for op in ops]
    units = sum(op.units for op in ops if op.error is None)
    busy = sum(op.wall_s for op in ops)
    scaled = (f"median over {len(blocks)} blocks of {per_block}+ cycles, speed factors "
              + "/".join(f"{f:.3f}" for f in factors) + f" from {len(speed.probes)} {'+'.join(speed.kinds)} probes")
    detail = {
        "setup_s": f"median of {len(setup)} fresh processes: " + ", ".join(f"{s:.3f}" for s in setup),
        "units_per_s": f"{scaled}; raw {units / busy:.6g}: {units} {workload.inputs()['unit']}s in {busy:.3f} s "
                       f"of calls, {cycles} cycles",
        "call_p50_ms": f"{scaled}; raw {statistics.median(latencies):.6g} over {len(latencies)} calls",
        "call_p99_ms": f"pooled over {len(adjusted)} scaled calls, {sum(l > p99 for l in adjusted)} beyond p99; "
                       f"raw {statistics.quantiles(latencies, n=100, method='inclusive')[98]:.6g}",
        "peak_rss_mb": "ru_maxrss of this process at the end of the timed region",
    }
    return metrics, detail, ops


def per_layer(args, workload, workers: int, tmp: Path) -> tuple[dict, dict, list]:
    from tracing import Tracer, layer_metrics

    workload.warmup()
    cycles = max(1, round(args.seconds * workload.trace_cycles_per_10s / 10))
    # the --workers 1 replays run right after each call, so a speed-up compares
    # two timings taken while the machine ran at the same speed
    plain, _ = run_ops(workload, cycles=cycles, after=True)
    plain_wall = sum(op.wall_s for op in plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_ops(workload, cycles=cycles)
    finally:
        tracer.uninstall()
    traced_wall = sum(op.wall_s for op in traced)
    check_ops(plain)
    check_ops(traced)
    metrics = layer_metrics(tracer.spans)
    metrics["divergence.chisq_density.ref_failures"] = sum(
        len(op.failures) for op in traced if op.kind == "chisq_density")
    parallel = workload.name == "mc_parallel"
    for scenario in PARALLEL_SCENARIOS:
        replayed = [op for op in plain if op.kind == scenario and op.replay_s is not None] if parallel else []
        metrics[f"sim.parallel_speedup.{scenario}"] = (
            sum(op.replay_s for op in replayed) / sum(op.wall_s for op in replayed) if replayed else 0.0)
    metrics["sim.pool_utilization"] = (
        sum(op.cpu_s for op in plain) / sum(op.wall_s * workers for op in plain) if parallel else 0.0)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    detail = {"trace.overhead_frac": f"{cycles} cycles: untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s, "
                                     f"{len(tracer.spans)} spans"}
    if parallel:
        detail["sim.pool_utilization"] = f"process CPU time / (wall x {workers} workers) over the untraced calls"
    return metrics, detail, plain + traced


def run_one(args) -> int:
    if not (SRC / "gofevid" / "__init__.py").is_file():
        print(f"error: gofevid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gofevid
    import numpy
    import scipy

    if SRC not in Path(gofevid.__file__).resolve().parents:
        print(f"error: imported gofevid from {gofevid.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workers = nproc()
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp / "work", workers)
        measure = per_layer if args.trace else end_to_end
        try:
            metrics, detail, ops = measure(args, workload, workers, tmp)
        except Exception as exc:
            print(f"error: benchmark could not run or check its outputs: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            tmp.parent.rmdir()

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": workers, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "gofevid": gofevid.__version__, "git_commit": git_commit(),
        "src_sha256": src_digest(), "platform": platform.platform(), "inputs": workload.inputs(),
    }
    t = tally(ops)
    print(f"# gofevid benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>16.6g} {m['unit']:<6} {detail.get(m['name'], '')}")
    print(f"{'error_rate':<48} {t['error_rate']:>16.6g} {'ratio':<6} {len(t['unexpected']) + len(t['known'])} of "
          f"{t['attempted']} operations failed a check: {len(t['unexpected'])} unexpected, "
          f"{len(t['known'])} known defect")
    print_failures(t)
    print(json.dumps({"correct": not t["unexpected"], "attempted": t["attempted"],
                      "failed": len(t["unexpected"]), "metrics": result}), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
