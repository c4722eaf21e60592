"""The benchmark's tracer looks gofevid functions up by name; a rename or a
deletion here would break ``perfbench/run.py --trace 1`` without failing any
other test."""

import importlib
import importlib.util
from pathlib import Path

from gofevid.pearson import MIN_POWER_REPS

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines SPANS and Tracer; installs nothing
    return module


def test_traced_functions_exist():
    tracing = _load_tracing()
    missing = [f"{module}.{name}" for module, name, _, _ in tracing.SPANS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_patched_class_members_exist():
    from gofevid.dist import RandomStream
    from gofevid.pearson import CellData

    assert isinstance(RandomStream.__dict__.get("gen"), property)
    assert "__post_init__" in CellData.__dict__


# smallest --reps SimConfig accepts (multinomial_power_mc's floor for table1_models)
SMALLEST_REPS = {"table1_models": MIN_POWER_REPS}


def test_traced_simulate_runs_every_scenario(tmp_path):
    # the traced benchmark run wraps gofevid's functions and RandomStream.gen;
    # every scenario must still run under it, on the pool path too
    from gofevid import cli, sim
    from gofevid.dist import RandomStream

    tracing = _load_tracing()
    gen = RandomStream.__dict__["gen"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = {scenario: cli.main(["simulate", "--scenario", scenario,
                                     "--reps", str(SMALLEST_REPS.get(scenario, 100)),
                                     "--workers", "2", "--out", str(tmp_path)])
                 for scenario in sim.SCENARIOS}
    finally:
        tracer.uninstall()
    assert codes == dict.fromkeys(sim.SCENARIOS, 0)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.main.count"] == len(sim.SCENARIOS)
    assert metrics["cli.main.nonzero_exits"] == 0
    assert RandomStream.__dict__["gen"] is gen
