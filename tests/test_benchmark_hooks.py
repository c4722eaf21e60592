"""The benchmark's tracer looks gofevid functions up by name; a rename or a
deletion here would break ``perfbench/run.py --trace 1`` without failing any
other test."""

import importlib
import importlib.util
from pathlib import Path

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
