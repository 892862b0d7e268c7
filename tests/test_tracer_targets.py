"""The traced benchmark rebinds the functions that ``perfbench/tracer.py``
names in ``TARGETS``, by name; a target that no longer resolves breaks
``perfbench/run.py --trace 1``. The tracer uses only the standard library,
so its module is loaded straight from its file."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{module}.{func}" for module, func, *_ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"pathcover.{module}"),
                                func, None))]
    assert not missing, missing
