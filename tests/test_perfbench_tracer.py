"""The benchmark's tracer (``perfbench/tracer.py``) replaces functions by
name, each in the module or class that calls it (``PATCHES``).  A name
missing from its owner's ``__dict__`` makes every traced benchmark run fail;
this test makes a refactor that renames or drops one fail here instead."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_patched_name_exists_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    missing = [(owner.__name__, attr) for owner, attr, *_ in tracer.PATCHES
               if attr not in owner.__dict__]
    assert missing == []
