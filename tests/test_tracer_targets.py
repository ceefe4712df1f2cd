"""The benchmark's tracer (`perfbench/tracer.py`) wraps unipdec functions by
name, looking each one up in its module's or class's `__dict__`.  A renamed
or moved target would crash `perfbench/run.py --trace 1`; this test fails
first.  The tracer source is only read and executed, never imported as a
file, so nothing is written next to it.
"""

import importlib
import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for prefix, modname, attr, stats in targets:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        assert attr in owner.__dict__, f"{prefix}: no {attr} in {owner.__name__}"
        if "builds" in stats:
            # builds are read from the lru_cache statistics
            assert hasattr(owner.__dict__[attr], "cache_info"), prefix
