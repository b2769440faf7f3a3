"""The traced benchmark run (perfbench/tracing.py) rebinds library functions
by name.  Every name it lists must resolve, so that renaming or deleting one
fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracing_target_resolves():
    # loaded by path, without install(): nothing is rebound
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) > 30
    for name, owner, attr, _ in tracing.TARGETS:
        assert attr in vars(owner), f"{name}: {owner.__name__} has no {attr!r}"
        assert callable(vars(owner)[attr]), name
