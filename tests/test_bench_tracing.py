"""The benchmark's traced pass finds every function it wraps."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_wrap_point_resolves(monkeypatch):
    # bench/run.py --trace 1 patches these attributes by name; a rename in
    # the package would otherwise only show as an AttributeError there
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    points = tracing._wrap_points()
    assert points
    for owner, attr, name in points:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is missing"
