"""What the package ships, and that the benchmark's tracer still finds every
function its per-layer metrics read."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_builders_of_the_bundled_data_are_not_shipped():
    assert importlib.util.find_spec("stratval.datagen") is None


def test_every_traced_name_resolves(monkeypatch):
    """Each span name in bench/metrics.SPAN, and the LS lattice-point
    enumeration its hook counts, is wrapped when the tracer installs; a
    missing one would read None in a traced run."""
    monkeypatch.syspath_prepend(str(BENCH))
    metrics = importlib.import_module("metrics")
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        traced = set(tracer.names)
    finally:
        tracer.uninstall()
    wanted = set(metrics.SPAN.values()) | {"weyl.ls_lattice_points"}
    assert sorted(wanted - traced) == []


def test_every_span_and_hook_name_is_a_stratval_function(monkeypatch):
    """The names bench/metrics.py reads, the SPAN values and the keys its
    hooks install under, each name a function or method of `stratval`."""
    monkeypatch.syspath_prepend(str(BENCH))
    metrics = importlib.import_module("metrics")
    tracer = importlib.import_module("tracer").Tracer()
    metrics.install_hooks(tracer)
    names = set(metrics.SPAN.values()) | set(tracer.hooks)
    assert "weyl.ls_lattice_points" in names
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"stratval.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []
