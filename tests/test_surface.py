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
