"""The benchmark's op clock and tracer wrap names the package binds
(`perfbench/tracing.py`); installing both and restoring them catches a
renamed or deleted binding in well under a millisecond."""

import importlib.util
import sys
from pathlib import Path

import tricl
import tricl.checkpoint  # noqa: F401  (loads every module the wrappers patch)
import tricl.cli  # noqa: F401
import tricl.experiments  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_clock_and_tracer_install_on_the_package_and_restore(monkeypatch):
    tracing = load_tracing(monkeypatch)
    originals = {}  # (owner, attribute) -> the package's own object

    class Recording(tracing.Patches):
        def wrap(self, owner, attr, make_wrapper):
            originals.setdefault((id(owner), attr), (owner, attr, getattr(owner, attr)))
            super().wrap(owner, attr, make_wrapper)

    patches = Recording()
    clock = tracing.OpClock()
    try:
        clock.install(patches, tricl)
        tracing.Tracer(clock).install(patches, tricl)
        assert all(getattr(owner, attr) is not original for owner, attr, original in originals.values())
    finally:
        patches.restore()
    assert {(id(owner), attr) for owner, attr, _ in tracing.span_targets(tricl)} <= originals.keys()
    assert all(getattr(owner, attr) is original for owner, attr, original in originals.values())
