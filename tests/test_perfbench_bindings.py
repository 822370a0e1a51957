"""The benchmark's op clock and tracer wrap names the package binds
(`perfbench/tracing.py`); installing both and restoring them catches a
renamed or deleted binding in well under a millisecond, and a tiny run of
each training path under the clock catches a binding the wrappers cannot
reach (Tier-1 does not run `perfbench/smoke.py`)."""

import importlib.util
import sys
from pathlib import Path

import pytest

import tricl
import tricl.checkpoint  # noqa: F401  (loads every module the wrappers patch)
import tricl.cli  # noqa: F401
import tricl.experiments  # noqa: F401
from helpers import tiny_run_config
from test_tuning import build_dataset
from tricl.optim import AdamW
from tricl.templates import LABEL_TEMPLATE_TEXT

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


def _trainer_losses(dataset, config):
    _, lines = tricl.trainer.train(dataset, config, LABEL_TEMPLATE_TEXT)
    return [float(line.split()[1].removeprefix("mean_loss=")) for line in lines]


@pytest.mark.parametrize(
    "run, samples, tolerance",
    [
        (lambda ds, config: tricl.tuning.encoder_tune(None, ds, config)[1], 4, 0.0),
        (lambda ds, config: tricl.tuning.multilabel_baseline(ds, config)[1], None, 0.0),
        (_trainer_losses, 4, 5e-7),  # the log line rounds to 6 decimals
    ],
    ids=["encoder_tune", "multilabel_baseline", "trainer_train"],
)
def test_op_clock_times_every_step_and_sees_every_epoch(monkeypatch, run, samples, tolerance):
    # a loss bound at definition time (say, as a default argument) or an epoch
    # loop reached through a binding the clock does not wrap would leave it blind
    tracing = load_tracing(monkeypatch)
    steps = []
    step = AdamW.step
    monkeypatch.setattr(AdamW, "step", lambda self: steps.append(self) or step(self))
    clock, patches = tracing.OpClock(probe_ops=False), tracing.Patches()
    clock.install(patches, tricl)
    try:
        trace = run(build_dataset(), tiny_run_config(epochs=2))
    finally:
        patches.restore()
    assert len(clock.ops) == len(steps) == 2 * 2  # 8 samples in batches of 4, 2 epochs
    if samples is not None:  # the bench counts the samples of the losses it wraps
        assert [op.samples for op in clock.ops] == [samples] * len(steps)
    assert trace == pytest.approx(clock.epoch_losses, rel=0, abs=tolerance)
