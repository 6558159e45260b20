"""The benchmark harness's patch surface exists on the package.

perfbench/instrument.py's ``Probe`` (untraced runs) and ``Tracer`` (traced
runs) replace functions of bytemot's modules and classes by name, such as
``cli.iou_matrix_tlbr`` and ``ByteTracker.step``. A name either patches that
the package no longer has raises AttributeError when it installs. Here both
install and uninstall in-process, and every patched attribute must come back.
"""

import gc
import importlib.util
from pathlib import Path

import pytest

from bytemot import cli, geometry, kalman, metrics, mot_io, postprocess, tracker

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
OWNERS = (cli, geometry, metrics, mot_io, postprocess, tracker,
          tracker.ByteTracker, kalman.KalmanFilter)


def load_instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


@pytest.mark.parametrize("kind", ["Probe", "Tracer"])
def test_install_then_uninstall_restores_every_name(kind):
    before, callbacks = snapshot(), list(gc.callbacks)
    instrumentation = getattr(load_instrument(), kind)()
    instrumentation.install()
    try:
        assert tracker.ByteTracker.step is not before[OWNERS.index(tracker.ByteTracker)]["step"]
    finally:
        instrumentation.uninstall()
    after = snapshot()
    for owner, old, new in zip(OWNERS, before, after):
        changed = [name for name in old if new.get(name) is not old[name]]
        assert not changed, f"{owner.__name__}: {changed} not restored"
    assert gc.callbacks == callbacks
