"""The traced benchmark wraps skqe names from outside the package; a rename
there must fail here rather than in ``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

from skqe import algebra, autodiff, evaluation, model, oracle, training
from skqe.model import ForwardContext

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (oracle, algebra, autodiff, training, training.Adam, evaluation, model, ForwardContext)


def test_instrument_wraps_current_names_and_stop_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer_mod = importlib.import_module("tracer")
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracer_mod.Tracer()
    try:
        layers.instrument(tracer)  # AttributeError on a name that no longer exists
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert any(owner is o for o in OWNERS), (owner, attr)
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.stop()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[name] is value for name, value in saved.items()), owner
