"""The benchmark's tracer finds every diffmon binding it wraps, and puts each one back.

``bench/tracing.py`` replaces bindings by name (``owner.__dict__[attr]``), so a
rename in ``src`` would stop a traced benchmark run with a ``KeyError``; this
test fails first.  It only reads ``bench/``.
"""

import importlib
from pathlib import Path

from diffmon import cli, dynamics, linalg, noise, reps, serialize, sme, stats

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
OWNERS = (cli, dynamics, linalg, noise, reps, serialize, sme, stats, noise.NoiseSource)


def test_tracer_wraps_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        changed = {
            (owner.__name__, attr)
            for owner, saved in zip(OWNERS, before)
            for attr, value in saved.items()
            if vars(owner)[attr] is not value
        }
        # The run's entry points and the CLI's manifest binding are among the wrapped.
        assert {("diffmon.cli", "write_manifest"), ("diffmon.sme", "simulate_ensemble")} <= changed
        assert ("NoiseSource", "draw_block") in changed
        assert not tracer.spans  # an inactive tracer records nothing
    finally:
        restore()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[attr] is value for attr, value in saved.items()), owner.__name__
