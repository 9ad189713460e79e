"""In-memory span tracer that wraps diffmon's public functions from outside.

A span has a name, a start, an end and the span that was open when it began.
Wrappers replace the binding each caller uses (``diffmon.cli.load_rep`` for
the CLI, ``diffmon.stats.me_integrate`` for ``convergence_report``, the
``NoiseSource.draw_block`` method for the ensemble runner, ...), so nothing in
``src/`` changes.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Collects spans and per-span counters while ``active`` is true."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent]
        self.counters = defaultdict(float)
        self.active = False
        self._stack = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        if self.active:
            self.counters[key] += value

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(tracer, args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def extend(self, spans: list, parent: int | None) -> None:
        """Append spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for sid, name, start, end, par in spans:
            self.spans.append(
                [sid + offset, name, start, end, parent if par is None else par + offset]
            )

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["id", "name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                },
                fh,
            )


def _ensemble_counters(tracer: Tracer, args, kwargs, ens) -> None:
    arrays = {
        "currents": ens.currents,
        "noise": ens.noise,
        "purity": ens.purity,
        "log_weight": ens.log_weight,
        "snapshots": ens.snapshots,
    }
    total = sum(a.nbytes for a in arrays.values() if a is not None)
    # Log-weights carry information only in linear mode; in nonlinear mode the
    # array stays zero, so it counts as allocated but not asked for.
    useful = total - (ens.log_weight.nbytes if ens.config.mode == "nonlinear" else 0)
    tracer.add("sme.traj_steps", ens.n_traj * ens.steps)
    tracer.add("sme.record_bytes", total)
    tracer.add("sme.useful_bytes", useful)


def _draw_counters(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("noise.variates", result.size)


def _csv_counters(tracer: Tracer, args, kwargs, path) -> None:
    tracer.add("serialize.trajectory_csv_bytes", path.stat().st_size)


def install(tracer: Tracer):
    """Wrap every traced binding; returns a function that restores the originals."""
    from diffmon import cli, dynamics, linalg, noise, reps, serialize, sme, stats

    targets = [
        (noise.NoiseSource, "draw_block", "noise.draw_block", _draw_counters),
        (sme, "simulate_ensemble", "sme.simulate_ensemble", _ensemble_counters),
        (cli, "simulate_ensemble", "sme.simulate_ensemble", _ensemble_counters),
        (dynamics, "rk4_step", "dynamics.rk4_step", None),
        (stats, "me_integrate", "dynamics.me_integrate", None),
        (cli, "me_integrate", "dynamics.me_integrate", None),
        (cli, "predicted_autocorrelation", "dynamics.predicted_autocorrelation", None),
        (cli, "convergence_report", "stats.convergence_report", None),
        (cli, "autocorrelation_estimate", "stats.autocorrelation_estimate", None),
        (cli, "write_trajectory_csv", "serialize.trajectory_csv", _csv_counters),
        (cli, "write_report", "serialize.write", None),
        (cli, "write_manifest", "serialize.write", None),
        (cli, "write_json", "serialize.write", None),
        (cli, "load_model", "serialize.load", None),
        (cli, "load_rep", "serialize.load", None),
        (cli, "rep_to_mrep", "serialize.load", None),
        (cli, "fingerprint_model", "serialize.fingerprint", None),
        (cli, "fingerprint_rep", "serialize.fingerprint", None),
        # simulate_ensemble imports these two at call time from the module.
        (serialize, "fingerprint_model", "serialize.fingerprint", None),
        (serialize, "fingerprint_rep", "serialize.fingerprint", None),
        (reps, "mrep_to_brep_o", "reps.factorize", None),
        (cli, "mrep_to_brep_o", "reps.factorize", None),
        (reps, "brep_o_to_mrep", "reps.convert", None),
        (reps, "mrep_to_urep", "reps.convert", None),
        (reps, "mrep_to_trep", "reps.convert", None),
        (reps, "trep_polar", "reps.convert", None),
        (reps, "urep_split", "reps.convert", None),
        (reps, "brep_to_mrep", "reps.convert", None),
        (reps, "brep_to_urep", "reps.convert", None),
        (reps, "validate_mrep", "reps.validate", None),
        (reps, "validate_urep", "reps.validate", None),
        (reps, "validate_trep", "reps.validate", None),
        (reps, "validate_brep", "reps.validate", None),
        (reps, "polar_decompose", "linalg", None),
        (linalg, "positive_sqrt", "linalg", None),
        (linalg, "polar_decompose", "linalg", None),
        (linalg, "pseudo_inverse", "linalg", None),
        (serialize, "positive_sqrt", "linalg", None),
        (dynamics, "positive_sqrt", "linalg", None),
        (dynamics, "pseudo_inverse", "linalg", None),
        (sme, "positive_sqrt", "linalg", None),
    ]
    saved = []
    for owner, attr, name, after in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, after))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def span_times(spans: list) -> tuple[dict, dict, dict]:
    """Per-name inclusive seconds, self seconds and call counts.

    A span's self time is its duration minus the time its direct children
    cover.  Inclusive time counts only outermost spans of each name, so a
    name nested in itself is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for sid, name, start, end, parent in spans:
        if parent is not None and parent in by_id:
            child_time[parent] += end - start
    for sid, name, start, end, parent in spans:
        calls[name] += 1
        self_time[name] += (end - start) - child_time[sid]
        outer = True
        p = parent
        while p is not None and p in by_id:
            if by_id[p][1] == name:
                outer = False
                break
            p = by_id[p][4]
        if outer:
            inclusive[name] += end - start
    return inclusive, self_time, calls


def layer_metrics(spans: list, counters: dict, round_s: float) -> dict:
    """Per-layer figures for one traced round, as shares of its wall time."""
    inclusive, self_time, calls = span_times(spans)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / round_s

    return {
        "noise.draw_pct": pct(inclusive["noise.draw_block"]),
        "noise.draw_calls": calls["noise.draw_block"],
        "noise.variates": counters.get("noise.variates", 0.0),
        "sme.self_pct": pct(self_time["sme.simulate_ensemble"]),
        "sme.calls": calls["sme.simulate_ensemble"],
        "sme.traj_steps": counters.get("sme.traj_steps", 0.0),
        "sme.record_mb": counters.get("sme.record_bytes", 0.0) / 1e6,
        "sme.record_useful_ratio": (
            counters["sme.useful_bytes"] / counters["sme.record_bytes"]
            if counters.get("sme.record_bytes")
            else 1.0
        ),
        "dynamics.me_integrate_pct": pct(inclusive["dynamics.me_integrate"]),
        "dynamics.me_integrate_calls": calls["dynamics.me_integrate"],
        "dynamics.predicted_autocorrelation_pct": pct(
            inclusive["dynamics.predicted_autocorrelation"]
        ),
        "dynamics.predicted_autocorrelation_calls": calls["dynamics.predicted_autocorrelation"],
        "stats.convergence_report_self_pct": pct(self_time["stats.convergence_report"]),
        "stats.convergence_report_calls": calls["stats.convergence_report"],
        "stats.autocorrelation_estimate_pct": pct(inclusive["stats.autocorrelation_estimate"]),
        "stats.autocorrelation_estimate_calls": calls["stats.autocorrelation_estimate"],
        "serialize.trajectory_csv_pct": pct(inclusive["serialize.trajectory_csv"]),
        "serialize.trajectory_csv_mb": counters.get("serialize.trajectory_csv_bytes", 0.0) / 1e6,
        "serialize.write_pct": pct(inclusive["serialize.write"]),
        "serialize.write_calls": calls["serialize.write"],
        "serialize.load_pct": pct(inclusive["serialize.load"]),
        "serialize.load_calls": calls["serialize.load"],
        "serialize.fingerprint_pct": pct(inclusive["serialize.fingerprint"]),
        "serialize.fingerprint_calls": calls["serialize.fingerprint"],
        "reps.factorize_pct": pct(inclusive["reps.factorize"]),
        "reps.factorize_calls": calls["reps.factorize"],
        "reps.convert_pct": pct(inclusive["reps.convert"]),
        "reps.convert_calls": calls["reps.convert"],
        "reps.validate_pct": pct(inclusive["reps.validate"]),
        "reps.validate_calls": calls["reps.validate"],
        "linalg.pct": pct(inclusive["linalg"]),
        "linalg.calls": calls["linalg"],
        "cli.main_pct": pct(inclusive["cli.main"]),
        "cli.main_calls": calls["cli.main"],
    }


def median_metrics(rows: list) -> dict:
    return {k: float(np.median([r[k] for r in rows])) for k in rows[0]}
