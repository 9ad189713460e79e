"""diffmon benchmark: one command, four workloads, end-to-end and per-layer figures.

Usage (from the repository root):

    python3 bench/run.py --workload qubit-ensemble --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --profile quick

Each run builds its inputs from ``--seed``, repeats whole rounds of the
workload's operations for about ``--seconds`` seconds, checks every round's
outputs, and prints one JSON object as its last line.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced rounds and reports the per-layer metrics, the tracing overhead, and
writes the spans to ``.bench_out/trace-<workload>.json``.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# The workloads' matrices are at most 32 x 32, where OpenBLAS does not split
# work anyway; one thread keeps a shared machine from being oversubscribed and
# is inherited by every CLI child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("qubit-ensemble", "cavity-scaling", "cli-commands", "rep-conversions")
SETUP_PROBES = 5
IMPORT_PROBES = 3
# Seconds the calibration kernel takes at the reference speed.  Timed parts
# are reported as their mean wall seconds (set-up as its median) scaled by
# CALIBRATION_REF_S / (mean kernel time in the same run).  On a shared
# machine the speed a process gets drifts by tens of percent from minute to
# minute; the kernel runs between parts, about CALIBRATION_SHARE of the time
# each part took, so both means see the same drift and their ratio does not.
CALIBRATION_REF_S = 0.05
CALIBRATION_SHARE = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "part_a_s": "s",
    "part_b_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("standard", "quick"), default="standard")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def machine() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def pin_to_current_cpu() -> int:
    """Keep this process and every child it starts on the CPU it is running on.

    The calibration kernel runs in this process, so it can only describe the
    speed the CLI children get if they share its CPU.
    """
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate(loops: int = 60) -> float:
    """Seconds for a fixed NumPy and Python kernel that does not touch diffmon.

    It mixes the kinds of work diffmon's workloads do (batched small complex
    matrix products, an einsum contraction, small eigenvalue problems and
    Python-level dict and JSON handling), so its duration tracks the speed
    the machine gives the benchmark at that moment.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=0))
    a = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
    cs = rng.normal(size=(1, 8, 8)) + 1j * rng.normal(size=(1, 8, 8))
    y = rng.normal(size=(16, 8, 8)) + 0j
    start = time.perf_counter()
    x = a.copy()
    for _ in range(loops):
        for _ in range(4):
            x = 0.5 * (x @ a + a.conj().swapaxes(-1, -2) @ x)
            x = x / np.abs(np.einsum("nii->n", x))[:, None, None]
            np.linalg.eigvalsh(x[:8] + x[:8].conj().swapaxes(-1, -2))
        y = np.einsum("kab,nbc,kdc->nad", cs, y, cs.conj()) * 0.01 + y
        doc = {f"k{j}": [float(v) for v in x[j, 0].real] for j in range(16)}
        json.loads(json.dumps(doc, sort_keys=True))
    return time.perf_counter() - start


def calibrate_for(seconds: float, samples: list) -> None:
    """Run the calibration kernel at least once and for about ``seconds``."""
    start = time.perf_counter()
    samples.append(calibrate())
    while time.perf_counter() - start < seconds:
        samples.append(calibrate())


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_child(cmd: list) -> float:
    import workloads

    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_probe(args) -> int:
    """Fresh interpreter: import diffmon and build the workload's inputs."""
    import workloads

    import diffmon  # noqa: F401

    if args.workload == "cli-commands":
        import diffmon.cli  # noqa: F401
    wl = workloads.make(args.workload, args.seed, args.profile, OUT / f"probe-{args.workload}")
    wl.build()
    return 0


def setup_seconds(name: str, seed: int, profile: str, cal: list) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--profile", profile]
    times = []
    for _ in range(SETUP_PROBES):
        cal.append(calibrate())
        times.append(timed_child(cmd))
    shutil.rmtree(OUT / f"probe-{name}", ignore_errors=True)
    return statistics.median(times)


def import_seconds() -> float:
    cmd = [sys.executable, "-c", "import diffmon.cli"]
    return statistics.median(timed_child(cmd) for _ in range(IMPORT_PROBES))


def rk4_share(wl, traced_round: float) -> float:
    """Estimated drift share of a round: public rk4_step on the batch, times its steps."""
    from diffmon import dynamics

    total = 0.0
    for model, ens in wl.ensembles():
        stack = ens.snapshots[-1]
        times = []
        for _ in range(5):
            start = time.perf_counter()
            dynamics.rk4_step(model, stack, ens.config.dt)
            times.append(time.perf_counter() - start)
        total += statistics.median(times) * ens.config.steps
    return 100.0 * total / traced_round


def linear_ess_ratio(wl) -> float:
    """Effective sample size over trajectories for the linear run, final time; 0 if none."""
    import numpy as np

    if "linear" not in wl.out:
        return 0.0
    ens, _ = wl.out["linear"]
    lw = ens.log_weight[:, -1]
    w = np.exp(lw - lw.max())
    return float(w.sum() ** 2 / np.sum(w**2) / w.size)


def run_workload(name: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    import tracing
    import workloads

    workdir = OUT / f"{name}-{seed}"
    cal = []
    setup_s = setup_seconds(name, seed, profile, cal)
    wl = workloads.make(name, seed, profile, workdir)
    wl.build()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if trace else None
    wl.tracer = tracer
    min_rounds = 2 if trace else 3
    rounds = {False: [], True: []}  # traced flag -> list of (round_s, parts)
    layer_rows = []
    attempted = failed = 0
    correct = True
    problem = ""
    last = {}
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        mark = len(tracer.spans)
        counters_before = dict(tracer.counters)
        tracer.active = traced
        parts = {}
        try:
            for part in wl.part_names:
                tracer.active = False
                calibrate_for(CALIBRATION_SHARE * last.get(part, 0.0), cal)
                tracer.active = traced
                p0 = time.perf_counter()
                wl.run_part(part)
                parts[part] = last[part] = time.perf_counter() - p0
        except Exception:
            tracer.active = False
            attempted += wl.ops_per_round()
            failed += wl.ops_per_round()
            correct = False
            problem = traceback.format_exc()
            break
        round_s = sum(parts.values())
        tracer.active = False
        attempted += wl.ops_per_round()
        failed += wl.failed_ops()
        rounds[traced].append((round_s, parts))
        if traced:
            delta = {
                key: value - counters_before.get(key, 0.0) for key, value in tracer.counters.items()
            }
            layer_rows.append(
                tracing.layer_metrics(tracer.spans[mark:], delta, round_s)
            )
        try:
            wl.check()
        except workloads.CheckFailed as exc:
            correct = False
            problem = f"output check failed: {exc}"
            break
        k += 1
        elapsed = time.perf_counter() - start
        done = len(rounds[False]) + len(rounds[True])
        typical = statistics.median(r[0] for r in rounds[False] + rounds[True])
        if done >= min_rounds and elapsed + typical > seconds:
            break
    if restore is not None:
        restore()

    result = {"correct": correct, "attempted": attempted, "failed": failed, "problem": problem}
    plain = rounds[False]
    if not correct or not plain:
        return result
    wall = {p: statistics.fmean(r[1][p] for r in plain) for p in wl.part_names}
    wall["round"] = statistics.fmean(r[0] for r in plain)
    speed = statistics.fmean(cal) / CALIBRATION_REF_S
    scaled = {p: v / speed for p, v in wall.items()}
    result["named"] = wl.named(scaled)
    result["wall"] = {
        "setup_s": setup_s,
        **{f"{p}_s": v for p, v in wall.items()},
        "calibration_s": statistics.fmean(cal),
        "calibrations": len(cal),
    }
    result["rounds"] = len(plain) + len(rounds[True])
    a, b = wl.part_names[:2]
    untraced_round = wall["round"]
    if not trace:
        values = {
            "setup_s": setup_s / speed,
            "peak_rss_mb": peak_rss_mb(),
            "round_s": scaled["round"],
            "part_a_s": scaled[a],
            "part_b_s": scaled[b],
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced_round = statistics.fmean(r[0] for r in rounds[True])
        layers = tracing.median_metrics(layer_rows)
        layers["trace.round_s"] = traced_round
        layers["trace.overhead_pct"] = 100.0 * (traced_round - untraced_round) / untraced_round
        layers["cli.import_s"] = import_seconds()
        layers["dynamics.rk4_step_pct"] = rk4_share(wl, traced_round)
        layers["stats.linear_ess_ratio"] = linear_ess_ratio(wl)
        units = per_layer_units()
        result["metrics"] = {k: {"value": layers[k], "unit": units[k]} for k in units}
        OUT.mkdir(exist_ok=True)
        tracer.dump(
            OUT / f"trace-{name}.json",
            {"workload": name, "seed": seed, "profile": profile, "machine": machine()},
        )
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(name: str, result: dict) -> None:
    print(f"workload {name}: {result.get('rounds', 0)} rounds,"
          f" {result['attempted']} operations attempted, {result['failed']} failed")
    for metric, value, unit in result.get("named", []):
        print(f"  {metric} = {value:.6g} {unit}")
    if "wall" in result:
        print("wall clock, unscaled: " + json.dumps(result["wall"], sort_keys=True))
    if result["problem"]:
        print(result["problem"].rstrip(), file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diffmon" / "__init__.py").is_file():
        print(f"error: no diffmon sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    info = machine()
    info["pinned_cpu"] = pin_to_current_cpu()
    print("machine: " + json.dumps(info, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.profile)
        report(name, results[name])
    if args.workload == "all":
        metrics = {
            f"{name}.{m}": v for name, r in results.items() for m, v in r.get("metrics", {}).items()
        }
    else:
        metrics = results[args.workload].get("metrics", {})
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
