"""The benchmark's own tests: every output check rejects a corrupted output.

Each workload runs one round of the quick profile; the tests then corrupt one
output at a time and require the workload's check to raise ``CheckFailed``.
The last tests run the whole quick profile through the command line.

    python3 -m pytest bench/tests -q
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import workloads
from workloads import CheckFailed

RUN = Path(workloads.BENCH_DIR) / "run.py"


def one_round(name, workdir):
    wl = workloads.make(name, 7, "quick", workdir)
    wl.build()
    for part in wl.part_names:
        wl.run_part(part)
    wl.check()
    return wl


@pytest.fixture(scope="module")
def qubit():
    return one_round("qubit-ensemble", None)


@pytest.fixture(scope="module")
def cavity():
    return one_round("cavity-scaling", None)


@pytest.fixture(scope="module")
def conversions():
    return one_round("rep-conversions", None)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return one_round("cli-commands", tmp_path_factory.mktemp("cli"))


def fails(wl, part, ens=None, mean=None):
    """Run the workload's check with one part's output replaced; expect a failure."""
    saved = wl.out[part]
    old_ens, old_mean = saved
    wl.out[part] = (old_ens if ens is None else ens, old_mean if mean is None else mean)
    try:
        with pytest.raises(CheckFailed):
            wl.check()
    finally:
        wl.out[part] = saved


def with_snapshots(ens, snaps):
    return dataclasses.replace(ens, snapshots=snaps)


# --------------------------------------------------------------------------- qubit


def test_qubit_non_hermitian_snapshot(qubit):
    ens, _ = qubit.out["nonlinear"]
    snaps = ens.snapshots.copy()
    snaps[-1, 0, 0, 1] += 1e-6
    fails(qubit, "nonlinear", ens=with_snapshots(ens, snaps))


def test_qubit_trace_defect(qubit):
    ens, _ = qubit.out["linear"]
    snaps = ens.snapshots * (1 + 1e-9)
    fails(qubit, "linear", ens=with_snapshots(ens, snaps))


def test_qubit_population_off_decay(qubit):
    ens, _ = qubit.out["nonlinear"]
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    snaps = swap @ ens.snapshots @ swap  # excited and ground populations exchanged
    fails(qubit, "nonlinear", ens=with_snapshots(ens, snaps))


def test_qubit_linear_disagrees_with_nonlinear(qubit):
    ens, _ = qubit.out["linear"]
    snaps = ens.snapshots.copy()
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    snaps[-1] = swap @ snaps[-1] @ swap  # final populations exchanged, sigma_z reversed
    fails(qubit, "linear", ens=with_snapshots(ens, snaps))


def test_qubit_noise_moments(qubit):
    ens, _ = qubit.out["nonlinear"]
    fails(qubit, "nonlinear", ens=dataclasses.replace(ens, noise=ens.noise + 3e-3))
    fails(qubit, "nonlinear", ens=dataclasses.replace(ens, noise=ens.noise * 1.2))


def test_qubit_mean_state_trace(qubit):
    _, mean = qubit.out["nonlinear"]
    fails(qubit, "nonlinear", mean=mean * 1.01)


# --------------------------------------------------------------------------- cavity


def test_cavity_photon_number_not_decaying(cavity):
    ens, _ = cavity.out["d8"]
    rho0 = cavity.cases["d8"]["rho0"]
    snaps = ens.snapshots.copy()
    snaps[-1] = rho0  # every trajectory frozen at the initial state
    fails(cavity, "d8", ens=with_snapshots(ens, snaps))


def test_cavity_mean_state_far_from_reference(cavity):
    ens, mean = cavity.out["d32"]
    d = mean.shape[0]
    fails(cavity, "d32", mean=0.5 * mean + 0.5 * np.eye(d) / d)


def test_cavity_non_hermitian_snapshot(cavity):
    ens, _ = cavity.out["d32"]
    snaps = ens.snapshots.copy()
    snaps[1, 0, 2, 3] += 1e-6j
    fails(cavity, "d32", ens=with_snapshots(ens, snaps))


# --------------------------------------------------------------------------- reps


def corrupt(wl, part, mutate):
    saved = wl.out[part]
    wl.out[part] = mutate(copy.deepcopy(saved))
    try:
        with pytest.raises(CheckFailed):
            wl.check()
    finally:
        wl.out[part] = saved


def test_factorization_does_not_rebuild(conversions):
    def mutate(rows):
        brep, ortho, back = rows[3]
        rows[3] = (brep, ortho, dataclasses.replace(back, matrix=back.matrix * (1 + 1e-6)))
        return rows

    corrupt(conversions, "factorize", mutate)


def test_factorization_one_determinant_sign(conversions):
    def mutate(rows):
        return [(b, SimpleNamespace(matrix=o.matrix, det_sign=1), m) for b, o, m in rows]

    corrupt(conversions, "factorize", mutate)


def test_urep_constraint_broken(conversions):
    def mutate(out):
        mrows, brows = out
        u, t, polar, split = mrows[5]
        bad = u.matrix.copy()
        bad[0, -1] += 1e-6  # off-diagonal blocks no longer equal, U not symmetric
        mrows[5] = (dataclasses.replace(u, matrix=bad), t, polar, split)
        return mrows, brows

    corrupt(conversions, "convert", mutate)


def test_polar_factor_not_orthogonal(conversions):
    def mutate(out):
        mrows, brows = out
        u, t, (p, o, unique), split = mrows[-1]
        mrows[-1] = (u, t, (p, dataclasses.replace(o, matrix=o.matrix * 1.001), unique), split)
        return mrows, brows

    corrupt(conversions, "convert", mutate)


def test_brep_gram_wrong(conversions):
    def mutate(out):
        mrows, brows = out
        mb, ub = brows[-1]
        brows[-1] = (dataclasses.replace(mb, matrix=mb.matrix * 0.99), ub)
        return mrows, brows

    corrupt(conversions, "convert", mutate)


def test_brep_routes_disagree(conversions):
    def mutate(out):
        mrows, brows = out
        mb, ub = brows[0]
        ell = ub.matrix.shape[0] // 2
        swap = np.block([[np.zeros((ell, ell)), np.eye(ell)], [np.eye(ell), np.zeros((ell, ell))]])
        brows[0] = (mb, dataclasses.replace(ub, matrix=swap @ ub.matrix @ swap))
        return mrows, brows

    corrupt(conversions, "convert", mutate)


# --------------------------------------------------------------------------- cli


def cli_fails(cli, path, edit):
    target = cli.workdir / path
    saved = target.read_bytes()
    target.write_bytes(edit(saved))
    try:
        with pytest.raises(CheckFailed):
            cli.check()
    finally:
        target.write_bytes(saved)


def test_cli_csv_row_missing(cli):
    cli_fails(cli, "sim/trajectories.csv", lambda b: b[: b.rstrip(b"\n").rfind(b"\n") + 1])


def test_cli_csv_header(cli):
    cli_fails(cli, "sim/trajectories.csv", lambda b: b.replace(b"purity", b"purty", 1))


def test_cli_autocorr_far_from_prediction(cli):
    def edit(raw):
        doc = json.loads(raw)
        doc["max_difference_over_stderr"] = 10.0
        return json.dumps(doc).encode()

    cli_fails(cli, "ac/autocorr.json", edit)


def test_cli_repeat_not_byte_identical(cli):
    cli_fails(cli, "sim/convergence.json", lambda b: b + b" ")


def test_cli_nonzero_exit(cli):
    saved = cli.out["autocorr"]
    cli.out["autocorr"] = subprocess.CompletedProcess(saved.args, 4, "", "validation error")
    try:
        with pytest.raises(CheckFailed):
            cli.check()
        assert cli.failed_ops() == 1
    finally:
        cli.out["autocorr"] = saved


# --------------------------------------------------------------------------- whole runs


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_quick_profile_all_workloads():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "3", "--seconds", "1",
         "--profile", "quick"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            entry = result["metrics"][f"{wl['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "qubit-ensemble", "--seed", "4", "--seconds", "1",
         "--profile", "quick", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["sme.traj_steps"]["value"] == 2 * 200 * 60
    assert result["metrics"]["sme.record_useful_ratio"]["value"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qubit-ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
