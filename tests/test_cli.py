import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffmon
from diffmon.cli import main
from diffmon.serialize import load_model, load_rep, model_payload, rep_payload, RepFile
from diffmon import LindbladModel, OrthoMatrix, brep_o_to_mrep, heterodyne_mrep, homodyne_mrep
from diffmon.reps import random_mrep

from conftest import SIGMA_M, SIGMA_X, decay_model, rng


@pytest.fixture
def het_file(tmp_path):
    path = tmp_path / "heterodyne.json"
    path.write_text(json.dumps(rep_payload(RepFile("mrep", heterodyne_mrep(1.0), 1.0))))
    return path


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(model_payload(decay_model(rabi=1.0))))
    return path


def test_validate_heterodyne(het_file, capsys):
    assert main(["validate", str(het_file)]) == 0
    assert capsys.readouterr().out.strip() == "mrep valid, eta=[1.0]"


def test_validate_reports_bad_field(tmp_path, capsys):
    path = tmp_path / "bad_brep.json"
    path.write_text(
        json.dumps(
            {
                "type": "brep",
                "hbar": 1.0,
                "L": 1,
                "eta": [1.0],
                "S": [[[1.0, 0.0]]],
                "theta": [1.5],
            }
        )
    )
    assert main(["validate", str(path)]) == 4
    assert "theta[0]" in capsys.readouterr().err


def test_validate_truncated_file(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"type": "mrep"')
    assert main(["validate", str(path)]) == 2


def test_validate_schema_error(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"type": "mrep", "hbar": 1.0, "L": 1}))
    assert main(["validate", str(path)]) == 3


def test_validate_bad_scalar_schema_error(tmp_path, het_file):
    payload = json.loads(het_file.read_text())
    for field, bad in (("L", "abc"), ("hbar", [1])):
        path = tmp_path / f"bad_{field}.json"
        path.write_text(json.dumps({**payload, field: bad}))
        assert main(["validate", str(path)]) == 3


def test_non_finite_entries_schema_error(tmp_path, het_file, model_file):
    # A null or NaN entry used to reach the eigenvalue solver (a traceback)
    # or the simulation (NaN purities written with exit code 0).
    urep = {"type": "urep", "hbar": 1.0, "L": 1, "matrix": [[None, 0.0], [0.0, 0.5]]}
    path = tmp_path / "nan_urep.json"
    path.write_text(json.dumps(urep))
    assert main(["validate", str(path)]) == 3
    model = json.loads(model_file.read_text())
    model["hamiltonian"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan_model.json"
    path.write_text(json.dumps(model))
    args = [
        "simulate", "--model", str(path), "--rep", str(het_file), "--dt", "0.01",
        "--steps", "2", "--ntraj", "2", "--out", str(tmp_path / "nan_run"),
    ]
    assert main(args) == 3


def test_convert_heterodyne_to_urep(het_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["convert", str(het_file), "--to", "urep", "--out", str(out)]) == 0
    written = out / "heterodyne_urep.json"
    data = json.loads(written.read_text())
    assert data["type"] == "urep"
    assert np.allclose(np.array(data["matrix"]), 0.5 * np.eye(2), atol=1e-12)
    load_rep(written)  # emitted files re-parse and re-validate


def test_convert_chain_reparses(het_file, tmp_path):
    out = tmp_path / "chain"
    assert main(["convert", str(het_file), "--to", "trep", "--out", str(out)]) == 0
    trep_path = out / "heterodyne_trep.json"
    assert main(["convert", str(trep_path), "--to", "mrep", "--out", str(out)]) == 0
    load_rep(out / "heterodyne_trep_mrep.json")


def test_factorize_roundtrip(tmp_path, capsys):
    m_payload = rep_payload(
        RepFile(
            "mrep",
            # generic single-channel matrix with a negative phase gap
            __import__("diffmon").MRep(0.6 * np.array([[np.exp(-1.2j), 1.0]]) / np.sqrt(2.0)),
            1.0,
        )
    )
    src = tmp_path / "m.json"
    src.write_text(json.dumps(m_payload))
    out = tmp_path / "fact"
    assert main(["factorize", str(src), "--out", str(out)]) == 0
    brep_file = load_rep(out / "m_brep.json")
    o_data = json.loads((out / "m_postprocessing.json").read_text())
    ortho = OrthoMatrix(np.array(o_data["matrix"]))
    rec = brep_o_to_mrep(brep_file.rep, ortho, hbar=brep_file.hbar)
    want = np.array(m_payload["matrix"])
    want = want[..., 0] + 1j * want[..., 1]
    assert np.max(np.abs(rec.matrix - want)) <= 1e-8
    assert o_data["det_sign"] == ortho.det_sign == -1


def test_factorize_rejects_brep_input(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(
        json.dumps(
            {"type": "brep", "hbar": 1.0, "L": 1, "eta": [1.0], "S": [[[1.0, 0.0]]], "theta": [0.5]}
        )
    )
    assert main(["factorize", str(path)]) == 4


def test_simulate_writes_artifacts(het_file, model_file, tmp_path, capsys):
    out = tmp_path / "run"
    args = [
        "simulate", "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.005", "--steps", "40", "--ntraj", "5", "--seed", "7",
        "--snapshot-stride", "20", "--out", str(out),
    ]
    assert main(args) == 0
    csv = (out / "trajectories.csv").read_text()
    assert csv.splitlines()[0] == "t,traj,y_1,y_2,purity,log_weight"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert set(manifest["inputs"]) == {"model", "rep"}
    assert len(manifest["inputs"]["model"]["fingerprint"]) == 64
    assert (out / "convergence.json").exists()
    assert (out / "convergence_trace_distance.csv").exists()
    assert (out / "convergence_dw_mean.csv").exists()
    assert (out / "convergence_dw_covariance.csv").exists()

    # Re-running into a fresh directory reproduces the artifacts byte for byte.
    out2 = tmp_path / "run2"
    args2 = args[:-1] + [str(out2)]
    assert main(args2) == 0
    assert (out2 / "trajectories.csv").read_bytes() == (out / "trajectories.csv").read_bytes()
    assert (out2 / "convergence.json").read_bytes() == (out / "convergence.json").read_bytes()


def test_simulate_accepts_brep_input(model_file, tmp_path):
    brep_path = tmp_path / "split.json"
    brep_path.write_text(
        json.dumps(
            {"type": "brep", "hbar": 1.0, "L": 1, "eta": [0.9], "S": [[[1.0, 0.0]]], "theta": [0.5]}
        )
    )
    out = tmp_path / "brun"
    args = [
        "simulate", "--model", str(model_file), "--rep", str(brep_path),
        "--dt", "0.005", "--steps", "10", "--ntraj", "3", "--out", str(out),
    ]
    assert main(args) == 0
    assert (out / "trajectories.csv").exists()


def test_simulate_rejects_scale_mismatch(het_file, tmp_path, capsys):
    model = decay_model(rabi=1.0, hbar=2.0)
    path = tmp_path / "model2.json"
    path.write_text(json.dumps(model_payload(model)))
    for command, extra in (("simulate", []), ("autocorr", ["--lags", "0.02"])):
        args = [
            command, "--model", str(path), "--rep", str(het_file), *extra,
            "--dt", "0.01", "--steps", "5", "--ntraj", "2", "--out", str(tmp_path / command),
        ]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err == (
            "validation error: model and measurement matrix carry different scales: 2.0 vs 1.0\n"
        )
        assert not (tmp_path / command).exists()


def test_simulate_rejects_channel_mismatch(model_file, tmp_path, capsys):
    path = tmp_path / "two_channels.json"
    path.write_text(json.dumps(rep_payload(RepFile("mrep", random_mrep(rng(5), 2), 1.0))))
    args = [
        "simulate", "--model", str(model_file), "--rep", str(path),
        "--dt", "0.01", "--steps", "5", "--ntraj", "2", "--out", str(tmp_path / "x"),
    ]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err == "validation error: measurement matrix has 2 channels, model has 1\n"
    assert not (tmp_path / "x").exists()


def test_simulate_with_initial_state_file(het_file, model_file, tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}))
    out = tmp_path / "runinit"
    args = [
        "simulate", "--model", str(model_file), "--rep", str(het_file),
        "--init", str(init), "--dt", "0.005", "--steps", "10", "--ntraj", "2",
        "--out", str(out),
    ]
    assert main(args) == 0
    capsys.readouterr()
    for doc, want in (
        ({"rho": [[[1.0, 0.0]]]}, "initial-state file must carry a 'state' matrix"),
        ({"state": [[[1.0, 0.0]]]}, "initial state must be 2 x 2, got (1, 1)"),
    ):
        init.write_text(json.dumps(doc))
        assert main([*args[:-1], str(tmp_path / "bad")]) == 3
        assert capsys.readouterr().err == f"schema error: {want}\n"
    assert not (tmp_path / "bad").exists()


def test_autocorr_writes_tables(het_file, model_file, tmp_path):
    out = tmp_path / "ac"
    args = [
        "autocorr", "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.01", "--steps", "200", "--ntraj", "40", "--seed", "3",
        "--lags", "0.05,0.1", "--out", str(out),
    ]
    assert main(args) == 0
    data = json.loads((out / "autocorr.json").read_text())
    assert data["lag_times"] == [0.05, 0.1]
    assert (out / "autocorr_estimated.csv").exists()
    assert (out / "autocorr_predicted.csv").exists()
    est_lines = (out / "autocorr_estimated.csv").read_text().splitlines()
    assert est_lines[0] == "lag,row,col,value,stderr"
    assert len(est_lines) == 1 + 2 * 4


def test_autocorr_keeps_no_noise_or_purity_record(het_file, model_file, tmp_path, monkeypatch):
    # The estimate reads the currents alone, but the run also stored the noise increments
    # and purities: 5 floats per trajectory-step at J = 2 where 2 are read; and about fifty
    # state snapshots, none of them read.
    from diffmon import cli

    run, ensembles = cli.simulate_ensemble, []

    def recorded(*args, **kwargs):
        ensembles.append(run(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(cli, "simulate_ensemble", recorded)
    args = [
        "autocorr", "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.01", "--steps", "100", "--ntraj", "4", "--seed", "3",
        "--lags", "0.05", "--out", str(tmp_path / "ac"),
    ]
    assert main(args) == 0
    (ens,) = ensembles
    assert ens.noise is None and ens.purity is None
    assert ens.currents.shape == (4, 100, 2)
    assert ens.snapshot_steps.tolist() == [0, 100]  # the grid every run stores


def test_snapshot_stride_is_a_simulate_option(het_file, model_file, tmp_path, capsys):
    args = [
        "autocorr", "--model", str(model_file), "--rep", str(het_file), "--dt", "0.01",
        "--steps", "50", "--ntraj", "4", "--lags", "0.1", "--snapshot-stride", "5",
    ]
    with pytest.raises(SystemExit) as info:
        main([*args, "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert "unrecognized arguments: --snapshot-stride 5" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_autocorr_at_huge_hbar_predicts_the_unit_hbar_table(tmp_path, capsys):
    # The prediction came scaled by hbar**2 and was divided back with Python's **, which
    # raised OverflowError past hbar = 1.34e154.  The README decay documents, with H scaled
    # by hbar and c and M by sqrt(hbar), describe the same currents at every hbar.
    tables = []
    for hbar in (1.0, 1e200):
        root, files = np.sqrt(hbar), {}
        model = LindbladModel(0.5 * hbar * SIGMA_X, root * SIGMA_M[None], hbar=hbar)
        payloads = {"model": model_payload(model),
                    "rep": rep_payload(RepFile("mrep", heterodyne_mrep(1.0, hbar), hbar))}
        for name, payload in payloads.items():
            files[name] = tmp_path / f"{name}_{hbar:g}.json"
            files[name].write_text(json.dumps(payload))
        out = tmp_path / f"ac_{hbar:g}"
        args = [
            "autocorr", "--model", str(files["model"]), "--rep", str(files["rep"]),
            "--dt", "0.01", "--steps", "40", "--ntraj", "4", "--seed", "3",
            "--lags", "0.05,0.1", "--out", str(out),
        ]
        assert main(args) == 0
        assert "Traceback" not in capsys.readouterr().err
        tables.append(np.loadtxt(out / "autocorr_predicted.csv", delimiter=",", skiprows=1))
    assert np.isfinite(tables[1]).all()
    assert np.max(np.abs(tables[1] - tables[0])) <= 1e-12 * np.max(np.abs(tables[0]))


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_check_refuses_a_seed_outside_64_bits(seed, tmp_path, capsys):
    # The suite ran on such a seed and failed three rows on a ValidationError (exit 1).
    out = tmp_path / "checks"
    assert main(["check", "--seed", seed, "--out", str(out)]) == 4
    want = "validation error: base_seed must fit in an unsigned 64-bit integer\n"
    assert capsys.readouterr() == ("", want)
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "autocorr"])
def test_run_commands_fingerprint_the_model_once(
    command, het_file, model_file, tmp_path, monkeypatch
):
    # The CLI fingerprints the model once, for the manifest; no other layer does.
    import diffmon.cli as cli
    import diffmon.serialize as serialize

    calls = []
    real_fingerprint = serialize.fingerprint_model

    def counted(model):
        calls.append(model)
        return real_fingerprint(model)

    monkeypatch.setattr(serialize, "fingerprint_model", counted)
    monkeypatch.setattr(cli, "fingerprint_model", counted)
    out = tmp_path / command
    args = [
        command, "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.01", "--steps", "20", "--ntraj", "4", "--seed", "3", "--out", str(out),
    ]
    assert main(args + (["--lags", "0.05"] if command == "autocorr" else [])) == 0
    assert len(calls) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"]["model"]["fingerprint"] == real_fingerprint(load_model(model_file))


@pytest.mark.parametrize("command", ["simulate", "autocorr"])
@pytest.mark.parametrize(
    "entry, message",
    [
        (1e150, "error: trajectory 0, step 1: non-finite trace nan"),
        (1e200, "validation error: the model's rates sum_k c_k^dag c_k are not finite"),
    ],
    ids=["1e150", "1e200"],
)
def test_run_commands_name_huge_lindblad_entries(
    command, entry, message, het_file, tmp_path, capsys
):
    # A 1e150 entry ended in an OverflowError traceback (exit 1) at the purity ceiling,
    # and a 1e200 one warned on overflow before its NaN trace.
    path = tmp_path / "huge.json"
    model = diffmon.LindbladModel(hamiltonian=0.5 * SIGMA_X, lindblads=entry * SIGMA_M)
    path.write_text(json.dumps(model_payload(model)))
    args = [
        command, "--model", str(path), "--rep", str(het_file), "--dt", "0.01",
        "--steps", "20", "--ntraj", "2", "--out", str(tmp_path / "out"),
    ]
    assert main(args + (["--lags", "0.05"] if command == "autocorr" else [])) == 4
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("command", ["simulate", "autocorr"])
@pytest.mark.parametrize("dt", ["1e74", "1e76"])
def test_run_commands_name_a_non_finite_normalized_state(command, dt, tmp_path, capsys):
    # A d = 4 Kerr cavity's normalized coordinates overflow while its traces stay finite and
    # positive: eigvalsh did not converge on them, a LinAlgError traceback (exit 1).
    a = np.diag(np.sqrt(np.arange(1.0, 4.0)), k=1)
    model, rep = tmp_path / "cavity.json", tmp_path / "rep.json"
    model.write_text(json.dumps(model_payload(LindbladModel(0.3 * (a.T @ a) ** 2, a))))
    rep.write_text(json.dumps(rep_payload(RepFile("mrep", heterodyne_mrep(0.8), 1.0))))
    args = [
        command, "--model", str(model), "--rep", str(rep), "--dt", dt, "--steps", "3",
        "--ntraj", "3", "--seed", "1", "--out", str(tmp_path / "out"),
    ]
    assert main(args + (["--lags", dt] if command == "autocorr" else [])) == 4
    message = "error: trajectory 0, step 2: normalized state of non-finite purity inf"
    assert capsys.readouterr().err.strip() == message


def test_autocorr_rejects_bad_lags(het_file, model_file, tmp_path, capsys):
    # -1 and 0 used to run with a one-step lag; nan, inf and 1e300 ended in a traceback
    # (exit 1).  A lag past the run's 0.5 time units has no pairs to estimate.  A lag off
    # the step grid used to be rounded to it, and lags on one step merged, without a word.
    span = "--lags must lie in (0, 0.5], the run's length; got "
    whole = "--lags must be whole multiples of --dt 0.01; got "
    cases = [("abc", None), ("-1", span + "-1.0"), ("0", span + "0.0"), ("nan", span + "nan"),
             ("0.1,inf", span + "inf"), ("0.1,1e400", span + "inf"), ("1e300", span + "1e+300"),
             ("0.2,0.6", span + "0.6"), (",", "--lags must name at least one positive lag time"),
             ("0.0001,0.012", whole + "0.0001"), ("0.013", whole + "0.013"),
             ("0.02,0.02", "--lags must fall on distinct steps of --dt; got 0.02,0.02"),
             ("0.01,0.010000000001",
              "--lags must fall on distinct steps of --dt; got 0.01,0.010000000001")]
    for lags, want in cases:
        args = [
            "autocorr", "--model", str(model_file), "--rep", str(het_file),
            "--dt", "0.01", "--steps", "50", "--ntraj", "4",
            "--lags", lags, "--out", str(tmp_path / "x"),
        ]
        assert main(args) == 4
        err = capsys.readouterr().err
        if want is not None:
            assert err == f"validation error: {want}\n"
    assert not (tmp_path / "x").exists()


def test_autocorr_rejects_a_single_trajectory(het_file, model_file, tmp_path, capsys):
    # One trajectory has no standard error: autocorr.json held Infinity, and
    # "max_difference_over_stderr": 0.0 claimed an agreement nothing measured.
    args = [
        "autocorr", "--model", str(model_file), "--rep", str(het_file), "--dt", "0.01",
        "--steps", "50", "--ntraj", "1", "--lags", "0.1", "--out", str(tmp_path / "x"),
    ]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err == "validation error: autocorr needs --ntraj of at least 2, got 1\n"
    assert not (tmp_path / "x").exists()


class _Simulated(Exception):
    """Raised in place of the ensemble run, to show that a command got that far."""


def test_autocorr_checks_burn_in_and_lag_window_before_simulating(
    het_file, model_file, tmp_path, capsys, monkeypatch
):
    # A burn-in outside [0, steps) and a lag with no pair left after the burn-in used to
    # fail only after the whole ensemble had run ("error: lag 30 leaves no pairs ...").
    from diffmon import cli

    def refuse(*args, **kwargs):
        raise _Simulated

    monkeypatch.setattr(cli, "simulate_ensemble", refuse)
    burn = "--burn-in must lie in [0, 50), below --steps; got "
    tail = "--lags must be under {} steps (--steps 50 minus burn-in {}); got {}"
    cases = [
        (["--lags", "0.1", "--burn-in", "-1"], burn + "-1"),
        (["--lags", "0.1", "--burn-in", "50"], burn + "50"),
        (["--lags", "0.1", "--burn-in", "60"], burn + "60"),
        (["--lags", "0.1,0.3"], tail.format(25, 25, 0.3)),
        (["--lags", "0.25"], tail.format(25, 25, 0.25)),
        (["--lags", "0.2", "--burn-in", "30"], tail.format(20, 30, 0.2)),
    ]
    run = [
        "autocorr", "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.01", "--steps", "50", "--ntraj", "4", "--out", str(tmp_path / "x"),
    ]
    for extra, want in cases:
        assert main(run + extra) == 4
        assert capsys.readouterr().err == f"validation error: {want}\n"
    assert not (tmp_path / "x").exists()
    # The last lag with a pair left, at the default and at the widest burn-in, gets through.
    for extra in (["--lags", "0.24"], ["--lags", "0.49", "--burn-in", "0"]):
        with pytest.raises(_Simulated):
            main(run + extra)


@pytest.mark.parametrize(
    "option, value, want",
    [
        ("--tol", "inf", "--tol must be finite and non-negative, got inf"),
        ("--tol", "nan", "--tol must be finite and non-negative, got nan"),
        ("--tol", "-1", "--tol must be finite and non-negative, got -1.0"),
        ("--hbar", "nan", "--hbar must be finite and positive, got nan"),
        ("--hbar", "inf", "--hbar must be finite and positive, got inf"),
        ("--hbar", "0", "--hbar must be finite and positive, got 0.0"),
        ("--hbar", "-2", "--hbar must be finite and positive, got -2.0"),
    ],
)
def test_commands_check_tol_and_hbar_before_reading(tmp_path, capsys, option, value, want):
    # --tol inf passed an M-rep of efficiency 9 as valid, and simulate ran it; --tol -1
    # blamed a valid document, and --hbar nan was reported as a schema error of the
    # document.  The documents named here do not exist: the option is refused first.
    rep, model, out = str(tmp_path / "rep.json"), str(tmp_path / "model.json"), tmp_path / "o"
    run = ["--model", model, "--rep", rep, "--dt", "0.01", "--steps", "50", "--ntraj", "4"]
    commands = [
        ["validate", rep],
        ["convert", rep, "--to", "urep", "--out", str(out)],
        ["factorize", rep, "--out", str(out)],
        ["simulate", *run, "--out", str(out)],
        ["autocorr", *run, "--lags", "0.1", "--out", str(out)],
    ]
    for command in commands:
        assert main([*command, option, value]) == 4
        assert capsys.readouterr().err == f"validation error: {want}\n"
    assert not out.exists()


def test_bad_hbar_is_refused_for_a_document_that_carries_its_own(het_file, capsys):
    # The document's hbar used to win, and the bad option was never looked at.
    assert main(["validate", str(het_file), "--hbar", "nan"]) == 4
    want = "validation error: --hbar must be finite and positive, got nan\n"
    assert capsys.readouterr().err == want


def test_run_commands_write_standard_json(het_file, model_file, tmp_path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    runs = [
        ("simulate", []), ("simulate", ["--mode", "linear"]), ("autocorr", ["--lags", "0.05,0.1"]),
    ]
    for i, (command, extra) in enumerate(runs):
        out = tmp_path / f"{command}{i}"
        args = [
            command, "--model", str(model_file), "--rep", str(het_file), "--dt", "0.01",
            "--steps", "40", "--ntraj", "2", "--seed", "5", "--out", str(out), *extra,
        ]
        assert main(args) == 0
        paths = sorted(out.glob("*.json"))
        assert len(paths) == 2  # the report and the manifest
        for path in paths:
            json.loads(path.read_text(), parse_constant=refuse)


def test_validate_other_kinds(tmp_path, capsys):
    urep_path = tmp_path / "u.json"
    urep_path.write_text(
        json.dumps({"type": "urep", "hbar": 1.0, "L": 1, "matrix": [[0.5, 0.0], [0.0, 0.5]]})
    )
    assert main(["validate", str(urep_path)]) == 0
    assert capsys.readouterr().out.strip() == "urep valid, eta=[1.0]"
    brep_path = tmp_path / "b.json"
    brep_path.write_text(
        json.dumps(
            {"type": "brep", "hbar": 1.0, "L": 1, "eta": [0.25], "S": [[[1.0, 0.0]]], "theta": [0.5]}
        )
    )
    assert main(["validate", str(brep_path)]) == 0
    assert capsys.readouterr().out.strip() == "brep valid, eta=[0.25]"


def test_simulate_linear_mode(het_file, model_file, tmp_path):
    out = tmp_path / "lin"
    args = [
        "simulate", "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.005", "--steps", "20", "--ntraj", "4", "--mode", "linear",
        "--out", str(out),
    ]
    assert main(args) == 0
    lines = (out / "trajectories.csv").read_text().splitlines()
    # linear runs carry nontrivial log-weights in the last column
    weights = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert weights != {"0"}


def test_write_failure_exit_code(het_file, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["convert", str(het_file), "--to", "urep", "--out", str(blocker)]) == 5


def test_check_deterministic_reports(tmp_path):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    assert main(["check", "--seed", "42", "--out", str(out1)]) == 0
    assert main(["check", "--seed", "42", "--out", str(out2)]) == 0
    r1 = (out1 / "check_report.json").read_bytes()
    r2 = (out2 / "check_report.json").read_bytes()
    assert r1 == r2


def test_simulate_beyond_memory_exits_4(het_file, model_file, tmp_path, capsys):
    args = [
        "simulate", "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.001", "--steps", "1000000", "--ntraj", "10000000",
        "--out", str(tmp_path / "big"),
    ]
    assert main(args) == 4
    assert "of physical memory" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize("mode", ["nonlinear", "linear"])
def test_simulate_with_a_stride_past_int64_runs_the_stride_of_steps(
    het_file, model_file, tmp_path, mode
):
    # A stride of 2^63 made np.arange return an object grid, and the convergence report
    # ended in an IndexError traceback (exit 1).  A stride past --steps gives the grid
    # [0, steps], the same run as --snapshot-stride 2 at --steps 2.
    outs = {}
    for stride in (2**63, 2):
        outs[stride] = tmp_path / str(stride)
        argv = [
            "simulate", "--model", str(model_file), "--rep", str(het_file), "--dt", "1e-3",
            "--steps", "2", "--ntraj", "2", "--mode", mode,
            "--snapshot-stride", str(stride), "--out", str(outs[stride]),
        ]
        assert main(argv) == 0
    names = sorted(p.name for p in outs[2].iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in outs[2**63].iterdir() if p.name != "manifest.json")
    for name in names:
        assert (outs[2**63] / name).read_bytes() == (outs[2] / name).read_bytes(), name
    config = diffmon.SimulationConfig(dt=1e-3, steps=2, n_traj=2, seed=0, snapshot_stride=2**63)
    grid = diffmon.simulate_ensemble(decay_model(), heterodyne_mrep(1.0), np.eye(2) / 2, config)
    assert grid.snapshot_steps.dtype.kind == "i" and grid.snapshot_steps.tolist() == [0, 2]


def test_simulate_sizes_the_snapshot_grid_before_making_it(het_file, model_file, tmp_path, capsys):
    # At stride 1 the grid of 10^12 steps (7.3 TiB) was made before the memory check, and its
    # allocation failed with a MemoryError traceback; the check now counts it first.
    args = [
        "simulate", "--model", str(model_file), "--rep", str(het_file), "--dt", "0.001",
        "--steps", str(10**12), "--ntraj", "2", "--snapshot-stride", "1",
        "--out", str(tmp_path / "big"),
    ]
    assert main(args) == 4
    assert "of physical memory" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()


def test_import_loads_no_scipy():
    # scipy.special alone took about 0.3 s of every command's start-up; only
    # `diffmon check` needs scipy, and imports it when it runs.
    env = dict(os.environ, PYTHONPATH=str(Path(diffmon.__file__).resolve().parents[1]))
    code = (
        "import sys, diffmon, diffmon.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_simulate_loads_no_scipy(het_file, model_file, tmp_path):
    # The manifest records scipy's version without importing scipy, which
    # cost about 13 ms of every `simulate` and `autocorr` run.  At d = 2 the
    # ensemble, autocorr's burn-in and its regression prediction all build
    # dense tables: only CSR tables, above d = 12, import scipy.sparse.
    from importlib.metadata import version

    env = dict(os.environ, PYTHONPATH=str(Path(diffmon.__file__).resolve().parents[1]))
    code = (
        "import sys; from diffmon.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    # A homodyne document exercises the rank test of the measured directions: numpy only.
    hom_file = tmp_path / "homodyne.json"
    hom_file.write_text(json.dumps(rep_payload(RepFile("mrep", homodyne_mrep(0.7, 0.4), 1.0))))
    runs = [
        ("simulate", het_file, []),
        ("autocorr", het_file, ["--lags", "0.01,0.02"]),
        ("simulate", hom_file, []),
        ("autocorr", hom_file, ["--lags", "0.01,0.02"]),
    ]
    for i, (command, rep_file, extra) in enumerate(runs):
        out = tmp_path / f"{command}{i}"
        argv = [
            command, "--model", str(model_file), "--rep", str(rep_file),
            "--dt", "0.005", "--steps", "20", "--ntraj", "2", "--out", str(out), *extra,
        ]
        run = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
            check=True,
        )
        assert run.stdout.splitlines()[-1] == "0 []"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == version("scipy")


def test_simulate_loads_no_numpy_ma(het_file, model_file, tmp_path):
    # The snapshot grid came from np.union1d, whose first call imports
    # numpy.ma: about 6 ms of every `simulate` and `autocorr` run.
    env = dict(os.environ, PYTHONPATH=str(Path(diffmon.__file__).resolve().parents[1]))
    argv = [
        "simulate", "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.005", "--steps", "4", "--ntraj", "2", "--out", str(tmp_path / "run"),
    ]
    code = (
        "import sys; from diffmon.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines()[-1] == "0 []"


def test_import_loads_no_self_checks():
    # Only `diffmon check` needs the self-checks module, and imports it when it runs.
    env = dict(os.environ, PYTHONPATH=str(Path(diffmon.__file__).resolve().parents[1]))
    code = "import sys, diffmon.cli; print('diffmon.checks' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_import_builds_no_csv_tables():
    # The trajectory CSV's formatter builds its tables at its first use, and
    # needs neither fractions nor decimal.
    env = dict(os.environ, PYTHONPATH=str(Path(diffmon.__file__).resolve().parents[1]))
    code = (
        "import sys, diffmon.cli; from diffmon import serialize; "
        "print(serialize._csv_tables.cache_info().currsize, "
        "'fractions' in sys.modules, 'decimal' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 False False"


def test_scipy_version_without_version_file(monkeypatch, tmp_path):
    # An install without scipy/version.py falls back to the package metadata.
    from importlib.machinery import ModuleSpec
    from importlib.metadata import version

    from diffmon import serialize

    spec = ModuleSpec("scipy", None, origin=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(serialize.importlib.util, "find_spec", lambda name: spec)
    assert serialize._scipy_version() == version("scipy")
