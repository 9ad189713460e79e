import json

import numpy as np
import pytest

from diffmon.cli import main
from diffmon.serialize import load_rep, model_payload, rep_payload, RepFile
from diffmon import OrthoMatrix, brep_o_to_mrep, heterodyne_mrep

from conftest import decay_model


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
    ortho = OrthoMatrix(np.array(o_data["matrix"]), o_data["det_sign"])
    rec = brep_o_to_mrep(brep_file.rep, ortho, hbar=brep_file.hbar)
    want = np.array(m_payload["matrix"])
    want = want[..., 0] + 1j * want[..., 1]
    assert np.max(np.abs(rec.matrix - want)) <= 1e-8
    assert o_data["det_sign"] == -1


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


def test_simulate_rejects_scale_mismatch(het_file, tmp_path):
    model = decay_model(rabi=1.0, hbar=2.0)
    path = tmp_path / "model2.json"
    path.write_text(json.dumps(model_payload(model)))
    args = [
        "simulate", "--model", str(path), "--rep", str(het_file),
        "--dt", "0.01", "--steps", "5", "--ntraj", "2", "--out", str(tmp_path / "x"),
    ]
    assert main(args) == 4


def test_simulate_with_initial_state_file(het_file, model_file, tmp_path):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}))
    out = tmp_path / "runinit"
    args = [
        "simulate", "--model", str(model_file), "--rep", str(het_file),
        "--init", str(init), "--dt", "0.005", "--steps", "10", "--ntraj", "2",
        "--out", str(out),
    ]
    assert main(args) == 0


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


def test_autocorr_rejects_bad_lags(het_file, model_file, tmp_path):
    args = [
        "autocorr", "--model", str(model_file), "--rep", str(het_file),
        "--dt", "0.01", "--steps", "50", "--ntraj", "4",
        "--lags", "abc", "--out", str(tmp_path / "x"),
    ]
    assert main(args) == 4


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
