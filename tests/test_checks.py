import json

import numpy as np
import pytest

from diffmon import checks, linalg, sme
from diffmon.cli import main
from diffmon.errors import StateInvalidError

# The rows of `diffmon check`, in report order.
REPORT_ORDER = [
    "linalg.positive_sqrt_roundtrip",
    "linalg.polar_recomposition",
    "linalg.pinv_orthogonal_transpose",
    "reps.sufficiency_sweep",
    "reps.brep_route_equality",
    "reps.brep_gram_identity",
    "reps.factorization_roundtrip",
    "reps.polar_determinism",
    "reps.stacked_weight_identity",
    "dynamics.generator_traceless_hermitian",
    "dynamics.decay_analytic",
    "dynamics.regression_vs_exponential",
    "dynamics.diffusion_orthogonal_invariance",
    "dynamics.autocorrelation_symmetry",
    "sme.noise_completion_psd",
    "sme.step_trace_hermiticity",
    "sme.one_step_mean",
    "sme.purity_rate_monte_carlo",
    "sme.linear_martingale",
    "sme.brep_noise_blocks",
    "sme.ensemble_replay",
    "stats.initial_state",
    "stats.stderr_scaling",
    "stats.estimator_determinism",
]

UNSTABLE = "trajectory 346, step 180: min eigenvalue -3.022e-01 below -3.000e-01"


def _with_check(name, replacement):
    """The registry with the check ``name`` replaced, everything else in place."""
    return [(n, replacement if n == name else c) for n, c in checks.CHECKS]


def test_checks_are_registered_in_report_order():
    assert [name for name, _check in checks.CHECKS] == REPORT_ORDER


def test_nan_defect_fails_its_check(monkeypatch):
    # max(worst, nan) keeps worst: a NaN square root used to pass with error 0.00e+00.
    monkeypatch.setattr(linalg, "positive_sqrt", lambda b, tol=None: np.full_like(b, np.nan))
    assert checks.check_positive_sqrt_roundtrip(0) == (False, "max relative error nan")


def test_nan_defect_fails_a_two_metric_check(monkeypatch):
    monkeypatch.setattr(sme, "noise_completion", lambda m: np.full((2 * m.channels,) * 2, np.nan))
    passed, detail = checks.check_noise_completion_psd(0)
    assert not passed
    assert detail.startswith("worst PSD deficit 0.00e+00;")
    assert detail.endswith("; completion identity defect nan")


def test_raising_check_is_one_failed_row(monkeypatch, tmp_path, capsys):
    # A check that raised used to end `diffmon check` with exit 4 and no rows at all.
    def unstable(seed):
        raise StateInvalidError(UNSTABLE)

    monkeypatch.setattr(checks, "CHECKS", _with_check("stats.stderr_scaling", unstable))
    assert main(["check", "--seed", "0", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 26 and lines[-2] == "23/24 checks passed (seed 0)"
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL stats.stderr_scaling — StateInvalidError: {UNSTABLE}"
    ]
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not report["passed"]
    assert [row["name"] for row in report["results"]] == REPORT_ORDER
    assert [row["passed"] for row in report["results"]].count(False) == 1


def test_other_exceptions_propagate(monkeypatch):
    def broken(seed):
        raise RuntimeError("not a toolkit error")

    monkeypatch.setattr(checks, "CHECKS", [("broken", broken)])
    with pytest.raises(RuntimeError, match="not a toolkit error"):
        checks.run_all_checks(0)
