import itertools
import json

import numpy as np
import pytest

from diffmon import checks, dynamics, linalg, reps, sme
from diffmon.cli import main
from diffmon.errors import StateInvalidError
from diffmon.noise import NoiseSource
from diffmon.reps import MRep

from conftest import EXCITED, decay_model

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

ONE_STEP_ROWS = ["sme.one_step_mean", "sme.purity_rate_monte_carlo", "sme.linear_martingale"]

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


def _quantities():
    """The one-step quantities the exact rows average: (model, M-rep, rho0, dt, f, linear)."""
    plus = np.full((2, 2), 0.5, dtype=complex)

    def rate(out, tr, w):
        return (np.real(np.einsum("nab,nba->n", out, out)) - 1.0) / 1e-4

    cases = [(decay_model(rabi=1.0), reps.heterodyne_mrep(0.8), EXCITED, 1e-3,
              lambda out, tr, w: out.reshape(len(out), -1), False)]
    for m in (reps.heterodyne_mrep(1.0), reps.homodyne_mrep(0.5), MRep(np.zeros((1, 2)))):
        cases.append((decay_model(), m, EXCITED, 1e-4, rate, False))
    homodyne = reps.homodyne_mrep(0.8)
    cases.append((decay_model(rabi=1.0), homodyne, plus, 1e-3, lambda out, tr, w: tr, True))
    cases.append((decay_model(rabi=1.0), homodyne, plus, 1e-3,
                  lambda out, tr, w: w * tr[:, None] / 1e-3, True))
    return cases


def _steps_at(model, m, rho0, dt, w, linear):
    rho = np.broadcast_to(rho0, (len(w), *rho0.shape))
    return sme._step_states(dynamics._measured_engine(model, m), rho, w, dt, linear)


def _three_point_mean(model, m, rho0, dt, f, linear):
    """The mean of f at the tensor product of the 3-point Gauss-Hermite rule."""
    j = 2 * m.channels
    w = np.sqrt(3.0 * dt) * np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=j)))
    weights = np.prod(list(itertools.product((1 / 6, 2 / 3, 1 / 6), repeat=j)), axis=1)
    out, tr, _cur = _steps_at(model, m, rho0, dt, w, linear)
    return np.tensordot(weights, f(out, tr, w), axes=1)


@pytest.mark.parametrize("case", range(len(_quantities())))
def test_one_step_mean_is_exact(case):
    model, m, rho0, dt, f, linear = _quantities()[case]
    exact = np.atleast_1d(checks._one_step_mean(model, m, rho0, dt, f, linear))
    # Two rules that are both exact for degree 2 agree to round-off.
    assert np.max(np.abs(exact - _three_point_mean(model, m, rho0, dt, f, linear))) <= 1e-12
    # A 20 000-sample mean at a seed fixed before the first run lies within 3 stderr of
    # each noisy component: max |z| was 0.60, 0.98, 0.90, 1.00 and 1.88 on the quantities
    # that vary (the zero M-rep's purity rate is deterministic). Components that do not
    # depend on the noise agree to the round-off of a 20 000-term sum (n eps = 2.2e-12).
    n = 20000
    w = NoiseSource(2026, case, 2 * m.channels).draw_block(n, dt)
    out, tr, _cur = _steps_at(model, m, rho0, dt, w, linear)
    sample = f(out, tr, w).reshape(n, -1)
    sample = np.concatenate([sample.real, sample.imag], axis=1)
    gap = np.abs(sample.mean(axis=0) - np.concatenate([exact.real, exact.imag]))
    std = sample.std(axis=0, ddof=1)
    noisy = std > 1e-12
    assert np.all(gap[~noisy] <= 1e-11)
    assert np.all(gap[noisy] <= 3.0 * std[noisy] / np.sqrt(n))


def test_one_step_rows_are_seed_independent():
    # As 20 000-sample means at 3 stderr these rows failed by chance: seed 93 failed
    # purity_rate_monte_carlo, and seed 51 failed linear_martingale.
    rows = dict(checks.CHECKS)
    for name in ONE_STEP_ROWS:
        results = {rows[name](seed) for seed in (0, 51, 93, 1535024425)}
        assert len(results) == 1
        assert next(iter(results))[0]
    for seed in (93, 51):
        results = checks.run_all_checks(seed)
        assert [row.name for row in results if not row.passed] == []
