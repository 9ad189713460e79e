import numpy as np
import pytest

from diffmon import (
    MRep,
    SimulationConfig,
    autocorrelation_estimate,
    convergence_report,
    ensemble_mean_state,
    heterodyne_mrep,
    homodyne_mrep,
    linear_nonlinear_consistency,
    me_integrate,
    simulate_ensemble,
    trace_distance,
)
from diffmon.errors import (
    InsufficientDataError,
    NonPositiveLagError,
    NoSnapshotsError,
    ValidationError,
)
from diffmon.stats import effective_sample_size

from conftest import EXCITED, SIGMA_Z, decay_model

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def _small_ensemble(n_traj=64, steps=200, mode="nonlinear", seed=17, eta=0.8, stride=50):
    model = decay_model(rabi=1.0)
    m = homodyne_mrep(eta)
    config = SimulationConfig(
        dt=5e-3, steps=steps, n_traj=n_traj, seed=seed, mode=mode, snapshot_stride=stride
    )
    return model, m, simulate_ensemble(model, m, EXCITED, config)


def test_mean_state_at_time_zero_is_initial_state():
    _model, _m, ens = _small_ensemble()
    assert np.max(np.abs(ensemble_mean_state(ens, 0) - EXCITED)) <= 1e-14


def test_mean_state_single_trajectory():
    model = decay_model(rabi=1.0)
    m = heterodyne_mrep(0.9)
    config = SimulationConfig(dt=5e-3, steps=30, n_traj=1, seed=4, snapshot_stride=10)
    ens = simulate_ensemble(model, m, EXCITED, config)
    for i in range(ens.snapshot_steps.size):
        assert np.max(np.abs(ensemble_mean_state(ens, i) - ens.snapshots[i, 0])) <= 1e-14


def test_mean_state_without_measurement_matches_integrator():
    model = decay_model(rabi=0.6)
    config = SimulationConfig(dt=5e-3, steps=60, n_traj=10, seed=6, snapshot_stride=20)
    ens = simulate_ensemble(model, MRep(np.zeros((1, 2))), EXCITED, config)
    me = me_integrate(model, EXCITED, 5e-3, 60)
    for i, step in enumerate(ens.snapshot_steps):
        assert np.max(np.abs(ensemble_mean_state(ens, i) - me[int(step)])) <= 1e-14


def test_mean_state_bad_index():
    _model, _m, ens = _small_ensemble(n_traj=4, steps=20)
    with pytest.raises(NoSnapshotsError):
        ensemble_mean_state(ens, 99)


def test_decay_ensemble_tracks_master_equation():
    model, _m, ens = _small_ensemble(n_traj=400, steps=400)
    me = me_integrate(model, EXCITED, 5e-3, 400)
    for i, step in enumerate(ens.snapshot_steps):
        d = trace_distance(ensemble_mean_state(ens, i), me[int(step)])
        assert d <= 3.0 * 0.5 / np.sqrt(400) + 0.02


def test_convergence_report_contents():
    model, _m, ens = _small_ensemble(n_traj=100, steps=500)
    rep = convergence_report(ens, model)
    count = 100 * 500  # increment vectors
    assert rep.n_increments == count
    assert np.max(np.abs(rep.dw_mean)) <= rep.dw_mean_tolerance
    assert np.max(np.abs(np.diag(rep.dw_covariance) / rep.dw_covariance_target - 1.0)) <= 0.05
    assert rep.max_trace_distance <= 3.0 * 0.5 / np.sqrt(100) + 0.02
    payload = rep.to_dict()
    assert set(payload) >= {"snapshot_times", "trace_distances", "dw_mean", "dw_covariance"}


def test_convergence_report_requires_noise():
    model = decay_model(rabi=1.0)
    config = SimulationConfig(dt=5e-3, steps=20, n_traj=4, seed=8, store_dw=False)
    ens = simulate_ensemble(model, homodyne_mrep(0.5), EXCITED, config)
    with pytest.raises(InsufficientDataError):
        convergence_report(ens, model)


def test_richardson_bias_halves_with_dt():
    # Weak first-order stepping: halving dt halves the systematic bias of the
    # ensemble mean, within the Monte Carlo noise of the two runs.  (For this
    # scheme the mean-state bias is in fact zero up to instability, which is
    # consistent with the halving law.)
    model = decay_model()
    m = homodyne_mrep(0.8)
    biases = []
    ses = []
    for dt, steps in ((2e-3, 500), (1e-3, 1000)):
        config = SimulationConfig(
            dt=dt, steps=steps, n_traj=2000, seed=19, snapshot_stride=steps, store_dw=False
        )
        ens = simulate_ensemble(model, m, EXCITED, config)
        pops = np.real(ens.snapshots[-1][:, 0, 0])
        biases.append(pops.mean() - np.exp(-1.0))
        ses.append(pops.std(ddof=1) / np.sqrt(pops.size))
    combined = np.hypot(ses[0] / 2.0, ses[1])
    assert abs(biases[0] / 2.0 - biases[1]) <= 3.0 * combined + 1e-3


def test_autocorrelation_pure_noise_is_flat():
    model, _m, ens = _small_ensemble(n_traj=200, steps=400, eta=0.0)
    est = autocorrelation_estimate(ens, [1, 5, 20])
    assert np.all(np.abs(est.matrices) <= 4.0 * est.stderr)


def test_autocorrelation_lag_symmetry_within_noise():
    _model, _m, ens = _small_ensemble(n_traj=300, steps=400)
    est = autocorrelation_estimate(ens, [4])
    swapped = np.einsum(
        "nta,ntb->ab",
        ens.currents[:, 200 + 4 : 400, :],
        ens.currents[:, 200 : 400 - 4, :],
    ) / (300 * (200 - 4))
    gap = np.abs(est.matrices[0] - swapped.T)
    assert np.all(gap <= 6.0 * est.stderr[0] + 1e-12)


def test_autocorrelation_errors():
    _model, _m, ens = _small_ensemble(n_traj=4, steps=20)
    with pytest.raises(NonPositiveLagError):
        autocorrelation_estimate(ens, [0])
    with pytest.raises(InsufficientDataError):
        autocorrelation_estimate(ens, [19])
    with pytest.raises(InsufficientDataError):
        autocorrelation_estimate(ens, [])
    for burn_in in (-1, 20):  # the burn-in must leave at least one step of the 20
        with pytest.raises(ValidationError, match=f"burn-in {burn_in} outside 0..19"):
            autocorrelation_estimate(ens, [1], burn_in=burn_in)


def test_autocorrelation_rejects_a_single_trajectory():
    # One trajectory used to give every stderr as inf, which to_dict() passed on and
    # json.dumps wrote as the non-standard token Infinity.
    _model, _m, ens = _small_ensemble(n_traj=1, steps=20)
    with pytest.raises(InsufficientDataError, match="at least 2 trajectories, got 1"):
        autocorrelation_estimate(ens, [1])
    _model, _m, ens = _small_ensemble(n_traj=2, steps=20)
    assert np.all(np.isfinite(autocorrelation_estimate(ens, [1]).stderr))


def test_estimators_reject_non_integer_indices():
    # A float lag used to be truncated (1.5 and True both ran lag 1) and NaN ended in a
    # bare ValueError; a float burn-in or snapshot index ended in a TypeError or IndexError.
    _model, _m, ens = _small_ensemble(n_traj=4, steps=20)
    for lags in ([1.5], [True], [2, True], [np.nan], 2.0, np.array([1.0])):
        with pytest.raises(ValidationError, match="lags must be integers"):
            autocorrelation_estimate(ens, lags)
    with pytest.raises(ValidationError, match="burn-in must be an integer"):
        autocorrelation_estimate(ens, [1], burn_in=2.5)
    for index in (1.5, True):
        with pytest.raises(ValidationError, match="snapshot index must be an integer"):
            ensemble_mean_state(ens, index)
    lags = np.array([1, 3], dtype=np.uint8)
    assert autocorrelation_estimate(ens, lags).lag_steps.tolist() == [1, 3]
    assert np.array_equal(ensemble_mean_state(ens, np.int64(0)), ensemble_mean_state(ens, 0))


def test_autocorrelation_deterministic_rerun():
    _model, _m, ens = _small_ensemble(n_traj=50, steps=100)
    a = autocorrelation_estimate(ens, [1, 3])
    b = autocorrelation_estimate(ens, [1, 3])
    assert np.array_equal(a.matrices, b.matrices)
    assert np.array_equal(a.stderr, b.stderr)


def test_consistency_without_measurement_is_exact():
    model = decay_model(rabi=0.8)
    m = MRep(np.zeros((1, 2)))
    config = SimulationConfig(dt=5e-3, steps=40, n_traj=32, seed=13)
    report = linear_nonlinear_consistency(model, m, EXCITED, config)
    assert report.passed
    for row in report.comparisons:
        assert row.deviation <= 1e-12


def test_consistency_needs_two_trajectories():
    # One trajectory set the nonlinear standard errors to inf, so no observable could be
    # flagged and the report passed.
    config = SimulationConfig(dt=5e-3, steps=10, n_traj=1, seed=13)
    message = "^a standard error needs at least 2 trajectories, got 1$"
    with pytest.raises(InsufficientDataError, match=message):
        linear_nonlinear_consistency(decay_model(rabi=1.0), homodyne_mrep(0.8), EXCITED, config)


@pytest.mark.parametrize(
    "weights", [np.zeros(3), np.zeros(0), [1.0, np.nan], [np.inf, 1.0], [1.0, -1.0]]
)
def test_effective_sample_size_needs_finite_weights_of_non_zero_sum(weights):
    # Zero and empty weights divided 0 by 0 with a RuntimeWarning.
    with pytest.raises(InsufficientDataError, match="finite weights of non-zero sum"):
        effective_sample_size(weights)
    assert effective_sample_size([1.0, 1.0, 0.0]) == 2.0


@pytest.mark.parametrize("weights, ess", [([1e200, 1.0], 1.0), ([1e308, 1e308, 0.0], 2.0)])
def test_effective_sample_size_of_huge_weights(weights, ess):
    # Squaring and summing the raw weights overflowed with a RuntimeWarning; they are
    # divided by the largest first.
    assert effective_sample_size(weights) == ess


def test_consistency_homodyne_qubit():
    model = decay_model(rabi=1.0)
    m = homodyne_mrep(0.8)
    config = SimulationConfig(dt=2e-3, steps=500, n_traj=600, seed=14)
    report = linear_nonlinear_consistency(
        model, m, EXCITED, config, observables=[("sz", SIGMA_Z)]
    )
    assert report.effective_sample_size > 0.0
    assert report.passed
    row = report.comparisons[0]
    assert row.deviation <= 4.0 * row.combined_stderr
    payload = report.to_dict()
    assert payload["comparisons"][0]["name"] == "sz"
