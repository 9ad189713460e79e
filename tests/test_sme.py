import numpy as np
import pytest
from numpy.random import Philox

from diffmon import (
    BRep,
    LindbladModel,
    MRep,
    SimulationConfig,
    brep_noise_matrices,
    brep_to_mrep,
    heterodyne_mrep,
    homodyne_mrep,
    lindblad_covariance,
    me_integrate,
    noise_completion,
    purity_increment_predicted,
    simulate_ensemble,
    sme_step_linear,
    sme_step_nonlinear,
)
from diffmon.dynamics import rk4_step
from diffmon.errors import (
    NotPureError,
    StateInvalidError,
    ValidationError,
    WeightUnderflowError,
)
from diffmon.reps import random_brep, random_mrep
from diffmon.noise import lattice_normals
from diffmon.sme import NoiseSource, _mean_current, _step_nonlinear, _StepWork

from conftest import (
    EXCITED,
    SIGMA_M,
    SIGMA_X,
    decay_model,
    random_pure_state,
    rng,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_nonlinear_step_without_measurement_is_deterministic():
    model = decay_model(rabi=0.9)
    m = MRep(np.zeros((1, 2)))
    dw = np.array([0.3, -0.2])
    out, y_dt = sme_step_nonlinear(model, m, EXCITED, dw, dt=1e-3)
    det = rk4_step(model, EXCITED, 1e-3)
    det = (det + det.conj().T) / 2.0
    det = det / np.real(np.trace(det))
    assert np.max(np.abs(out - det)) <= 1e-15
    assert np.array_equal(y_dt, dw)


def test_nonlinear_step_homodyne_current_form():
    # Measured current: sqrt(eta) <c + c^dag> dt + dw_1 in the first component,
    # bare noise in the second.
    eta, dt = 0.6, 1e-3
    model = decay_model()
    m = homodyne_mrep(eta)
    dw = np.array([0.011, -0.007])
    _, y_dt = sme_step_nonlinear(model, m, PLUS, dw, dt=dt)
    mean1 = np.sqrt(eta) * np.real(np.trace((SIGMA_M + SIGMA_M.conj().T) @ PLUS))
    assert y_dt[0] == pytest.approx(mean1 * dt + dw[0], abs=1e-15)
    assert y_dt[1] == pytest.approx(dw[1], abs=1e-15)


def test_nonlinear_step_trace_and_hermiticity():
    model = decay_model(rabi=1.0)
    m = heterodyne_mrep(0.7)
    work = _StepWork(model, m)
    gen = rng(61)
    rho = np.stack([random_pure_state(gen, 2) for _ in range(100)])
    dw = gen.normal(scale=np.sqrt(1e-3), size=(100, 2))
    out, _y, tr = _step_nonlinear(work, rho, dw, 1e-3)
    assert np.max(np.abs(tr - 1.0)) <= 1e-12
    assert np.max(np.abs(out - out.conj().transpose(0, 2, 1))) == 0.0


def test_one_step_mean_matches_deterministic_step():
    model = decay_model(rabi=1.0)
    m = heterodyne_mrep(0.8)
    work = _StepWork(model, m)
    dt, n = 1e-3, 4000
    dw = NoiseSource(77, 0, 2).draw_block(n, dt)
    rho = np.broadcast_to(EXCITED, (n, 2, 2)).copy()
    out, _y, _tr = _step_nonlinear(work, rho, dw, dt)
    mean = out.mean(axis=0)
    se = out.std(axis=0, ddof=1) / np.sqrt(n)
    det = rk4_step(model, EXCITED, dt)
    assert np.max(np.abs(mean - det) - 3.0 * np.abs(se) - 10.0 * dt**2) <= 0.0


def test_linear_step_without_measurement():
    model = decay_model(rabi=0.4)
    m = MRep(np.zeros((1, 2)))
    out, lw = sme_step_linear(model, m, PLUS, np.array([0.05, -0.02]), dt=1e-3)
    det = rk4_step(model, PLUS, 1e-3)
    assert abs(lw) <= 1e-14
    assert np.max(np.abs(out - (det + det.conj().T) / 2.0)) <= 1e-15


def test_linear_weighted_current_reproduces_true_mean():
    model = decay_model(rabi=1.0)
    m = homodyne_mrep(0.8)
    work = _StepWork(model, m)
    dt, n = 1e-3, 20000
    y_dt = NoiseSource(78, 0, 2).draw_block(n, dt)
    rho = np.broadcast_to(PLUS, (n, 2, 2)).copy()
    from diffmon.sme import _step_linear

    _out, tr = _step_linear(work, rho, y_dt, dt)
    # Martingale: ostensible expectation of the trace stays 1.
    se = tr.std(ddof=1) / np.sqrt(n)
    assert abs(tr.mean() - 1.0) <= 3.0 * se + 1e-12
    # Weighted ostensible current mean reproduces the true mean.
    weighted = (y_dt * tr[:, None] / dt).mean(axis=0)
    se_y = (y_dt * tr[:, None] / dt).std(axis=0, ddof=1) / np.sqrt(n)
    truth = _mean_current(work, PLUS)
    assert np.all(np.abs(weighted - truth) <= 3.0 * se_y + 10.0 * dt)


def test_purity_rate_zero_for_unit_efficiency():
    model = decay_model()
    gen = rng(62)
    for _ in range(5):
        rho = random_pure_state(gen, 2)
        assert abs(purity_increment_predicted(model, heterodyne_mrep(1.0), rho)) <= 1e-12


def test_purity_rate_closed_form_no_measurement():
    for gamma, hbar in ((1.0, 1.0), (3.0, 2.0)):
        model = decay_model(gamma=gamma, hbar=hbar)
        m = MRep(np.zeros((1, 2)), hbar=hbar)
        got = purity_increment_predicted(model, m, EXCITED)
        assert got == pytest.approx(-2.0 * gamma / hbar, abs=1e-12)


def test_purity_rate_requires_pure_state():
    model = decay_model()
    with pytest.raises(NotPureError):
        purity_increment_predicted(model, heterodyne_mrep(1.0), np.eye(2) / 2.0)


def test_lindblad_covariance_psd():
    gen = rng(63)
    model = decay_model(rabi=0.5)
    for _ in range(10):
        cov = lindblad_covariance(model, random_pure_state(gen, 2))
        assert np.linalg.norm(cov - cov.conj().T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12


def test_noise_completion_heterodyne_projector():
    m = heterodyne_mrep(1.0)
    want_z = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
    z = np.eye(2) - m.matrix.conj().T @ m.matrix
    assert np.max(np.abs(z - want_z)) <= 1e-12
    # Rank-one projector: the square root is the matrix itself.
    assert np.max(np.abs(noise_completion(m) - want_z)) <= 1e-12


def test_noise_completion_zero_measurement():
    for hbar in (1.0, 4.0):
        m = MRep(np.zeros((1, 2)), hbar=hbar)
        assert np.allclose(noise_completion(m), np.eye(2) / np.sqrt(hbar), atol=1e-12)


def test_noise_completion_identity_random():
    gen = rng(64)
    for _ in range(20):
        m = random_mrep(gen, 3, hbar=1.5)
        ell = noise_completion(m)
        defect = (
            m.hbar**2 * ell @ ell.conj().T + m.matrix.conj().T @ m.matrix
            - m.hbar * np.eye(6)
        )
        assert np.max(np.abs(defect)) <= 1e-12


def test_brep_noise_blocks_unit_efficiency_has_no_loss():
    blocks = brep_noise_matrices(BRep([1.0], [[np.exp(0.4j)]], [0.3]))
    assert np.max(np.abs(blocks.loss)) == 0.0


def test_brep_noise_blocks_dual_homodyne():
    phi, hbar = 0.8, 1.0
    blocks = brep_noise_matrices(BRep([1.0], [[np.exp(1j * phi)]], [0.5]), hbar=hbar)
    want_signal = np.sqrt(hbar / 2.0) * np.array([[np.exp(1j * phi)], [1j * np.exp(1j * phi)]])
    want_split = (1.0 / np.sqrt(2.0 * hbar)) * np.array([[1.0], [-1j]])
    assert np.max(np.abs(blocks.signal - want_signal)) <= 1e-12
    assert np.max(np.abs(blocks.splitter - want_split)) <= 1e-12


@pytest.mark.parametrize("hbar", [np.nan, np.inf, 0.0])
def test_brep_noise_blocks_reject_invalid_hbar(hbar):
    with pytest.raises(ValidationError, match="hbar must be a positive real number"):
        brep_noise_matrices(BRep([0.5], [[1.0]], [0.5]), hbar=hbar)


def test_brep_noise_blocks_completeness_and_mrep():
    gen = rng(65)
    for _ in range(20):
        channels = int(gen.integers(1, 4))
        b = random_brep(gen, channels)
        blocks = brep_noise_matrices(b, hbar=2.0)
        total = (
            blocks.signal @ blocks.signal.conj().T / 2.0
            + 2.0 * blocks.loss @ blocks.loss.conj().T
            + 2.0 * blocks.splitter @ blocks.splitter.conj().T
        )
        assert np.max(np.abs(total - np.eye(2 * channels))) <= 1e-12
        assert np.max(
            np.abs(blocks.measurement_matrix() - brep_to_mrep(b, hbar=2.0).matrix)
        ) <= 1e-12


def test_ensemble_single_trajectory_without_measurement_matches_integrator():
    model = decay_model(rabi=0.7)
    m = MRep(np.zeros((1, 2)))
    config = SimulationConfig(dt=1e-2, steps=50, n_traj=1, seed=3, snapshot_stride=10)
    ens = simulate_ensemble(model, m, EXCITED, config)
    me = me_integrate(model, EXCITED, 1e-2, 50)
    for i, step in enumerate(ens.snapshot_steps):
        assert np.max(np.abs(ens.snapshots[i, 0] - me[int(step)])) <= 1e-14


def test_ensemble_same_seed_is_identical():
    model = decay_model(rabi=1.0)
    m = heterodyne_mrep(0.8)
    config = SimulationConfig(dt=5e-3, steps=40, n_traj=8, seed=11, snapshot_stride=20)
    e1 = simulate_ensemble(model, m, EXCITED, config)
    e2 = simulate_ensemble(model, m, EXCITED, config)
    assert np.array_equal(e1.currents, e2.currents)
    assert np.array_equal(e1.snapshots, e2.snapshots)
    assert np.array_equal(e1.purity, e2.purity)


def test_ensemble_independent_of_batching():
    model = decay_model(rabi=1.0)
    m = homodyne_mrep(0.9)
    config = SimulationConfig(dt=5e-3, steps=33, n_traj=6, seed=12)
    e1 = simulate_ensemble(model, m, EXCITED, config, block_steps=5)
    e2 = simulate_ensemble(model, m, EXCITED, config, block_steps=64)
    assert np.array_equal(e1.currents, e2.currents)
    assert np.array_equal(e1.noise, e2.noise)
    assert np.array_equal(e1.log_weight, e2.log_weight)


def test_ensemble_linear_mode_records_weights():
    model = decay_model(rabi=1.0)
    m = homodyne_mrep(0.8)
    config = SimulationConfig(dt=1e-3, steps=100, n_traj=16, seed=5, mode="linear")
    ens = simulate_ensemble(model, m, PLUS, config)
    assert ens.log_weight.shape == (16, 101)
    assert np.all(ens.log_weight[:, 0] == 0.0)
    assert np.any(ens.log_weight[:, -1] != 0.0)
    assert np.all(np.isfinite(ens.log_weight))


def test_ensemble_aborts_on_positivity_loss():
    model = decay_model(gamma=1.0)
    m = homodyne_mrep(0.8)
    config = SimulationConfig(
        dt=0.5, steps=50, n_traj=4, seed=1, positivity_tol=1e-6
    )
    with pytest.raises(StateInvalidError):
        simulate_ensemble(model, m, EXCITED, config)


def test_ensemble_weight_floor():
    model = decay_model(rabi=1.0)
    m = homodyne_mrep(0.8)
    config = SimulationConfig(
        dt=1e-3, steps=200, n_traj=8, seed=2, mode="linear", log_weight_floor=-1e-9
    )
    with pytest.raises(WeightUnderflowError):
        simulate_ensemble(model, m, PLUS, config)


def test_scale_mismatch_rejected():
    model = decay_model(hbar=1.0)
    m = heterodyne_mrep(0.5, hbar=2.0)
    with pytest.raises(ValidationError):
        sme_step_nonlinear(model, m, EXCITED, np.zeros(2), dt=1e-3)


def test_ensemble_carries_fingerprints():
    model = decay_model(rabi=1.0)
    m = heterodyne_mrep(0.8)
    config = SimulationConfig(dt=5e-3, steps=10, n_traj=2, seed=1)
    ens = simulate_ensemble(model, m, EXCITED, config)
    assert len(ens.model_fingerprint) == 64
    assert len(ens.rep_fingerprint) == 64
    ens2 = simulate_ensemble(model, m, EXCITED, config)
    assert ens2.model_fingerprint == ens.model_fingerprint
    assert ens2.rep_fingerprint == ens.rep_fingerprint


def test_trajectory_view_consistency():
    model = decay_model(rabi=1.0)
    m = heterodyne_mrep(0.8)
    config = SimulationConfig(dt=5e-3, steps=20, n_traj=4, seed=9, snapshot_stride=10)
    ens = simulate_ensemble(model, m, EXCITED, config)
    traj = ens.trajectory(2)
    assert np.array_equal(traj.currents, ens.currents[2])
    assert np.array_equal(traj.snapshots, ens.snapshots[:, 2])
    assert traj.stream_id == 2
    assert len(ens.trajectories()) == 4


def test_positivity_monitor_names_trajectory_and_step():
    from diffmon.sme import _check_positivity

    gen = rng(63)
    rho = np.stack([random_pure_state(gen, 3) for _ in range(5)])
    _check_positivity(rho, 1e-9, 1)
    rho[3] = rho[3] - 2e-3 * np.eye(3)
    rho[4] = rho[4] - 2e-3 * np.eye(3)
    _check_positivity(rho, 3e-3, 2)
    with pytest.raises(StateInvalidError, match="trajectory 3, step 7: min eigenvalue -2.000e-03"):
        _check_positivity(rho, 1e-3, 7)


def test_ensemble_rejects_records_beyond_memory(monkeypatch):
    def no_streams(*args, **kwargs):
        raise AssertionError("noise streams built before the memory check")

    monkeypatch.setattr("diffmon.sme.NoiseSource", no_streams)
    config = SimulationConfig(dt=1e-3, steps=10**6, n_traj=10**7, seed=1)
    with pytest.raises(ValidationError, match="GiB, more than the .* of physical memory"):
        simulate_ensemble(decay_model(), heterodyne_mrep(0.8), EXCITED, config)


def test_ensemble_allocation_failure_is_validation_error(monkeypatch):
    # Past the estimate, an allocation the address space cannot hold still
    # ends in the same error, not a MemoryError.
    monkeypatch.setattr("diffmon.sme._physical_memory", lambda: np.inf)
    config = SimulationConfig(dt=1e-3, steps=10**8, n_traj=10**8, seed=1)
    with pytest.raises(ValidationError, match="cannot allocate"):
        simulate_ensemble(decay_model(), heterodyne_mrep(0.8), EXCITED, config)


def test_ensemble_noise_is_each_streams_draw_block():
    model = decay_model(rabi=1.0)
    config = SimulationConfig(dt=5e-3, steps=21, n_traj=5, seed=13)
    ens = simulate_ensemble(model, heterodyne_mrep(0.8), EXCITED, config, block_steps=8)
    for k in range(config.n_traj):
        want = NoiseSource(config.seed, k, 2).draw_block(config.steps, config.dt)
        assert np.array_equal(ens.noise[k], want)


def test_ensemble_noise_matches_independent_generators():
    # Trajectory k's increments are the raw outputs of a freshly keyed
    # Philox(key=seed + (k << 64)), top 53 bits, through the lattice map.
    config = SimulationConfig(dt=2e-3, steps=19, n_traj=4, seed=2**40 + 3)
    ens = simulate_ensemble(decay_model(rabi=1.0), heterodyne_mrep(0.8), EXCITED, config)
    for k in range(config.n_traj):
        raw = Philox(key=config.seed + (k << 64)).random_raw(config.steps * 2)
        want = lattice_normals(raw >> np.uint64(11)).reshape(config.steps, 2) * np.sqrt(2e-3)
        assert np.array_equal(ens.noise[k], want)


@pytest.mark.parametrize("mode", ["nonlinear", "linear"])
def test_ensemble_records_independent_of_block_steps(mode):
    model = decay_model(rabi=1.0)
    config = SimulationConfig(dt=5e-3, steps=23, n_traj=5, seed=14, mode=mode, snapshot_stride=4)
    runs = [
        simulate_ensemble(model, heterodyne_mrep(0.8), EXCITED, config, block_steps=b)
        for b in (1, 3, 7, 256)
    ]
    for ens in runs[1:]:
        for field in ("currents", "noise", "purity", "log_weight", "snapshots"):
            assert np.array_equal(getattr(ens, field), getattr(runs[0], field)), field


def test_nonlinear_log_weight_is_a_read_only_zero_view():
    model = decay_model(rabi=1.0)
    config = SimulationConfig(dt=5e-3, steps=12, n_traj=3, seed=15)
    ens = simulate_ensemble(model, heterodyne_mrep(0.8), EXCITED, config)
    assert ens.log_weight.shape == (3, 13)
    assert not ens.log_weight.flags.writeable
    assert np.all(ens.log_weight == 0.0)
    with pytest.raises(ValueError):
        ens.log_weight[0, 1] = 1.0
    assert np.array_equal(ens.trajectory(1).log_weight, np.zeros(13))


def test_memory_estimate_counts_log_weights_in_linear_mode_only(monkeypatch):
    # Exactly the nonlinear run's records: (12 currents + 12 noise + 7
    # purities) x 8 bytes per trajectory, and 16 bytes for each entry of its
    # 7 snapshots of 2 x 2 states.
    n, steps = 3, 6
    need = n * (8 * (steps * 2 * 2 + (steps + 1)) + 16 * (steps + 1) * 4)
    monkeypatch.setattr("diffmon.sme._physical_memory", lambda: float(need))
    common = dict(dt=5e-3, steps=steps, n_traj=n, seed=16, snapshot_stride=1)
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    simulate_ensemble(model, m, EXCITED, SimulationConfig(**common))
    with pytest.raises(ValidationError, match="of physical memory"):
        simulate_ensemble(model, m, PLUS, SimulationConfig(mode="linear", **common))


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_single_steps_reject_bad_dt(dt):
    # A NaN dt used to return a NaN state without an error.
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    with pytest.raises(ValidationError, match="dt must be positive"):
        sme_step_nonlinear(model, m, EXCITED, np.zeros(2), dt)
    with pytest.raises(ValidationError, match="dt must be positive"):
        sme_step_linear(model, m, PLUS, np.zeros(2), dt)


@pytest.mark.parametrize("mode", ["nonlinear", "linear"])
def test_ensemble_names_non_finite_trace(mode):
    # The positivity monitor's Cholesky does not fail on a NaN state, so a
    # step that overflows must be caught by its trace.
    config = SimulationConfig(dt=1e-3, steps=5, n_traj=3, seed=1, mode=mode)
    with np.errstate(all="ignore"):
        model = LindbladModel(hamiltonian=1e300 * SIGMA_X, lindblads=SIGMA_M)
        with pytest.raises(StateInvalidError, match="trajectory 0, step 1: non-finite trace"):
            simulate_ensemble(model, heterodyne_mrep(0.8), EXCITED, config)


@pytest.mark.parametrize(
    "field, value",
    [("positivity_tol", np.nan), ("positivity_tol", -1.0), ("log_weight_floor", np.nan)],
)
def test_config_rejects_bad_monitor_settings(field, value):
    # A NaN tolerance used to switch the monitor off, a negative one printed
    # "below --1.000e+00", and a NaN floor never fired.
    with pytest.raises(ValidationError, match=field):
        SimulationConfig(dt=1e-3, steps=1, n_traj=1, seed=0, **{field: value})
    for tol in (0.0, np.inf):
        SimulationConfig(dt=1e-3, steps=1, n_traj=1, seed=0, positivity_tol=tol)


def _states_with_min_eigenvalue(gen, dim, lams):
    """Unit-trace Hermitian states whose smallest eigenvalue is each of lams."""
    out = []
    for lam in lams:
        rest = gen.uniform(0.5, 1.5, size=dim - 1)
        vals = np.concatenate([[lam], (1.0 - lam) * rest / rest.sum()])
        q, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
        rho = (q * vals) @ q.conj().T
        out.append((rho + rho.conj().T) / 2.0)
    return np.stack(out)


@pytest.mark.parametrize("dim", (2, 3, 8))
def test_positivity_monitor_matches_eigenvalue_reference(dim):
    from diffmon.dynamics import _gather, _purity
    from diffmon.sme import _check_positivity, _uncertified

    tol = 1e-3
    gen = rng(64 + dim)
    # Smallest eigenvalues straddling -tol, and mixed states the purity bound
    # certifies (at d = 2 the bound is the smallest eigenvalue itself).
    lams = np.array([-2.0, -1.01, -0.99, -0.6, -0.4, 0.0]) * tol
    mixed = np.full(dim, 1.0 / dim) * np.eye(dim) + 1e-3 * np.diag(np.linspace(-1.0, 1.0, dim))
    for trial in range(30):
        n = 12
        rho = _states_with_min_eigenvalue(gen, dim, gen.choice(lams, size=n))
        if trial % 3 == 0:  # only the last trajectory may fail
            rho[:-1] = _states_with_min_eigenvalue(gen, dim, [0.0] * (n - 1))
        rho[gen.integers(n - 1)] = mixed
        g = _gather(rho)
        mask = _uncertified(g, _purity(g), tol)
        assert not mask.all()
        wmin = np.linalg.eigvalsh(rho)[:, 0]
        bad = np.flatnonzero(wmin < -tol)
        if bad.size == 0:
            _check_positivity(rho, tol, 5)
            continue
        k = int(bad[0])
        message = f"trajectory {k}, step 5: min eigenvalue {wmin[k]:.3e} below -{tol:.3e}"
        with pytest.raises(StateInvalidError) as info:
            _check_positivity(rho, tol, 5)
        assert str(info.value) == message


def test_purity_bound_never_certifies_nan():
    from diffmon.dynamics import _gather, _purity
    from diffmon.sme import _uncertified

    rho = np.stack([np.eye(3, dtype=complex) / 3.0] * 2)
    g = _gather(rho)
    assert not _uncertified(g, _purity(g), 1e-3).any()
    g[1, 4] = np.nan  # an off-diagonal coordinate
    assert _uncertified(g, _purity(g), 1e-3).tolist() == [False, True]


def test_purity_bound_in_squared_form_keeps_the_sign_of_the_trace():
    # -I/d has the purity of a maximally mixed state, but the bound it gives
    # is -2/d; squaring t + d tol/2 alone would certify it.
    from diffmon.dynamics import _gather, _purity
    from diffmon.sme import _check_positivity, _uncertified

    rho = np.stack([np.eye(2, dtype=complex) / 2.0, -np.eye(2, dtype=complex) / 2.0])
    g = _gather(rho)
    assert _uncertified(g, _purity(g), 1e-3).tolist() == [False, True]
    with pytest.raises(StateInvalidError, match="trajectory 1, step 3"):
        _check_positivity(rho, 1e-3, 3)
