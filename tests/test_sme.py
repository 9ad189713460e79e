import hashlib
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

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
    diffusion_matrix,
    heterodyne_mrep,
    homodyne_mrep,
    lindblad_covariance,
    me_integrate,
    noise_completion,
    predicted_autocorrelation,
    purity_increment_predicted,
    simulate_ensemble,
    sme_step_linear,
    sme_step_nonlinear,
)
from diffmon import dynamics, sme
from diffmon.dynamics import rk4_step
from diffmon.errors import (
    DiffmonError,
    DimensionMismatchError,
    NotPureError,
    StateInvalidError,
    ValidationError,
    WeightUnderflowError,
)
from diffmon.reps import random_brep, random_mrep, random_orthogonal
from diffmon.noise import _STREAMS, NoiseSource, lattice_normals, lattice_streams
from diffmon.dynamics import _gather, _measured_engine
from diffmon.sme import MODES, _step_states

from conftest import (
    EXCITED,
    SIGMA_M,
    SIGMA_X,
    cavity_model,
    decay_model,
    random_pure_state,
    random_state,
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
    engine = _measured_engine(model, m)
    gen = rng(61)
    rho = np.stack([random_pure_state(gen, 2) for _ in range(100)])
    dw = gen.normal(scale=np.sqrt(1e-3), size=(100, 2))
    out, tr, _cur = _step_states(engine, rho, dw, 1e-3, linear=False)
    assert np.max(np.abs(tr - 1.0)) <= 1e-12
    assert np.max(np.abs(out - out.conj().transpose(0, 2, 1))) == 0.0


def test_nonlinear_step_renormalizes_any_trace():
    # The ensemble's trace shortcut assumes unit-trace input; the single step
    # sums the trace of its output instead, so any input comes back at trace 1.
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    rho = np.array([[1.0, 0.7], [0.7, 1.0]], dtype=complex)
    out, _y = sme_step_nonlinear(model, m, rho, np.array([0.03, -0.02]), dt=1e-3)
    assert abs(np.trace(out).real - 1.0) <= 1e-15


def test_one_step_mean_matches_deterministic_step():
    model = decay_model(rabi=1.0)
    m = heterodyne_mrep(0.8)
    engine = _measured_engine(model, m)
    dt, n = 1e-3, 4000
    dw = NoiseSource(77, 0, 2).draw_block(n, dt)
    rho = np.broadcast_to(EXCITED, (n, 2, 2)).copy()
    out, _tr, _cur = _step_states(engine, rho, dw, dt, linear=False)
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
    engine = _measured_engine(model, m)
    dt, n = 1e-3, 20000
    y_dt = NoiseSource(78, 0, 2).draw_block(n, dt)
    rho = np.broadcast_to(PLUS, (n, 2, 2)).copy()
    _out, tr, _cur = _step_states(engine, rho, y_dt, dt, linear=True)
    # Martingale: ostensible expectation of the trace stays 1.
    se = tr.std(ddof=1) / np.sqrt(n)
    assert abs(tr.mean() - 1.0) <= 3.0 * se + 1e-12
    # Weighted ostensible current mean reproduces the true mean.
    weighted = (y_dt * tr[:, None] / dt).mean(axis=0)
    se_y = (y_dt * tr[:, None] / dt).std(axis=0, ddof=1) / np.sqrt(n)
    truth = engine.currents @ _gather(PLUS)
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


def test_ensemble_weight_floor(monkeypatch):
    model = decay_model(rabi=1.0)
    m = homodyne_mrep(0.8)
    monkeypatch.setattr(sme, "_LOG_WEIGHT_FLOOR", -1e-9)
    config = SimulationConfig(dt=1e-3, steps=200, n_traj=8, seed=2, mode="linear")
    with pytest.raises(WeightUnderflowError):
        simulate_ensemble(model, m, PLUS, config)


def test_step_states_checks_state_and_increment_shapes():
    # One (J,) increment used to be broadcast to a whole stack of states.
    engine = _measured_engine(decay_model(rabi=1.0), heterodyne_mrep(0.8))
    stack = np.broadcast_to(EXCITED, (3, 2, 2))
    with pytest.raises(DimensionMismatchError, match=r"increments must have shape \(3, 2\)"):
        _step_states(engine, stack, np.zeros(2), 1e-3, linear=False)
    with pytest.raises(DimensionMismatchError, match="increments"):
        _step_states(engine, stack, np.zeros((3, 4)), 1e-3, linear=True)
    with pytest.raises(DimensionMismatchError, match="states must be 2 x 2"):
        _step_states(engine, np.eye(3, dtype=complex) / 3.0, np.zeros(2), 1e-3, linear=False)
    with pytest.raises(DimensionMismatchError, match="states must be 2 x 2"):
        sme_step_nonlinear(decay_model(), heterodyne_mrep(0.8), np.ones(2), np.zeros(2), 1e-3)
    out, tr, cur = _step_states(engine, stack, np.zeros((3, 2)), 1e-3, linear=False)
    assert out.shape == (3, 2, 2) and tr.shape == (3,) and cur.shape == (3, 2)
    # The public steps take stacks with one increment per state.
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    y = np.array([[0.05, -0.02], [0.0, 0.01]])
    outs, lws = sme_step_linear(model, m, np.stack([PLUS, PLUS]), y, 1e-3)
    for k in range(2):
        one, lw = sme_step_linear(model, m, PLUS, y[k], 1e-3)
        assert np.max(np.abs(outs[k] - one)) <= 1e-13 and abs(lws[k] - lw) <= 1e-13


def test_channel_mismatch_rejected_once():
    # A 2-channel measurement matrix on a 1-channel model.
    model, m = decay_model(rabi=1.0), random_mrep(rng(5), 2)
    message = "measurement matrix has 2 channels, model has 1"
    with pytest.raises(DimensionMismatchError, match=message):
        sme_step_nonlinear(model, m, EXCITED, np.zeros(4), dt=1e-3)
    with pytest.raises(DimensionMismatchError, match=message):
        simulate_ensemble(model, m, EXCITED, SimulationConfig(dt=1e-3, steps=2, n_traj=2, seed=0))


def test_scale_mismatch_rejected():
    model = decay_model(hbar=1.0)
    m = heterodyne_mrep(0.5, hbar=2.0)
    with pytest.raises(ValidationError):
        sme_step_nonlinear(model, m, EXCITED, np.zeros(2), dt=1e-3)


def test_scale_mismatch_rejected_by_every_pairing():
    model, m = decay_model(rabi=1.0, hbar=2.0), heterodyne_mrep(0.8, hbar=1.0)
    message = "^model and measurement matrix carry different scales: 2.0 vs 1.0$"
    with pytest.raises(ValidationError, match=message):
        predicted_autocorrelation(model, m, EXCITED, [0.1])
    with pytest.raises(ValidationError, match=message):
        diffusion_matrix(model, m, EXCITED)
    with pytest.raises(ValidationError, match=message):
        purity_increment_predicted(model, m, EXCITED)


def test_pairing_shares_the_model_tables(monkeypatch):
    built = []

    class Counted(dynamics._Engine):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(dynamics, "_Engine", Counted)
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    sme_step_nonlinear(model, m, EXCITED, np.array([0.01, -0.02]), dt=1e-3)
    sme_step_linear(model, m, PLUS, np.array([0.03, 0.01]), dt=1e-3)
    simulate_ensemble(model, m, EXCITED, SimulationConfig(dt=1e-3, steps=5, n_traj=3, seed=0))
    # The model's engine and one measured engine, kept by the model's engine for
    # all three calls, on the model's generator table and polynomial.
    measured = [e for e in built if e is not model.engine]
    assert len(built) == 2 and len(measured) == 1
    assert measured[0] is _measured_engine(model, m)
    assert measured[0].tables[0] is model.engine.tables[0]
    assert measured[0].poly(1e-3) is model.engine.poly(1e-3)


def test_pairings_step_alike_across_threads():
    # Threads pairing one model with two measurements at two step sizes share
    # the model's tables; each must get its own measurement's and step's result.
    model = decay_model(rabi=1.0)
    cases = [(m, dt) for m in (heterodyne_mrep(0.8), homodyne_mrep(0.5)) for dt in (1e-3, 2e-3)]
    dw = np.array([0.01, -0.02])
    want = [sme_step_nonlinear(model, m, PLUS, dw, dt)[0] for m, dt in cases]
    start, wrong = threading.Barrier(len(cases)), []

    def run(i):
        m, dt = cases[i]
        start.wait()
        for _ in range(300):
            if not np.array_equal(sme_step_nonlinear(model, m, PLUS, dw, dt)[0], want[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def _records(ens) -> dict:
    """sha256 of each seeded record of an ensemble."""
    names = ("currents", "noise", "purity", "log_weight", "snapshots")
    return {k: hashlib.sha256(np.ascontiguousarray(getattr(ens, k))).hexdigest() for k in names}


def test_measured_engine_follows_in_place_writes_to_the_mrep():
    # MRep.matrix is writable: the slot is keyed by the ops' bytes, not by the object.
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    config = SimulationConfig(dt=1e-3, steps=30, n_traj=4, seed=7, snapshot_stride=10)
    simulate_ensemble(model, m, EXCITED, config)
    stale = _measured_engine(model, m)
    m.matrix[...] = homodyne_mrep(0.5, phase=0.3).matrix
    after = simulate_ensemble(model, m, EXCITED, config)
    fresh = simulate_ensemble(decay_model(rabi=1.0), homodyne_mrep(0.5, phase=0.3), EXCITED, config)
    assert _measured_engine(model, m) is not stale
    assert _records(after) == _records(fresh)


def test_measured_engine_slot_holds_the_last_measurement():
    model, het, hom = decay_model(rabi=1.0), heterodyne_mrep(0.8), homodyne_mrep(0.6)
    config = SimulationConfig(dt=1e-3, steps=30, n_traj=4, seed=8, mode="linear")
    first = _measured_engine(model, het)
    want = _records(simulate_ensemble(model, het, EXCITED, config))
    # An equal matrix in another object hits; another measurement evicts.
    assert _measured_engine(model, heterodyne_mrep(0.8)) is first
    other = _measured_engine(model, hom)
    assert other is not first and _measured_engine(model, hom) is other
    assert _records(simulate_ensemble(model, het, EXCITED, config)) == want
    assert _measured_engine(model, het) is not first


def test_scale_mismatch_rejected_on_a_cached_pairing():
    # The same ops bytes at another hbar must still be refused, not served from the slot.
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    engine = _measured_engine(model, m)
    scaled = MRep(m.matrix, hbar=2.0)
    message = "^model and measurement matrix carry different scales: 1.0 vs 2.0$"
    with pytest.raises(ValidationError, match=message):
        sme_step_nonlinear(model, scaled, EXCITED, np.zeros(2), dt=1e-3)
    config = SimulationConfig(dt=1e-3, steps=2, n_traj=2, seed=0)
    with pytest.raises(ValidationError, match=message):
        simulate_ensemble(model, scaled, EXCITED, config)
    assert _measured_engine(model, m) is engine


def test_single_steps_build_the_backaction_tables_once(monkeypatch):
    # Twenty steps on one pairing: the generator table and one back-action table set.
    built = []
    table = dynamics._coordinate_table

    def counted(n, maps, scale=1.0):
        built.append(len(maps))
        return table(n, maps, scale)

    monkeypatch.setattr(dynamics, "_coordinate_table", counted)
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    for k in range(10):
        sme_step_nonlinear(model, m, EXCITED, np.array([0.01, -0.02 * k]), dt=1e-3)
        sme_step_linear(model, m, PLUS, np.array([0.03 * k, 0.01]), dt=1e-3)
    assert sorted(built) == [1, 2]  # one generator, one along the two measured ops


@pytest.mark.parametrize("dim, mode", [(2, "nonlinear"), (2, "linear"), (8, "nonlinear"), (32, "nonlinear")])
def test_repeated_ensemble_reproduces_its_records(dim, mode):
    # The qubit in both modes, and the benchmark's Kerr cavities.
    if dim == 2:
        model, m, rho0 = decay_model(rabi=1.0), heterodyne_mrep(0.8), EXCITED
    else:
        model, m, rho0 = _bench_cavity(dim)
    steps = {2: 60, 8: 40, 32: 4}[dim]
    config = SimulationConfig(dt=1e-3, steps=steps, n_traj=16, seed=9, mode=mode)
    first = _records(simulate_ensemble(model, m, rho0, config))
    engine = _measured_engine(model, m)
    assert _records(simulate_ensemble(model, m, rho0, config)) == first
    assert _measured_engine(model, m) is engine


@pytest.mark.parametrize("block_steps", [-1, 0, 2.5, True, False, "8", None])
def test_ensemble_rejects_bad_block_steps(block_steps):
    # -1 used to end in an UnboundLocalError, 0 in range's ValueError, 2.5 and True in a TypeError.
    model, m = decay_model(), heterodyne_mrep(0.8)
    config = SimulationConfig(dt=1e-3, steps=4, n_traj=2, seed=1)
    message = re.escape(f"block_steps must be a positive integer, got {block_steps!r}")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        simulate_ensemble(model, m, EXCITED, config, block_steps=block_steps)
    simulate_ensemble(model, m, EXCITED, config, block_steps=np.int64(3))


def _first_negative(rho, tol):
    """The ensemble's positivity monitor on a stack of unit-trace Hermitian matrices."""
    from diffmon.dynamics import _first_negative_state, _purity

    return _first_negative_state(g := _gather(rho), _purity(g), tol)


def test_positivity_monitor_names_trajectory_and_step():
    gen = rng(63)
    rho = np.stack([random_pure_state(gen, 3) for _ in range(5)])
    assert _first_negative(rho, 1e-9) is None
    rho[3:] = _states_with_min_eigenvalue(gen, 3, [-2e-3, -2e-3])
    assert _first_negative(rho, 3e-3) is None
    k, wmin = _first_negative(rho, 1e-3)
    assert (k, f"{wmin:.3e}") == (3, "-2.000e-03")


def test_ensemble_rejects_records_beyond_memory(monkeypatch):
    def no_streams(*args, **kwargs):
        raise AssertionError("noise streams built before the memory check")

    monkeypatch.setattr("diffmon.sme.lattice_streams", no_streams)
    config = SimulationConfig(dt=1e-3, steps=10**6, n_traj=10**7, seed=1)
    with pytest.raises(ValidationError, match="GiB, more than the .* of physical memory"):
        simulate_ensemble(decay_model(), heterodyne_mrep(0.8), EXCITED, config)


def test_ensemble_allocation_failure_is_validation_error(monkeypatch):
    # Past the estimate, an allocation the address space cannot hold still
    # ends in the same error, not a MemoryError.
    monkeypatch.setattr("diffmon.dynamics._physical_memory", lambda: np.inf)
    config = SimulationConfig(dt=1e-3, steps=10**8, n_traj=10**8, seed=1)
    with pytest.raises(ValidationError, match="cannot allocate"):
        simulate_ensemble(decay_model(), heterodyne_mrep(0.8), EXCITED, config)


def test_ensemble_rejects_tables_beyond_memory(monkeypatch):
    # A dense model above d = 12 needs (1 + J) d^4 table entries; they are
    # counted before any table is built.  The cavity's CSR tables fit.
    def no_tables(*args, **kwargs):
        raise AssertionError("tables built before the memory check")

    monkeypatch.setattr("diffmon.dynamics._physical_memory", lambda: 2.0**19)
    gen, dim = rng(600), 16
    h = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    dense = LindbladModel(
        hamiltonian=h + h.conj().T, lindblads=gen.normal(size=(1, dim, dim)) + 0j
    )
    config = SimulationConfig(dt=1e-3, steps=4, n_traj=2, seed=1)
    rho0 = random_state(gen, dim)
    with monkeypatch.context() as patch:
        patch.setattr("diffmon.dynamics._table_kit", no_tables)
        message = r"^the model's tables need 0\.000977 GiB, more than the 0\.000488 GiB of physical"
        with pytest.raises(ValidationError, match=message):
            simulate_ensemble(dense, heterodyne_mrep(0.8), rho0, config)
    simulate_ensemble(cavity_model(dim), heterodyne_mrep(0.8), rho0, config)


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
    # Also with more trajectories than one buffer of raw outputs holds.
    model = decay_model(rabi=1.0)
    for n_traj in (5, _STREAMS + 44):
        config = SimulationConfig(
            dt=5e-3, steps=23, n_traj=n_traj, seed=14, mode=mode, snapshot_stride=4
        )
        runs = [
            simulate_ensemble(model, heterodyne_mrep(0.8), EXCITED, config, block_steps=b)
            for b in (1, 3, 7, 256)
        ]
        for ens in runs[1:]:
            for field in ("currents", "noise", "purity", "log_weight", "snapshots"):
                assert np.array_equal(getattr(ens, field), getattr(runs[0], field)), field


@pytest.mark.parametrize("seed", (-1, 2**64))
def test_ensemble_rejects_seed_before_any_draw(monkeypatch, seed):
    def no_draws():
        raise AssertionError("noise drawn before the seed was checked")

    monkeypatch.setattr("diffmon.noise._shared_bits", no_draws)
    config = SimulationConfig(dt=1e-3, steps=10, n_traj=3, seed=seed)
    with pytest.raises(ValidationError, match="base_seed must fit in an unsigned 64-bit integer"):
        simulate_ensemble(decay_model(), heterodyne_mrep(0.8), EXCITED, config)


def test_nonlinear_log_weight_is_a_read_only_zero_view():
    model = decay_model(rabi=1.0)
    config = SimulationConfig(dt=5e-3, steps=12, n_traj=3, seed=15)
    ens = simulate_ensemble(model, heterodyne_mrep(0.8), EXCITED, config)
    assert ens.log_weight.shape == (3, 13)
    assert not ens.log_weight.flags.writeable
    assert np.all(ens.log_weight == 0.0)
    with pytest.raises(ValueError):
        ens.log_weight[0, 1] = 1.0
    assert np.array_equal(ens.log_weight[1], np.zeros(13))


def test_memory_estimate_counts_log_weights_in_linear_mode_only(monkeypatch):
    # Exactly the nonlinear run's records: (12 currents + 12 noise + 7
    # purities) x 8 bytes per trajectory, and 16 bytes for each entry of its
    # 7 snapshots of 2 x 2 states.
    n, steps = 3, 6
    need = n * (8 * (steps * 2 * 2 + (steps + 1)) + 16 * (steps + 1) * 4)
    monkeypatch.setattr("diffmon.dynamics._physical_memory", lambda: float(need))
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


def test_linear_step_rejects_non_positive_traces():
    # The log-weight increment log(Tr out / Tr in) needs both traces positive.
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    with pytest.raises(StateInvalidError, match="input trace"):
        sme_step_linear(model, m, -PLUS, np.zeros(2), 1e-3)
    with pytest.raises(StateInvalidError, match="updated trace"):
        sme_step_linear(model, m, PLUS, np.array([-10.0, -10.0]), 1e-3)


@pytest.mark.parametrize("mode", ["nonlinear", "linear"])
def test_ensemble_names_non_finite_trace(mode):
    # The positivity monitor's Cholesky does not fail on a NaN state, so a
    # step that overflows must be caught by its trace.
    config = SimulationConfig(dt=1e-3, steps=5, n_traj=3, seed=1, mode=mode)
    with np.errstate(all="ignore"):
        model = LindbladModel(hamiltonian=1e300 * SIGMA_X, lindblads=SIGMA_M)
        with pytest.raises(StateInvalidError, match="trajectory 0, step 1: non-finite trace"):
            simulate_ensemble(model, heterodyne_mrep(0.8), EXCITED, config)


def test_nonlinear_ensemble_names_a_zero_trace():
    # A step of 2^63 cancels the driven qubit's trace to exactly 0.  The nonlinear runner
    # divided by it with a warning and recorded inf purities; the integrator warned too.
    model, config = decay_model(rabi=1.0), SimulationConfig(dt=2.0**63, steps=1, n_traj=1, seed=0)
    with pytest.raises(StateInvalidError, match=r"^trajectory 0, step 1: non-positive trace 0\.000e\+00$"):
        simulate_ensemble(model, heterodyne_mrep(1.0), PLUS, config)
    with pytest.raises(StateInvalidError, match="^non-finite state at step 1$"):
        me_integrate(model, PLUS, 2.0**63, 1)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dt", (1e74, 1e76))
def test_ensemble_names_a_non_finite_normalized_state(dt, mode):
    # A d = 4 cavity's traces stay finite and positive while its normalized coordinates
    # overflow: their inf purities reached eigvalsh, which raised a LinAlgError.  The state
    # is named where its step checks its trace, with positivity monitored or not.
    model = _bench_cavity(4)[0]
    for tol in (None, np.inf):
        config = SimulationConfig(dt=dt, steps=3, n_traj=3, seed=1, mode=mode, positivity_tol=tol)
        message = "^trajectory 0, step 2: normalized state of non-finite purity inf$"
        with pytest.raises(StateInvalidError, match=message):
            simulate_ensemble(model, heterodyne_mrep(0.8), np.eye(4) / 4, config)


def test_huge_positivity_tolerance_runs():
    # The purity ceiling squared 1 + d tol / 2 with **, which raised an OverflowError
    # past tol = 1e154; a product overflows to inf, and no state is screened out.  A numpy
    # float tolerance, as a numpy float dt makes, overflowed there with a RuntimeWarning.
    for tol in (1e300, np.float64(1e300)):
        assert dynamics._purity_ceiling(2, tol) == np.inf
        config = SimulationConfig(dt=1e-3, steps=3, n_traj=2, seed=1, positivity_tol=tol)
        simulate_ensemble(decay_model(), heterodyne_mrep(0.8), EXCITED, config)
    for dt in (3.2e152, np.float64(3.2e152)):
        config = SimulationConfig(dt=dt, steps=3, n_traj=3, seed=1)
        with pytest.raises(StateInvalidError, match="^trajectory 0, step 1: non-finite trace nan$"):
            simulate_ensemble(decay_model(), heterodyne_mrep(0.8), EXCITED, config)


def test_model_with_overflowing_rates_is_refused():
    # sum_k c_k^dag c_k of a 1e200 entry overflowed with a warning, and the model ran on to a
    # NaN trace.  Its engine now refuses it by name.
    model = LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=1e200 * SIGMA_M)
    message = r"^the model's rates sum_k c_k\^dag c_k are not finite$"
    with pytest.raises(ValidationError, match=message):
        me_integrate(model, EXCITED, 1e-3, 2)
    with pytest.raises(ValidationError, match=message):
        simulate_ensemble(model, heterodyne_mrep(0.8), EXCITED, SimulationConfig(
            dt=1e-3, steps=2, n_traj=2, seed=1))


def test_model_with_overflowing_tables_is_refused():
    # H / hbar = 1e350 overflowed the generator table with warnings, and stepped NaN states.
    model = LindbladModel(hamiltonian=1e200 * SIGMA_X, lindblads=SIGMA_M, hbar=1e-150)
    with pytest.raises(ValidationError, match="^the model's generator or back-action table"):
        me_integrate(model, EXCITED, 1e-3, 2)


def test_me_integrate_names_a_non_finite_state():
    # An RK4 step that overflows returned NaN states after a warning; it is now named.
    model = LindbladModel(hamiltonian=1e300 * SIGMA_X, lindblads=SIGMA_M)
    with pytest.raises(StateInvalidError, match="^non-finite state at step 1$"):
        me_integrate(model, EXCITED, 1e-3, 3)


@pytest.mark.parametrize("field, value", [("positivity_tol", np.nan), ("positivity_tol", -1.0)])
def test_config_rejects_bad_monitor_settings(field, value):
    # A NaN tolerance used to switch the monitor off, and a negative one printed
    # "below --1.000e+00".
    with pytest.raises(ValidationError, match=field):
        SimulationConfig(dt=1e-3, steps=1, n_traj=1, seed=0, **{field: value})
    for tol in (0.0, np.inf):
        SimulationConfig(dt=1e-3, steps=1, n_traj=1, seed=0, positivity_tol=tol)


@pytest.mark.parametrize(
    "field, value",
    [
        ("steps", 2.5), ("steps", True),
        ("n_traj", 2.5), ("n_traj", False),
        ("seed", 1.5), ("seed", True),
        ("snapshot_stride", 1.5), ("snapshot_stride", True),
    ],
)
def test_config_rejects_non_integer_counts(field, value):
    # A fractional seed used to run as its integer part, a fractional stride
    # labelled snapshots with fractional steps, and a fractional or bool
    # step or trajectory count ended in a TypeError inside the run.
    good = dict(dt=1e-3, steps=4, n_traj=2, seed=1, snapshot_stride=2)
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        SimulationConfig(**{**good, field: value})
    SimulationConfig(**{**good, field: np.int64(good[field])})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("steps", 0, "steps must be at least 1, got 0"),
        ("n_traj", 0, "n_traj must be at least 1, got 0"),
        ("snapshot_stride", 0, "snapshot_stride must be at least 1 when given"),
        ("mode", "quantum", "mode must be one of"),
    ],
)
def test_config_rejects_out_of_range_settings(field, value, message):
    good = dict(dt=1e-3, steps=4, n_traj=2, seed=1, snapshot_stride=2)
    with pytest.raises(ValidationError, match=message):
        SimulationConfig(**{**good, field: value})


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


@pytest.mark.parametrize("dim", (2, 3, 8, 16))
def test_positivity_monitor_matches_eigenvalue_reference(dim):
    from diffmon.dynamics import _purity, _purity_ceiling

    tol = 1e-3
    gen = rng(64 + dim)
    # Smallest eigenvalues straddling -tol, and mixed states the purity ceiling
    # clears (at d = 2 it bounds the smallest eigenvalue exactly).
    lams = np.array([-2.0, -1.01, -0.99, -0.6, -0.4, 0.0]) * tol
    mixed = np.full(dim, 1.0 / dim) * np.eye(dim) + 1e-3 * np.diag(np.linspace(-1.0, 1.0, dim))
    for trial in range(30):
        n = 12
        rho = _states_with_min_eigenvalue(gen, dim, gen.choice(lams, size=n))
        if trial % 3 == 0:  # only the last trajectory may fail
            rho[:-1] = _states_with_min_eigenvalue(gen, dim, [0.0] * (n - 1))
        rho[gen.integers(n - 1)] = mixed
        assert not (_purity(_gather(rho)) > _purity_ceiling(dim, tol)).all()
        wmin = np.linalg.eigvalsh(rho)[:, 0]
        bad = np.flatnonzero(wmin < -tol)
        if bad.size == 0:
            assert _first_negative(rho, tol) is None
            continue
        k, got = _first_negative(rho, tol)
        assert (k, f"{got:.3e}") == (bad[0], f"{wmin[k]:.3e}")


def _factorized(monkeypatch, g, p, tol):
    """The states (rows) that ``_first_negative_state`` hands to the factorization, or None."""

    class Batch(Exception):
        pass

    def batch(states):
        raise Batch(states.copy())

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_scatter", batch)
        try:
            dynamics._first_negative_state(g, p, tol)
        except Batch as exc:
            return exc.args[0]
    return None


def test_purity_bound_never_certifies_nan(monkeypatch):
    # A NaN coordinate makes a NaN purity, which the ceiling does not clear.
    from diffmon.dynamics import _purity

    g = _gather(np.stack([np.eye(3, dtype=complex) / 3.0] * 2))
    assert _factorized(monkeypatch, g, _purity(g), 1e-3) is None
    g[1, 4] = np.nan  # an off-diagonal coordinate
    assert np.array_equal(_factorized(monkeypatch, g, _purity(g), 1e-3), g[1:], equal_nan=True)


def _first_negative_by_brute_force(g, tol):
    """The monitor's decision with no bound: Cholesky of rho + tol I on every state, and
    ``eigvalsh`` to name the first state below -tol once the factorization fails."""
    states = dynamics._scatter(g)
    try:
        np.linalg.cholesky(states + tol * np.eye(states.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        wmin = np.linalg.eigvalsh(states)[:, 0]
    bad = np.flatnonzero(wmin < -tol)
    return (int(bad[0]), float(wmin[bad[0]])) if bad.size else None


@pytest.mark.parametrize("tol", (0.0, 1e-12, 1e-6, 0.06, 1.176, 20.8, 1e6))
@pytest.mark.parametrize("dim", (2, 3, 8, 16))
def test_certified_depth_changes_no_monitor_decision(dim, tol):
    # The bounds certify down to -(tol - m), m = min(tol/2, 1e-9 (1 + tol)).  Least
    # eigenvalues 1e-12 and 1e-7 (relative) on either side of -tol, of that depth and of
    # -tol/2, in random and in permuted diagonal bases (where Gershgorin is exact): each
    # state alone and shuffled stacks get the brute-force decision and name.
    from diffmon.dynamics import _certified_depth, _first_negative_state, _purity

    gen = rng(1500 + dim + int(1e3 * tol) % 997)
    lams = [
        -level + sign * eps * (1.0 + level)
        for level in (tol, _certified_depth(tol), 0.5 * tol)
        for eps in (1e-12, 1e-7)
        for sign in (1.0, -1.0)
    ]
    rho = _states_with_min_eigenvalue(gen, dim, lams)
    diag = [np.concatenate([[lam], (1.0 - lam) * gen.dirichlet(np.ones(dim - 1))]) for lam in lams]
    rho = np.concatenate([rho, np.stack([np.diag(gen.permutation(v)) for v in diag])])
    g = _gather(rho)
    stacks = [[k] for k in range(len(g))] + [gen.permutation(len(g)) for _ in range(10)]
    named = 0
    for idx in stacks:
        cols = np.ascontiguousarray(g[idx].T)  # the engine's layout
        want = _first_negative_by_brute_force(g[idx], tol)
        assert _first_negative_state(cols.T, _purity(g[idx]), tol) == want
        named += want is not None
    assert 0 < named < len(stacks)


def _bench_cavity(dim=8):
    """The benchmark's d = 8 case: damped Kerr cavity, homodyne eta 0.7, coherent start, nbar 1."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    num = a.conj().T @ a
    model = LindbladModel(hamiltonian=0.3 * num @ num, lindblads=a[None])
    psi = np.exp(0.7j * np.arange(dim)) / np.sqrt(np.cumprod([1.0, *range(1, dim)]))
    psi /= np.linalg.norm(psi)
    return model, homodyne_mrep(0.7, phase=0.4), np.outer(psi, psi.conj())


def test_cavity_monitor_factorizes_no_state(monkeypatch):
    # At d = 8 the automatic tolerance is about 1.18.  Certified down to
    # -(tol - 1e-9 (1 + tol)), the purity ceiling is 2.06 and clears every state at every
    # step: the exact monitor is never called and nothing is factorized.
    from diffmon import sme

    model, mrep, rho0 = _bench_cavity()
    monitored, factorized = [], []
    first_negative, cholesky = sme._first_negative_state, np.linalg.cholesky

    def counted_monitor(g, p, tol):
        monitored.append(len(g))
        return first_negative(g, p, tol)

    def counted_cholesky(a, *args, **kwargs):
        factorized.append(len(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(sme, "_first_negative_state", counted_monitor)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    simulate_ensemble(model, mrep, rho0, SimulationConfig(dt=1e-3, steps=80, n_traj=50, seed=1))
    tol = sme._auto_positivity_tol(_measured_engine(model, mrep), 1e-3)
    assert dynamics._purity_ceiling(8, tol) > 2.0  # a trace-one state's purity is at most 1
    assert monitored == []
    assert factorized == []


@pytest.mark.parametrize("dim", (3, 6, 8))
def test_cavity_positivity_abort_names_the_eigenvalue_reference(dim):
    # A tolerance far below the Ito step's dip forces an abort; the message names the first
    # trajectory and step whose smallest eigenvalue is below -tol.  At d = 6 a Gershgorin
    # tier used to clear every state the purity ceiling left to the factorization.
    model, mrep, rho0 = _bench_cavity(dim)
    tol = 1e-6
    config = SimulationConfig(dt=1e-3, steps=80, n_traj=50, seed=1, positivity_tol=tol)
    with pytest.raises(StateInvalidError) as info:
        simulate_ensemble(model, mrep, rho0, config)
    step = int(str(info.value).split("step ")[1].split(":")[0])
    free = SimulationConfig(
        dt=1e-3, steps=step, n_traj=50, seed=1, positivity_tol=np.inf, snapshot_stride=1
    )
    states = simulate_ensemble(model, mrep, rho0, free).snapshots
    wmin = np.linalg.eigvalsh(states[1:]).min(axis=-1)
    m, k = np.argwhere(wmin < -tol)[0]
    assert m + 1 == step
    assert str(info.value) == (
        f"trajectory {k}, step {step}: min eigenvalue {wmin[m, k]:.3e} below -{tol:.3e}"
    )


@pytest.mark.parametrize(
    "steps, stride",
    [(1, None), (7, None), (50, None), (101, None), (149, None), (3000, None),
     (5, 10), (12, 3), (12, 5), (1, 1), (10, 10), (10, 11)],
)
def test_snapshot_grid_matches_union(steps, stride):
    # The grid used to come from np.union1d, whose first call imports numpy.ma.
    from diffmon.sme import _snapshot_steps

    want = np.union1d(np.arange(0, steps + 1, stride or max(1, steps // 50)), [steps])
    got = _snapshot_steps(steps, stride)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _scripted_noise(kicks):
    """A block draw of zero increments but for ``kicks[(trajectory, step)]``, in normal units."""

    def lattice_streams(seed, first_stream, start, out):
        out[...] = 0.0
        for (k, step), v in kicks.items():
            if start < step <= start + len(out):
                out[step - 1 - start, :, k - first_stream] = v
        return out

    return lattice_streams


def _scripted_failure(monkeypatch, kicks, model, m, rho0, **config):
    """The error of a run whose only noise is ``kicks``, the same for block_steps 1, 37 and 256."""
    monkeypatch.setattr("diffmon.sme.lattice_streams", _scripted_noise(kicks))
    monkeypatch.setattr("diffmon.sme.lattice_normals", np.array)
    found = set()
    for block_steps in (1, 37, 256):
        config = dict(dict(dt=1e-3, steps=150, n_traj=5, seed=0), **config)
        with pytest.raises(DiffmonError) as info, np.errstate(all="ignore"):
            simulate_ensemble(model, m, rho0, SimulationConfig(**config), block_steps=block_steps)
        found.add((type(info.value), str(info.value)))
    assert len(found) == 1
    return found.pop()


def _kick_for_trace(model, m, rho0, step, trace, dt=1e-3):
    """Normals at ``step`` that take the noise-free state's linear trace to ``trace``."""
    from diffmon.dynamics import measurement_ops

    rho = me_integrate(model, rho0, dt, step - 1)[-1]
    ops = measurement_ops(m, model.lindblads)
    cur = [2.0 * np.real(np.trace(op @ rho)) / model.hbar for op in ops]
    return np.array([(trace - 1.0) / (cur[0] * np.sqrt(dt)), 0.0])


@pytest.mark.parametrize("mode", ["nonlinear", "linear"])
def test_ensemble_names_non_finite_trace_mid_block(monkeypatch, mode):
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    cls, message = _scripted_failure(
        monkeypatch, {(2, 100): [np.inf, 0.0]}, model, m, EXCITED, mode=mode
    )
    assert cls is StateInvalidError
    assert message == "trajectory 2, step 100: non-finite trace nan"


@pytest.mark.parametrize("mode", ["nonlinear", "linear"])
def test_ensemble_names_non_finite_trace_mid_block_above_the_tables(monkeypatch, mode):
    # d = 16 steps by a CSR table, not a dense one: the same error, found at
    # the same step, whatever the block size.
    model = cavity_model(16)
    assert _measured_engine(model, heterodyne_mrep(0.8)).sme_table(1e-3).format == "csr"
    cls, message = _scripted_failure(
        monkeypatch, {(2, 100): [np.inf, 0.0]}, model, heterodyne_mrep(0.8),
        random_state(rng(580), 16), mode=mode,
    )
    assert cls is StateInvalidError
    assert message == "trajectory 2, step 100: non-finite trace nan"


@pytest.mark.parametrize("dim", (2, 8))
def test_trajectory_records_agree_across_ensemble_sizes(dim):
    # Trajectory k draws the same stream whatever n_traj; only the BLAS kernel
    # chosen for the width of the step product may move its last bits.
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    model = LindbladModel(hamiltonian=0.3 * (a + a.conj().T), lindblads=a)
    rho0 = random_state(rng(590 + dim), dim)
    common = dict(dt=1e-3, steps=200, seed=59, snapshot_stride=25)
    m = heterodyne_mrep(0.8)
    runs = {
        n: simulate_ensemble(model, m, rho0, SimulationConfig(n_traj=n, **common))
        for n in (1, 2, 7, 64)
    }
    for n, ens in runs.items():
        assert np.max(np.abs(ens.currents - runs[64].currents[:n])) <= 1e-13
        assert np.max(np.abs(ens.snapshots - runs[64].snapshots[:, :n])) <= 1e-13


def test_trajectory_replays_bitwise_above_the_dense_tables():
    # A CSR product gives each column the same bits at any width, so above
    # d = 12 a trajectory's record does not depend on the ensemble size.
    dim = 16
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    model = LindbladModel(hamiltonian=0.3 * (a + a.conj().T), lindblads=a)
    rho0 = random_state(rng(595), dim)
    common = dict(dt=1e-3, steps=60, seed=59, snapshot_stride=15)
    runs = {
        n: simulate_ensemble(model, heterodyne_mrep(0.8), rho0, SimulationConfig(n_traj=n, **common))
        for n in (1, 2, 16)
    }
    for n, ens in runs.items():
        assert np.array_equal(ens.currents, runs[16].currents[:n])
        assert np.array_equal(ens.snapshots, runs[16].snapshots[:, :n])
        # The purity record is a BLAS reduction over the trajectories, whose
        # summation order follows the width at every d.
        assert np.max(np.abs(ens.purity - runs[16].purity[:n])) <= 1e-15


def test_ensemble_names_non_positive_trace_mid_block(monkeypatch):
    model, m = decay_model(), homodyne_mrep(1.0)
    kick = _kick_for_trace(model, m, PLUS, 100, -0.5)
    cls, message = _scripted_failure(monkeypatch, {(3, 100): kick}, model, m, PLUS, mode="linear")
    assert cls is StateInvalidError
    assert message == "trajectory 3, step 100: non-positive trace -5.000e-01"


def test_ensemble_names_weight_floor_mid_block(monkeypatch):
    model, m = decay_model(), homodyne_mrep(1.0)
    kick = _kick_for_trace(model, m, PLUS, 100, 2e-3)
    monkeypatch.setattr(sme, "_LOG_WEIGHT_FLOOR", -5.0)
    cls, message = _scripted_failure(monkeypatch, {(1, 100): kick}, model, m, PLUS, mode="linear")
    assert cls is WeightUnderflowError
    assert message == f"trajectory 1, step 100: log-weight {np.log(2e-3):.1f} below floor"


def test_ensemble_names_positivity_loss_mid_block(monkeypatch):
    model, m, dt, tol = decay_model(), heterodyne_mrep(0.8), 1e-3, 1e-3
    kick = np.array([40.0, 0.0])
    rho = me_integrate(model, EXCITED, dt, 99)[-1]
    out, _y = sme_step_nonlinear(model, m, rho, kick * np.sqrt(dt), dt)
    lam = np.linalg.eigvalsh(out)[0]
    assert lam < -tol
    cls, message = _scripted_failure(
        monkeypatch, {(4, 100): kick}, model, m, EXCITED, positivity_tol=tol
    )
    assert cls is StateInvalidError
    assert message == f"trajectory 4, step 100: min eigenvalue {lam:.3e} below -{tol:.3e}"


def test_ensemble_names_the_first_failing_step_across_check_kinds(monkeypatch):
    # The ensemble checks a window of steps at once, but names the step the per-step
    # order names: positivity lost at step 100 before a non-finite trace at 103, the trace
    # at 100 before positivity lost at 103, and within one step the trace first.
    model, m, dt, tol = decay_model(), heterodyne_mrep(0.8), 1e-3, 1e-3
    kick, blow_up = np.array([40.0, 0.0]), [np.inf, 0.0]
    rho = me_integrate(model, EXCITED, dt, 99)[-1]
    lam = np.linalg.eigvalsh(sme_step_nonlinear(model, m, rho, kick * np.sqrt(dt), dt)[0])[0]
    positivity = f"trajectory 4, step 100: min eigenvalue {lam:.3e} below -{tol:.3e}"
    trace = "trajectory 2, step 100: non-finite trace nan"

    def failure(kicks):
        return _scripted_failure(monkeypatch, kicks, model, m, EXCITED, positivity_tol=tol)

    assert failure({(4, 103): kick})[1].startswith("trajectory 4, step 103: min eigenvalue")
    assert failure({(2, 103): blow_up})[1] == "trajectory 2, step 103: non-finite trace nan"
    assert failure({(4, 100): kick, (2, 103): blow_up}) == (StateInvalidError, positivity)
    assert failure({(2, 100): blow_up, (4, 103): kick}) == (StateInvalidError, trace)
    assert failure({(4, 100): kick, (2, 100): blow_up}) == (StateInvalidError, trace)


def test_ensemble_names_the_earlier_of_weight_floor_and_trace(monkeypatch):
    # A weight under the floor at step 100 is named before a non-finite trace at 102, and a
    # non-positive trace at step 100 before the weight under the floor at that step.
    model, m = decay_model(), homodyne_mrep(1.0)
    low, negative = (_kick_for_trace(model, m, PLUS, 100, t) for t in (2e-3, -0.5))
    floor = f"trajectory 1, step 100: log-weight {np.log(2e-3):.1f} below floor"
    monkeypatch.setattr(sme, "_LOG_WEIGHT_FLOOR", -5.0)

    def failure(kicks):
        return _scripted_failure(monkeypatch, kicks, model, m, PLUS, mode="linear")

    assert failure({(1, 100): low, (3, 102): [np.inf, 0.0]}) == (WeightUnderflowError, floor)
    assert failure({(1, 100): low, (3, 100): negative}) == (
        StateInvalidError, "trajectory 3, step 100: non-positive trace -5.000e-01"
    )


@pytest.mark.parametrize("mode", MODES)
def test_ensemble_steps_past_a_failure_without_warnings(monkeypatch, mode):
    # The window steps on after a state goes non-finite at step 100, through NaN states to
    # step 150; with RuntimeWarning an error, the run still ends in the named error.
    monkeypatch.setattr("diffmon.sme.lattice_streams", _scripted_noise({(2, 100): [np.inf, 0.0]}))
    monkeypatch.setattr("diffmon.sme.lattice_normals", np.array)
    config = SimulationConfig(dt=1e-3, steps=150, n_traj=5, seed=0, mode=mode)
    message = r"^trajectory 2, step 100: non-finite trace nan$"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StateInvalidError, match=message):
            simulate_ensemble(decay_model(rabi=1.0), heterodyne_mrep(0.8), EXCITED, config)


def test_single_steps_name_a_bad_updated_trace():
    # A step of 2^63 cancels the summed trace to 0: the nonlinear step divided by it with
    # a RuntimeWarning, and an infinite increment gave the linear step a NaN log-weight.
    model = decay_model(rabi=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StateInvalidError, match=r"^updated trace 0\.0 is not finite and"):
            sme_step_nonlinear(model, heterodyne_mrep(1.0), PLUS, np.zeros(2), 2.0**63)
        with pytest.raises(StateInvalidError, match=r"^updated trace nan is not finite and"):
            sme_step_linear(model, heterodyne_mrep(0.8), PLUS, np.array([np.inf, 0.0]), 1e-3)


def _stepwise_records(model, m, rho0, config) -> dict:
    """The records of ``simulate_ensemble``, with one ``_Engine.sme_step`` per step and
    every record made at its step, from the whole run's noise drawn at once."""
    engine, n, dt, steps = _measured_engine(model, m), config.n_traj, config.dt, config.steps
    linear, pw = config.mode == "linear", dynamics._coordinate_weights(model.dim)[1]
    dw = lattice_normals(lattice_streams(config.seed, 0, 0, np.empty((steps, len(engine.ops), n))))
    dw *= np.sqrt(dt)
    x = engine.operand(np.repeat(_gather(rho0)[:, None], n, axis=1))
    g = x[: model.dim**2]
    states, pur, logw, cur = [g.T.copy()], [pw @ np.square(g)], [np.zeros(n)], []
    for i in range(steps):
        out, tr, mean = engine.sme_step(x, engine.rt @ dw[i], dt, linear)
        assert np.isfinite(tr).all() and (tr > 0.0).all()
        logw.append(logw[-1] + np.log(tr) if linear else logw[-1])
        cur.append(((np.zeros_like(mean) if linear else mean) * dt + dw[i]) / dt)
        np.divide(out, tr, out=g)
        pur.append(pw @ np.square(g))
        states.append(g.T.copy())
    grid = sme._snapshot_steps(steps, config.snapshot_stride)
    snaps = dynamics._scatter(np.stack(states)[grid])
    snaps[0] = rho0
    return {
        "currents": np.stack(cur).transpose(2, 0, 1), "noise": dw.transpose(2, 0, 1),
        "purity": np.stack(pur).T, "log_weight": np.stack(logw).T,
        "snapshot_steps": grid, "snapshots": snaps,
    }


@pytest.mark.parametrize("block_steps", (1, 7, 256))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "dim, n_traj, steps", [(2, 1, 300), (2, 30, 300), (2, 500, 40), (3, 20, 60), (16, 3, 60)]
)
def test_windowed_ensemble_matches_a_stepwise_reference(
    monkeypatch, dim, n_traj, steps, mode, block_steps
):
    # Checks and records run once per window of steps (136 steps at n = 30, 8 at n = 500,
    # 42 at the d = 16 CSR cavity), on the same bits a step-by-step run gives.  At the d = 3
    # Kerr cavity the automatic tolerance puts the purity ceiling (0.65) under the near-pure
    # states' purities: every window there fails its screen and is checked step by step.
    if dim == 2:
        model, m, rho0 = decay_model(rabi=1.0), heterodyne_mrep(0.8), EXCITED
    elif dim == 3:
        model, m, rho0 = _bench_cavity(3)
    else:
        model, m, rho0 = cavity_model(dim), heterodyne_mrep(0.8), random_state(rng(600), dim)
        assert _measured_engine(model, m).sme_table(1e-3).format == "csr"
    checked, check_step = [], sme._check_step

    def counted(step, *args):
        checked.append(step)
        return check_step(step, *args)

    monkeypatch.setattr(sme, "_check_step", counted)
    config = SimulationConfig(
        dt=1e-3, steps=steps, n_traj=n_traj, seed=61, mode=mode, snapshot_stride=13
    )
    ens = simulate_ensemble(model, m, rho0, config, block_steps=block_steps)
    assert checked == (list(range(1, steps + 1)) if dim == 3 else [])
    want = _stepwise_records(model, m, rho0, config)
    for name, value in want.items():
        assert np.array_equal(getattr(ens, name), value), name


@pytest.mark.parametrize("mode", MODES)
def test_ensemble_scratch_memory_stays_bounded(mode):
    # Beyond its records, a run at the benchmark's qubit shape holds the noise block, its
    # draw's temporaries, the snapshot coordinates and the window: 1.92 MB in either mode.
    config = SimulationConfig(dt=1e-3, steps=100, n_traj=500, seed=1, mode=mode)
    model, m = decay_model(), heterodyne_mrep(0.8)
    simulate_ensemble(model, m, EXCITED, replace(config, steps=2, n_traj=2))  # builds the tables
    tracemalloc.start()
    try:
        ens = simulate_ensemble(model, m, EXCITED, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = [ens.times, ens.currents, ens.noise, ens.purity, ens.snapshot_steps, ens.snapshots]
    if mode == "linear":  # a nonlinear run's log-weights are a view of one zero
        records.append(ens.log_weight)
    assert peak - sum(a.nbytes for a in records) < 2 * 2**20


@pytest.mark.parametrize("dim", (2, 3, 8))
@pytest.mark.parametrize("tol", (0.0, 1e-6, 0.06, 1.0))
def test_purity_ceiling_passes_only_certified_states(dim, tol):
    # Unit-trace states whose spectrum makes the purity bound exact (the other d - 1
    # eigenvalues equal), normalized as the ensemble normalizes them, with least eigenvalues
    # 1e-9 to 1e-3 (relative) on either side of the certified depth -c: the ceiling clears
    # exactly those above it, and eigvalsh finds every cleared state at or above -c.
    from diffmon.dynamics import _certified_depth, _purity, _purity_ceiling, _scatter, _trace

    gen = rng(900 + 10 * dim + int(100 * tol))
    level = _certified_depth(tol)
    eps = np.concatenate([[1e-9, 1e-7, 1e-3], 10.0 ** gen.uniform(-9, -3, 50)])
    eps = np.concatenate([eps, -eps])
    rho = []
    for lam in -level + eps * (1.0 + level):
        q, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
        rho.append((q * np.append(lam, np.full(dim - 1, (1.0 - lam) / (dim - 1)))) @ q.conj().T)
    g = _gather(np.stack(rho))
    g /= _trace(g)[:, None]
    cleared = _purity(g) <= _purity_ceiling(dim, tol)
    assert cleared.tolist() == (eps > 0).tolist()
    assert np.all(np.linalg.eigvalsh(_scatter(g[cleared]))[:, 0] >= -level)


# ---------------------------------------------------------------------------
# back-action along the measured directions only


def _two_channel_model(dim=3, seed=41):
    gen = rng(seed)
    h = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    cs = gen.normal(size=(2, dim, dim)) + 1j * gen.normal(size=(2, dim, dim))
    return LindbladModel(hamiltonian=(h + h.conj().T) / 4.0, lindblads=cs / 4.0)


def _tilted(theta, eps, eta=0.8):
    """L = 1 monitoring whose two columns are real-dependent exactly when eps = 0."""
    return MRep(np.sqrt(eta) * np.array([[np.cos(theta), np.sin(theta) * np.exp(1j * eps)]]))


def _rotated(m, seed):
    """M O for a random orthogonal O: the same unravelling, no column zero."""
    o = random_orthogonal(rng(seed), 2 * m.channels).matrix
    return MRep(m.matrix @ o, hbar=m.hbar)


_HOMODYNE_2 = MRep(np.array([[0.8, 0, 0, 0], [0, 0.6j * np.exp(0.3j), 0, 0]]))
_DARK_2 = MRep(random_mrep(rng(43), 2).matrix * np.array([[1.0], [0.0]]))

# (name, measurement, r, columns expected to be exactly zero)
RANK_CASES = [
    ("homodyne", homodyne_mrep(0.7, phase=0.4), 1, [1]),
    ("heterodyne", heterodyne_mrep(0.8), 2, []),
    ("homodyne O", _rotated(homodyne_mrep(0.7, phase=0.4), 44), 1, []),
    ("heterodyne O", _rotated(heterodyne_mrep(0.8), 45), 2, []),
    ("homodyne L=2", _HOMODYNE_2, 2, [2, 3]),
    ("homodyne L=2 O", _rotated(_HOMODYNE_2, 46), 2, []),
    ("heterodyne L=2 O", _rotated(random_mrep(rng(47), 2), 48), 4, []),
    ("dark channel", _DARK_2, 2, []),
    ("dependent within tol", _tilted(0.6, 1e-15), 1, []),
    ("dependent beyond tol", _tilted(0.6, 1e-6), 2, []),
]


@pytest.mark.parametrize("name, m, r, zero", RANK_CASES, ids=[c[0] for c in RANK_CASES])
def test_measured_directions_span_the_measurement(name, m, r, zero):
    kept, rt = dynamics._measured_directions(m)
    t = np.concatenate([m.matrix.real, m.matrix.imag])
    assert len(kept) == r
    assert rt.shape == (r, t.shape[1]) and not rt.flags.writeable
    assert np.array_equal(rt[:, kept], np.eye(r))  # exact on the kept columns
    if r == t.shape[1]:  # every column kept: exactly the identity
        assert list(kept) == list(range(r)) and np.array_equal(rt, np.eye(r))
    assert np.max(np.abs(t[:, kept] @ rt - t)) <= 1e-9 * np.linalg.norm(t)
    for j in zero:  # an exactly zero column gets an exact zero row of R
        assert not t[:, j].any() and not rt[:, j].any()
    if not zero:
        assert t.any(axis=0).all()


def test_rank_tolerance_sits_at_the_validators_tol():
    # A column within tol of the span is dropped, one twice as far is kept, scaled with hbar.
    for hbar in (1.0, 2.5):
        for eps, r in ((1e-9, 1), (4e-9, 2)):  # the second column is eps / 2 off the first
            m = MRep(np.sqrt(hbar) * np.array([[1.0, 1.0 + 1j * eps]]) / 2.0, hbar=hbar)
            assert len(dynamics._measured_directions(m)[0]) == r
            assert len(dynamics._measured_directions(m, tol=eps / 10)[0]) == 2
    # The zero measurement keeps one zero op, so that no table is empty.
    kept, rt = dynamics._measured_directions(MRep(np.zeros((2, 4))))
    assert kept == [0] and np.array_equal(rt, np.eye(1, 4))


@pytest.mark.parametrize("name, m, r, zero", RANK_CASES, ids=[c[0] for c in RANK_CASES])
@pytest.mark.parametrize("mode", MODES)
def test_reduced_engine_records_match_all_ops(monkeypatch, name, m, r, zero, mode):
    # Records of the engine built along the r kept directions against one built along all
    # 2L ops, on fresh models (the slot would hand back the first engine).
    model = _two_channel_model if m.channels == 2 else (lambda: decay_model(rabi=1.0))
    rho0 = EXCITED if m.channels == 1 else np.diag([0.2, 0.3, 0.5]).astype(complex)
    config = SimulationConfig(dt=1e-3, steps=40, n_traj=8, seed=5, mode=mode, snapshot_stride=8)
    reduced = simulate_ensemble(model(), m, rho0, config)
    engine = _measured_engine(model(), m)
    assert len(engine.kept) == r and len(engine.ops) == 2 * m.channels
    d2 = len(rho0) ** 2  # rows: states, 2L mean currents, cur . w and the trace
    assert engine.sme_table(1e-3).shape == (d2 + 2 * m.channels + 2, (1 + r) * d2)
    monkeypatch.setattr(
        dynamics, "_measured_directions", lambda m: (range(2 * m.channels), np.eye(2 * m.channels))
    )
    full = simulate_ensemble(model(), m, rho0, config)
    assert reduced.currents.shape == full.currents.shape == (8, 40, 2 * m.channels)
    for k in ("currents", "noise", "purity", "log_weight", "snapshots"):
        assert np.max(np.abs(getattr(reduced, k) - getattr(full, k))) <= 1e-13, k


def test_homodyne_single_steps_build_one_backaction_op(monkeypatch):
    # The companion of the heterodyne case above: the zero op gets no table.
    built = []
    table = dynamics._coordinate_table

    def counted(n, maps, scale=1.0):
        built.append(len(maps))
        return table(n, maps, scale)

    monkeypatch.setattr(dynamics, "_coordinate_table", counted)
    model, m = decay_model(rabi=1.0), homodyne_mrep(0.6, phase=0.2)
    for k in range(10):
        out, dy = sme_step_nonlinear(model, m, EXCITED, np.array([0.01, -0.02 * k]), dt=1e-3)
        assert dy.shape == (2,) and dy[1] == -0.02 * k  # the zero op's current is its noise
        sme_step_linear(model, m, PLUS, np.array([0.03 * k, 0.01]), dt=1e-3)
    assert built == [1, 1]  # one generator, one along the measured op


@pytest.mark.parametrize("tol", (1e-3, 0.5))
@pytest.mark.parametrize("dim", (3, 8))
def test_monitor_on_the_column_layout_certifies_as_on_gathered_rows(monkeypatch, dim, tol):
    # The ensemble hands the monitor the transpose of its (d^2, n) columns.  On it, as on a
    # gathered row copy, the monitor factorizes exactly the states above the purity ceiling,
    # NaN purities included.
    from diffmon.dynamics import _purity, _purity_ceiling

    gen = rng(1200 + dim + int(10 * tol))
    level = dynamics._certified_depth(tol)
    edge = []
    for lam in (-level * (1.0 - 1e-9), -level * (1.0 + 1e-9), -tol * (1.0 - 1e-9), -2.0 * tol):
        vals = np.concatenate([[lam], (1.0 - lam) * gen.dirichlet(np.ones(dim - 1))])
        edge.append(np.diag(gen.permutation(vals)).astype(complex))
    lams = np.array([-2.0, -1.0 - 1e-9, -1.0 + 1e-9, -0.5, 0.0]) * tol
    rho = np.concatenate([
        np.stack([random_state(gen, dim) for _ in range(10)]),
        np.stack([random_pure_state(gen, dim) for _ in range(10)]),
        np.stack([(random_state(gen, dim) + np.eye(dim)) / (1 + dim) for _ in range(10)]),
        _states_with_min_eigenvalue(gen, dim, gen.choice(lams, size=20)),
        np.stack(edge),
    ])
    rows = _gather(rho)
    for i, value in enumerate((np.nan, np.inf, -np.inf, np.nan, 1e200, -1e200)):
        rows[20 + i, gen.integers(dim * dim)] = value  # some of the mixed states
    cols = np.ascontiguousarray(rows.T)  # the engine's layout
    with np.errstate(over="ignore", invalid="ignore"):  # the purity of a huge entry
        p = _purity(rows)
    want = rows[~(p <= _purity_ceiling(dim, tol))]
    assert 6 <= len(want) < len(rows)
    for g in (cols.T, rows):
        assert np.array_equal(_factorized(monkeypatch, g, p, tol), want, equal_nan=True)
