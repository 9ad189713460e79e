import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import diffmon
from diffmon import (
    LindbladModel,
    MRep,
    URep,
    diffusion_matrix,
    hermitian_basis,
    heterodyne_mrep,
    homodyne_mrep,
    liouvillian_apply,
    me_integrate,
    mrep_to_trep,
    mrep_to_urep,
    predicted_autocorrelation,
    regression_correlation,
    urep_current_mean,
)
from diffmon.checks import liouvillian_superoperator
from diffmon import dynamics
from diffmon.dynamics import (
    _Engine,
    _gather,
    _measured_engine,
    _purity,
    _scatter,
    _trace,
    measurement_ops,
    rk4_step,
)
from diffmon.errors import (
    DiffmonError,
    DimensionMismatchError,
    NonPositiveLagError,
    NotHermitianError,
    StateInvalidError,
    ValidationError,
)
from diffmon.reps import random_mrep, random_orthogonal
from diffmon.sme import _step_states

from conftest import (
    EXCITED,
    SIGMA_M,
    SIGMA_P,
    SIGMA_X,
    SIGMA_Z,
    cavity_model,
    decay_model,
    random_pure_state,
    random_state,
    rng,
)


def test_decay_rate_hand_value():
    for gamma, hbar in ((1.0, 1.0), (2.5, 2.0)):
        model = decay_model(gamma=gamma, hbar=hbar)
        out = liouvillian_apply(model, EXCITED)
        rate = np.real(np.trace(SIGMA_P @ SIGMA_M @ out))
        assert rate == pytest.approx(-gamma / hbar, abs=1e-12)


def test_vacuum_is_fixed_point():
    model = cavity_model(4)
    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    assert np.max(np.abs(liouvillian_apply(model, vac))) <= 1e-14


def test_generator_traceless_hermitian():
    gen = rng(51)
    for _ in range(20):
        dim = int(gen.integers(2, 5))
        h = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        model = LindbladModel(
            hamiltonian=(h + h.conj().T) / 2.0,
            lindblads=(gen.normal(size=(2, dim, dim)) + 1j * gen.normal(size=(2, dim, dim))),
        )
        out = liouvillian_apply(model, random_state(gen, dim))
        assert abs(np.trace(out)) <= 1e-12
        assert np.linalg.norm(out - out.conj().T) <= 1e-12


def test_me_integrate_matches_exponential_decay():
    model = decay_model()
    states = me_integrate(model, EXCITED, dt=1e-3, steps=2000)
    times = np.arange(2001) * 1e-3
    pops = np.real(states[:, 0, 0])
    assert np.max(np.abs(pops - np.exp(-times))) <= 1e-8


def test_me_integrate_trivial_generator_is_constant():
    model = LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=np.zeros((1, 2, 2)))
    rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    states = me_integrate(model, rho, dt=0.1, steps=10)
    assert np.max(np.abs(states - rho)) <= 1e-15


def test_rk4_step_preserves_trace_before_renormalization():
    model = decay_model(rabi=1.3)
    gen = rng(52)
    for _ in range(10):
        rho = random_state(gen, 2)
        assert abs(np.trace(rk4_step(model, rho, 1e-3)) - 1.0) <= 1e-12


def test_me_integrate_reports_positivity_loss():
    # A step far too large for the decay rate makes the scheme unstable.
    model = decay_model(gamma=1.0)
    with pytest.raises(StateInvalidError):
        me_integrate(model, EXCITED, dt=3.0, steps=50)


def test_me_integrate_names_first_negative_step():
    # Same step and text as an eigenvalue test after every step.  At d = 3
    # the purity ceiling clears some of the states before the failure and
    # leaves others to the factorization.
    a3 = np.diag([1.0, np.sqrt(2.0)], k=1).astype(complex)
    cases = [
        (decay_model(gamma=1.0), EXCITED, 3.0),
        (LindbladModel(hamiltonian=1.5 * (a3 + a3.T), lindblads=a3), np.diag([0.2, 0.3, 0.5]), 0.5),
    ]
    for model, rho0, dt in cases:
        rho, states = rho0, []
        for m in range(1, 51):
            rho = rk4_step(model, rho, dt)
            rho = (rho + rho.conj().T) / 2.0
            rho = rho / np.real(np.trace(rho))
            states.append(rho)
            wmin = float(np.linalg.eigvalsh(rho)[0])
            if wmin < -1e-6:
                break
        g = _gather(np.stack(states))
        cleared = _purity(g) <= dynamics._purity_ceiling(model.dim, 1e-6)
        assert model.dim == 2 or (cleared.any() and not cleared[:-1].all())
        message = f"positivity lost at step {m}: min eigenvalue {wmin:.3e}"
        with pytest.raises(StateInvalidError) as info:
            me_integrate(model, rho0, dt=dt, steps=50)
        assert str(info.value) == message


@pytest.mark.parametrize("field", ["hamiltonian", "lindblads"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_rejects_non_finite_entries(field, bad):
    # NaN compares false against the Hermiticity tolerance, so it used to pass
    # and a simulation returned NaN purities and currents without an error.
    parts = {"hamiltonian": np.zeros((2, 2), dtype=complex), "lindblads": SIGMA_M.copy()}
    parts[field][0, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        LindbladModel(**parts)


def test_state_check_rejects_non_finite_entries():
    # A NaN state used to pass every comparison of the check.
    with pytest.raises(ValidationError, match="non-finite"):
        me_integrate(decay_model(), np.array([[np.nan, 0.0], [0.0, 1.0]]), dt=1e-3, steps=2)


def test_purity_of_pure_mixed_and_random_states():
    # The public Tr rho^2: 1 for a pure state, 1/d at the maximally mixed state, and
    # the coordinate form the ensemble records for any other state.
    gen = rng(79)
    assert dynamics.purity(random_pure_state(gen, 3)) == pytest.approx(1.0, abs=1e-12)
    assert dynamics.purity(np.eye(4, dtype=complex) / 4.0) == 0.25
    rho = random_state(gen, 3)
    assert isinstance(dynamics.purity(rho), float)
    assert abs(dynamics.purity(rho) - _purity(_gather(rho))) <= 1e-14


def test_purity_and_trace_distance_take_one_state():
    # A stack of states used to end in a bare TypeError (purity) or to mix the
    # pairs by transposing every axis (trace_distance: 1.059 where each pair is 0.7071).
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.full((2, 2), 0.5, dtype=complex)
    assert dynamics.trace_distance(a, b) == pytest.approx(np.sqrt(0.5), abs=1e-15)
    with pytest.raises(DimensionMismatchError, match="square matrix"):
        dynamics.purity(np.stack([a, a]))
    with pytest.raises(DimensionMismatchError, match="square matrix"):
        dynamics.trace_distance(np.stack([a, b]), np.stack([b, a]))
    with pytest.raises(DimensionMismatchError, match=r"^state must be 2 x 2, got \(3, 3\)$"):
        dynamics.trace_distance(a, np.eye(3))


BAD_DT = [0.0, -1e-3, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("dt", BAD_DT)
def test_integrators_reject_bad_dt(dt):
    # A NaN dt used to return NaN states after the initial one from
    # me_integrate, and a bare ValueError from rk4_step.
    model = decay_model(rabi=1.0)
    with pytest.raises(ValidationError, match="dt must be positive"):
        me_integrate(model, EXCITED, dt, 3)
    with pytest.raises(ValidationError, match="dt must be positive"):
        rk4_step(model, EXCITED, dt)
    with pytest.raises(ValidationError, match="dt must be positive"):
        regression_correlation(model, SIGMA_P, SIGMA_M, EXCITED, 0.5, dt=dt)


def _backaction(model, ops, rho):
    """The linear updates ``a_j rho + rho a_j^dag`` along ops and the nonlinear ones, which
    subtract ``Tr[...] rho``: a measured engine's back-action and mean-current rows."""
    engine = _Engine(model, ops, range(len(ops)), np.eye(len(ops)))  # along all ops
    g = _gather(np.asarray(rho, dtype=complex))
    lin = engine.backaction(g)
    nonlin = lin - np.outer(engine.currents @ g, g)
    return model.hbar * _scatter(lin), model.hbar * _scatter(nonlin)


def test_backaction_vanishes_on_certain_outcome():
    model = LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=SIGMA_Z[None])
    _lin, out = _backaction(model, np.array([SIGMA_Z], dtype=complex), EXCITED)
    assert np.max(np.abs(out)) <= 1e-14


def test_backaction_pure_state_overlap_is_zero():
    # The update is orthogonal to the state itself when the state is pure.
    gen = rng(53)
    for _ in range(10):
        rho = random_pure_state(gen, 3)
        cs = gen.normal(size=(2, 3, 3)) + 1j * gen.normal(size=(2, 3, 3))
        w = gen.normal(size=2) + 1j * gen.normal(size=2)
        model = LindbladModel(hamiltonian=np.zeros((3, 3)), lindblads=cs)
        out = _backaction(model, np.tensordot(w, cs, axes=1)[None], rho)[1][0]
        assert abs(np.trace(rho @ out)) <= 1e-12 * np.linalg.norm(out)
        assert abs(np.trace(out)) <= 1e-12 * max(1.0, np.linalg.norm(out))


def test_backaction_linear_nonlinear_differ_by_trace_term():
    # The mean-current rows read the trace of the back-action rows.
    gen = rng(54)
    rho = random_state(gen, 3)
    cs = gen.normal(size=(1, 3, 3)) + 1j * gen.normal(size=(1, 3, 3))
    w = np.array([0.7 - 0.2j])
    model = LindbladModel(hamiltonian=np.zeros((3, 3)), lindblads=cs)
    lin, nonlin = (x[0] for x in _backaction(model, np.tensordot(w, cs, axes=1)[None], rho))
    assert np.max(np.abs(lin - np.real(np.trace(lin)) * rho - nonlin)) <= 1e-14


def test_regression_zero_lag_is_plain_average():
    gen = rng(56)
    model = decay_model(rabi=0.7)
    rho = random_state(gen, 2)
    got = regression_correlation(model, SIGMA_P, SIGMA_M, rho, 0.0)
    want = np.trace(rho @ SIGMA_P @ SIGMA_M)
    assert got == pytest.approx(want, abs=1e-12)


def test_regression_identity_operators():
    model = decay_model(rabi=0.7)
    eye = np.eye(2, dtype=complex)
    for tau in (0.0, 0.5, 1.5):
        got = regression_correlation(model, eye, eye, EXCITED, tau)
        assert got == pytest.approx(1.0, abs=1e-10)


def test_regression_decay_coherence_analytic():
    # From the excited state, the raising-then-lowering correlation decays at
    # half the population rate.
    model = decay_model(gamma=1.0)
    for tau in (0.2, 1.0, 2.0):
        got = regression_correlation(model, SIGMA_P, SIGMA_M, EXCITED, tau, dt=1e-3)
        assert got == pytest.approx(np.exp(-tau / 2.0), abs=1e-8)


def test_regression_matches_superoperator_exponential():
    gen = rng(57)
    for dim, channels in ((3, 2), (4, 2)):
        h = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        model = LindbladModel(
            hamiltonian=(h + h.conj().T) / 2.0,
            lindblads=(gen.normal(size=(channels, dim, dim))
                       + 1j * gen.normal(size=(channels, dim, dim))) / 2.0,
        )
        rho = random_state(gen, dim)
        a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        b = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        sup = liouvillian_superoperator(model)
        for tau in (0.4, 1.1):
            want = complex(
                np.trace(b @ (expm(sup * tau) @ (rho @ a).reshape(-1)).reshape(dim, dim))
            )
            got = regression_correlation(model, a, b, rho, tau, dt=1e-3)
            assert abs(got - want) <= 1e-8


def test_predicted_autocorrelation_zero_measurement():
    model = decay_model(rabi=1.0)
    m = MRep(np.zeros((1, 2)))
    out = predicted_autocorrelation(model, m, EXCITED, np.array([0.1, 0.5]))
    assert np.max(np.abs(out)) <= 1e-14


def test_predicted_autocorrelation_vacuum_cavity():
    model = cavity_model(3)
    vac = np.zeros((3, 3), dtype=complex)
    vac[0, 0] = 1.0
    out = predicted_autocorrelation(model, homodyne_mrep(1.0), vac, np.array([0.2, 0.7]))
    assert np.max(np.abs(out)) <= 1e-12


def test_predicted_autocorrelation_matches_regression_entrywise():
    # Each matrix entry equals twice the real part of a single two-time
    # regression average, here assembled independently operator by operator.
    gen = rng(67)
    h = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    model = LindbladModel(
        hamiltonian=(h + h.conj().T) / 2.0,
        lindblads=(gen.normal(size=(2, 3, 3)) + 1j * gen.normal(size=(2, 3, 3))) / 2.0,
    )
    rho = random_state(gen, 3)
    m = random_mrep(gen, 2)
    taus = np.array([0.3, 0.8])
    got = predicted_autocorrelation(model, m, rho, taus, dt=1e-3)
    from diffmon.dynamics import measurement_ops

    xops = measurement_ops(m, model.lindblads)
    yops = xops + xops.conj().transpose(0, 2, 1)
    for i, tau in enumerate(taus):
        for a in range(4):
            for b in range(4):
                want = 2.0 * np.real(
                    regression_correlation(
                        model, xops[a].conj().T, yops[b], rho, float(tau), dt=1e-3
                    )
                )
                assert got[i, a, b] == pytest.approx(want, abs=1e-9)


def test_predicted_autocorrelation_rejects_zero_lag():
    model = decay_model()
    with pytest.raises(NonPositiveLagError):
        predicted_autocorrelation(model, homodyne_mrep(1.0), EXCITED, np.array([0.0, 0.1]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda model: regression_correlation(model, SIGMA_P, SIGMA_M, EXCITED, -0.1),
         NonPositiveLagError, "regression requires tau >= 0"),
        (lambda model: predicted_autocorrelation(model, homodyne_mrep(1.0), EXCITED, [0.2, 0.1]),
         ValidationError, "lags must be strictly increasing"),
        (lambda model: predicted_autocorrelation(model, homodyne_mrep(1.0), EXCITED, [0.1, 0.1]),
         ValidationError, "lags must be strictly increasing"),
    ],
    ids=["regression-negative", "predicted-decreasing", "predicted-repeated"],
)
def test_negative_and_unordered_lags_are_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(decay_model(rabi=1.0))


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_lags_must_be_finite(tau):
    # A NaN lag used to end in a bare ValueError and inf in an OverflowError, and
    # regression_correlation(tau=nan) returned the zero-lag value.
    model = decay_model(rabi=1.0)
    with pytest.raises(ValidationError, match="^lags must be finite"):
        predicted_autocorrelation(model, homodyne_mrep(1.0), EXCITED, [0.1, tau])
    with pytest.raises(ValidationError, match=f"^lag must be finite, got {tau}$"):
        regression_correlation(model, SIGMA_P, SIGMA_M, EXCITED, tau)


def test_predicted_autocorrelation_checks_the_state_shape():
    # A 3 x 3 state on a d = 2 model ended in a bare numpy ValueError.
    with pytest.raises(DimensionMismatchError, match=r"^state must be 2 x 2, got \(3, 3\)$"):
        predicted_autocorrelation(decay_model(), homodyne_mrep(1.0), np.eye(3) / 3, [0.1])


def test_predicted_autocorrelation_checks_the_state_is_hermitian():
    # A non-Hermitian state was read by its Hermitian part without a word.  The tolerance
    # is relative above a unit norm, and huge entries raise no overflow warning.
    model, m = decay_model(rabi=1.0), homodyne_mrep(1.0)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for rho in (EXCITED + 1e-6 * skew, 1e200 * (EXCITED + 1e-6 * skew)):
        with pytest.raises(NotHermitianError, match="^state is not Hermitian within tolerance$"):
            predicted_autocorrelation(model, m, rho, [0.1])
    within = predicted_autocorrelation(model, m, EXCITED + 1e-12 * skew, [0.1])
    assert np.max(np.abs(within - predicted_autocorrelation(model, m, EXCITED, [0.1]))) < 1e-10


def test_check_density_matrix_refuses_a_negative_eigenvalue():
    with pytest.raises(StateInvalidError, match=r"^state has eigenvalue -5\.000e-01 below zero$"):
        diffmon.check_density_matrix(np.diag([1.5, -0.5]))
    diffmon.check_density_matrix(np.diag([1.0 + 1e-13, -1e-13]))  # within max(tol, 1e-12)


@pytest.mark.parametrize("steps", [2.5, np.inf, np.nan, True, False, -1, "3", None])
def test_me_integrate_rejects_bad_steps(steps):
    # 2.5 and inf used to raise a TypeError, and True ran one step.
    message = re.escape(f"steps must be a non-negative integer, got {steps!r}")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        me_integrate(decay_model(), EXCITED, 1e-3, steps)
    assert me_integrate(decay_model(), EXCITED, 1e-3, np.int64(2)).shape == (3, 2, 2)
    assert me_integrate(decay_model(), EXCITED, 1e-3, 0).shape == (1, 2, 2)


def test_hermitian_basis_orthonormal():
    for dim in (2, 3, 4):
        basis = hermitian_basis(dim)
        assert basis.shape == (dim * dim, dim, dim)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(dim * dim))) <= 1e-13
        for e in basis:
            assert np.linalg.norm(e - e.conj().T) <= 1e-14


def test_diffusion_matrix_zero_measurement():
    model = decay_model()
    d = diffusion_matrix(model, MRep(np.zeros((1, 2))), EXCITED)
    assert np.max(np.abs(d)) == 0.0


def test_diffusion_matrix_orthogonal_invariance():
    gen = rng(58)
    model = LindbladModel(
        hamiltonian=np.diag([0.0, 1.0, 2.0]).astype(complex),
        lindblads=(gen.normal(size=(2, 3, 3)) + 1j * gen.normal(size=(2, 3, 3))) / 2.0,
    )
    rho = random_state(gen, 3)
    for _ in range(10):
        m = random_mrep(gen, 2)
        o = random_orthogonal(gen, 4)
        d1 = diffusion_matrix(model, m, rho)
        d2 = diffusion_matrix(model, MRep(m.matrix @ o.matrix), rho)
        assert np.max(np.abs(d1 - d2)) <= 1e-10


def test_diffusion_matrix_is_the_step_covariance_at_any_scale():
    # The driven decay qubit at hbar = 2.5 (H -> hbar H, c -> sqrt(hbar) c,
    # M -> sqrt(hbar) M) is the same unravelling, so D is the same; and D dt is
    # the covariance of one step, whose update is linear in the increments.
    hbar, m = 2.5, random_mrep(rng(60), 1).matrix
    model, rho = decay_model(rabi=1.0), random_state(rng(61), 2)
    scaled = LindbladModel(hbar * model.hamiltonian, np.sqrt(hbar) * model.lindblads, hbar)
    want = diffusion_matrix(model, MRep(m), rho)
    got = diffusion_matrix(scaled, MRep(np.sqrt(hbar) * m, hbar), rho)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for mod, mrep in ((model, MRep(m)), (scaled, MRep(np.sqrt(hbar) * m, hbar))):
        w = np.vstack([np.zeros(2), np.eye(2)])
        out, _tr, _cur = _step_states(
            _measured_engine(mod, mrep), np.stack([rho] * 3), w, 1e-9, linear=False
        )
        b = np.real(np.einsum("kij,aji->ka", hermitian_basis(2), out[1:] - out[0]))
        assert np.max(np.abs(b @ b.T - want)) <= 1e-12 * np.max(np.abs(want))


def test_diffusion_matrix_rank_bound():
    gen = rng(59)
    model = LindbladModel(
        hamiltonian=np.zeros((3, 3)),
        lindblads=(gen.normal(size=(2, 3, 3)) + 1j * gen.normal(size=(2, 3, 3))),
    )
    for _ in range(5):
        d = diffusion_matrix(model, random_mrep(gen, 2), random_state(gen, 3))
        s = np.linalg.svd(d, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) <= 4
        assert np.min(np.linalg.eigvalsh((d + d.T) / 2.0)) >= -1e-10


def test_urep_current_mean_heterodyne_cavity():
    # Coherent-ish state in a truncated cavity; compare against the direct
    # measurement-matrix formula for the same canonical factor.
    dim = 6
    model = cavity_model(dim)
    alpha = 0.6
    n = np.arange(dim)
    import math

    psi = np.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / np.sqrt(
        np.array([math.factorial(int(k)) for k in n], dtype=float)
    )
    psi = psi / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    eta = 0.8
    m = heterodyne_mrep(eta)
    u = mrep_to_urep(m)
    got = urep_current_mean(model, u, rho, trep=mrep_to_trep(m))
    abar = np.trace(model.lindblads[0] @ rho)
    want = np.sqrt(eta / 2.0) * np.array(
        [2.0 * np.real(abar), 2.0 * np.imag(abar)]
    )
    assert np.max(np.abs(got - want)) <= 1e-9


def test_urep_current_mean_default_factor_is_canonical():
    # Without an explicit factor the positive root of the scaled correlation
    # matrix is used; for the heterodyne matrix that root coincides with the
    # stacked form of the measurement matrix itself.
    dim = 4
    model = cavity_model(dim)
    gen = rng(66)
    rho = random_state(gen, dim)
    m = heterodyne_mrep(0.7)
    u = mrep_to_urep(m)
    default = urep_current_mean(model, u, rho)
    explicit = urep_current_mean(model, u, rho, trep=mrep_to_trep(m))
    assert np.max(np.abs(default - explicit)) <= 1e-10


def test_urep_current_mean_zero_measurement():
    model = decay_model()
    got = urep_current_mean(model, URep(np.zeros((2, 2))), EXCITED)
    assert np.max(np.abs(got)) <= 1e-12


def test_urep_current_mean_matches_mrep_route():
    gen = rng(60)
    model = LindbladModel(
        hamiltonian=np.zeros((3, 3)),
        lindblads=(gen.normal(size=(2, 3, 3)) + 1j * gen.normal(size=(2, 3, 3))) / 2.0,
    )
    for _ in range(20):
        m = random_mrep(gen, 2)
        rho = random_state(gen, 3)
        u = mrep_to_urep(m)
        got = urep_current_mean(model, u, rho, trep=mrep_to_trep(m))
        cbar = np.einsum("kab,ba->k", model.lindblads, rho)
        want = np.real(
            m.matrix.conj().T @ cbar + m.matrix.T @ cbar.conj()
        ) / m.hbar
        assert np.max(np.abs(got - want)) <= 1e-9


def test_urep_current_mean_dimension_guard():
    model = decay_model()
    with pytest.raises(DimensionMismatchError):
        urep_current_mean(model, URep(np.zeros((4, 4))), EXCITED)


# ---------------------------------------------------------------------------
# the operator engine against oracles built independently of it

ENGINE_DIMS = (2, 8, 9, 16)


def _scaled_model(gen, dim, channels=2):
    # Generator norm of a few units at every dimension, so a fixed RK4 step
    # size resolves the dynamics equally well on both sides of the crossover.
    h = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    cs = gen.normal(size=(channels, dim, dim)) + 1j * gen.normal(size=(channels, dim, dim))
    return LindbladModel(
        hamiltonian=(h + h.conj().T) / (2.0 * np.sqrt(dim)),
        lindblads=cs / (2.0 * np.sqrt(dim)),
    )


def test_engine_dims_cover_both_paths():
    # One step path at every dimension; the tables are dense arrays up to d = 12, CSR above.
    gen = rng(70)
    dense = {isinstance(_Engine(_scaled_model(gen, dim)).tables[0], np.ndarray) for dim in ENGINE_DIMS}
    assert dense == {True, False}


@pytest.mark.parametrize("dim", ENGINE_DIMS)
def test_liouvillian_apply_matches_kron_oracle(dim):
    gen = rng(71 + dim)
    model = _scaled_model(gen, dim)
    sup = liouvillian_superoperator(model)
    xs = np.stack([random_state(gen, dim) for _ in range(3)])
    want = (xs.reshape(3, -1) @ sup.T).reshape(xs.shape)
    assert np.max(np.abs(liouvillian_apply(model, xs) - want)) <= 1e-13
    assert np.max(np.abs(liouvillian_apply(model, xs[1]) - want[1])) <= 1e-13


def test_liouvillian_apply_matches_kron_oracle_off_hermitian():
    # The regression path propagates non-Hermitian matrices, above the tabulated dimensions.
    gen = rng(75)
    model = _scaled_model(gen, 16)
    sup = liouvillian_superoperator(model)
    xs = gen.normal(size=(3, 16, 16)) + 1j * gen.normal(size=(3, 16, 16))
    want = (xs.reshape(3, -1) @ sup.T).reshape(xs.shape)
    assert np.max(np.abs(liouvillian_apply(model, xs) - want)) <= 1e-13 * np.max(np.abs(want))


def _broadcast_generator(model, x):
    """The generator as one broadcast product over the jump operators: the reference bits."""
    cs = model.lindblads
    cs_dag = cs.conj().swapaxes(-1, -2)
    k = -1j * model.hamiltonian - 0.5 * np.sum(cs_dag @ cs, axis=0)
    jumps = np.sum(cs @ x[..., None, :, :] @ cs_dag, axis=-3)
    return (k @ x + x @ k.conj().swapaxes(-1, -2) + jumps) / model.hbar


def _dense(table):
    return table.toarray() if hasattr(table, "toarray") else table


def _kerr_cavity(dim, hbar=1.0, chi=0.3, channels=1):
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return LindbladModel(
        hamiltonian=chi * np.diag(np.arange(dim) ** 2.0),
        lindblads=np.stack([a, a.T][:channels]),
        hbar=hbar,
    )


def test_me_integrate_on_csr_tables_matches_dense_tables(monkeypatch):
    # One product steps both kinds of table; above d = 12 the tables are CSR.  The two runs
    # differ by the order of the sums only: by 1.1e-16 at most on one x86-64 core.
    rho0 = random_state(rng(77), 13)
    csr_model = _kerr_cavity(13)
    csr = me_integrate(csr_model, rho0, 1e-2, 100)
    monkeypatch.setattr(dynamics, "_SUPEROPERATOR_MAX_DIM", 13)
    dense_model = _kerr_cavity(13)
    dense = me_integrate(dense_model, rho0, 1e-2, 100)
    assert not isinstance(csr_model.engine.poly(1e-2), np.ndarray)
    assert isinstance(dense_model.engine.poly(1e-2), np.ndarray)
    assert np.max(np.abs(csr - dense)) <= 1e-14


@pytest.mark.parametrize("channels", (1, 2))
@pytest.mark.parametrize("dim", (4, 16))
def test_generator_equals_broadcast_form_bitwise(dim, channels):
    # The Kronecker-built table against the broadcast generator on the unit
    # matrices: bitwise where each entry sums at most two terms (the qubits and
    # the cavities, at any hbar), to rounding on dense random models.
    gen = rng(76 + dim + channels)
    qubits = [decay_model(), decay_model(rabi=1.0), decay_model(0.7, 1.3, hbar=2.5)]
    cavities = [_kerr_cavity(dim, channels=channels), _kerr_cavity(dim, 2.5, 0.0, channels)]
    for model in qubits + cavities:
        want = _gather(_broadcast_generator(model, _scatter(np.eye(model.dim**2))))
        got = _dense(model.engine.tables[0])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    units = _scatter(np.eye(dim * dim))
    scaled = _scaled_model(gen, dim, channels)
    want = _gather(_broadcast_generator(scaled, units))
    got = _dense(scaled.engine.tables[0])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", ENGINE_DIMS)
def test_rk4_step_matches_oracle_taylor_polynomial(dim):
    gen = rng(72 + dim)
    model = _scaled_model(gen, dim)
    for h in (1e-3, 2e-2):
        a = h * liouvillian_superoperator(model)
        taylor = np.eye(dim * dim) + a + a @ a / 2.0 + a @ a @ a / 6.0 + a @ a @ a @ a / 24.0
        xs = np.stack([random_state(gen, dim) for _ in range(4)])
        xs[3] = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        want = (xs.reshape(4, -1) @ taylor.T).reshape(xs.shape)
        assert np.max(np.abs(rk4_step(model, xs, h) - want)) <= 1e-13
        assert np.max(np.abs(rk4_step(model, xs[3], h) - want[3])) <= 1e-13


@pytest.mark.parametrize("dim", ENGINE_DIMS)
def test_backaction_matches_inline_formula(dim):
    gen = rng(73 + dim)
    model = _scaled_model(gen, dim)
    rho = random_state(gen, dim)
    v = gen.normal(size=2) + 1j * gen.normal(size=2)
    a = v[0] * model.lindblads[0] + v[1] * model.lindblads[1]
    want = a @ rho + rho @ a.conj().T
    got = _backaction(model, a[None], rho)[0][0]
    assert np.max(np.abs(got - want)) <= 1e-13
    # The engine's rows along the J ops of a measurement, contracted with real
    # weights, for each of a stack of states.
    ops = measurement_ops(random_mrep(gen, 2), model.lindblads)
    rhos = np.stack([random_state(gen, dim) for _ in range(3)])
    w = gen.normal(size=(3, ops.shape[0]))
    # A measured engine tabulates ops 0 and 1 of this one, and spreads them to ops 2 and 3.
    spread = MRep(np.array([[0.6, 0.0, 0.3, 0.0], [0.0, 0.5, 0.0, -0.7]]))
    measured = _measured_engine(model, spread)
    assert list(measured.kept) == [0, 1]
    for k in range(3):
        e = np.tensordot(w[k], ops, axes=1)
        want = e @ rhos[k] + rhos[k] @ e.conj().T
        got = np.tensordot(w[k], _backaction(model, ops, rhos[k])[0], axes=1)
        assert np.max(np.abs(got - want)) <= 1e-13
        want = _backaction(model, measured.ops, rhos[k])[0]
        got = _scatter(measured.backaction(_gather(rhos[k])))
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("dim", ENGINE_DIMS)
def test_predicted_autocorrelation_uneven_lags_match_exponential(dim):
    # Lags that are not multiples of dt give each lag its own step size.
    gen = rng(74 + dim)
    model = _scaled_model(gen, dim)
    m = random_mrep(gen, 2)
    rho = random_state(gen, dim)
    taus = np.array([0.1234, 0.5, 0.9871])
    got = predicted_autocorrelation(model, m, rho, taus, dt=1e-3)
    sup = liouvillian_superoperator(model)
    xops = np.einsum("mj,mab->jab", m.matrix.conj(), model.lindblads)
    for i, tau in enumerate(taus):
        prop = expm(sup * tau)
        for a, x in enumerate(xops):
            xt = (prop @ (x @ rho + rho @ x.conj().T).reshape(-1)).reshape(dim, dim)
            for b, y in enumerate(xops):
                want = np.real(np.trace((y + y.conj().T) @ xt))
                assert abs(got[i, a, b] - want) <= 1e-8


# ---------------------------------------------------------------------------
# real coordinates of Hermitian matrices


@pytest.mark.parametrize("dim", (1, 2, 3, 8))
def test_gather_scatter_round_trip_is_exact(dim):
    gen = rng(75 + dim)
    x = gen.normal(size=(4, dim, dim)) + 1j * gen.normal(size=(4, dim, dim))
    herm = x + x.conj().transpose(0, 2, 1)
    g = _gather(herm)
    assert g.shape == (4, dim * dim) and g.dtype == np.float64
    assert np.array_equal(_scatter(g), herm)
    assert np.array_equal(_gather(herm[2]), g[2])
    assert np.array_equal(_scatter(g[2]), herm[2])
    # Any real vector scatters to an exactly Hermitian matrix, and back.
    v = gen.normal(size=(5, dim * dim))
    y = _scatter(v)
    assert np.array_equal(y, y.conj().transpose(0, 2, 1))
    assert np.array_equal(_gather(y), v)
    # The trace is the sum of the first d coordinates.
    assert np.max(np.abs(np.trace(y, axis1=1, axis2=2) - v[:, :dim].sum(axis=1))) <= 1e-14
    # A non-Hermitian matrix gives the coordinates of its Hermitian part.
    assert np.max(np.abs(_scatter(_gather(x)) - herm / 2.0)) <= 1e-15


def _step_rows(engine, g, w, h, linear=True):
    """``engine.sme_step`` on rows of coordinates g and increments w; results as rows."""
    n2, n = g.shape[1], len(g)
    x = np.concatenate([g.T, np.empty((len(engine.kept) * n2, n))])
    out, tr, cur = engine.sme_step(x, w.T, h, linear, np.empty((n2 + len(engine.ops) + 2, n)))
    return out.T, tr, cur.T


@pytest.mark.parametrize("dim", ENGINE_DIMS)
def test_engine_coordinate_step_matches_oracle(dim):
    # Drift, back-action and mean current of one step on coordinates, against
    # the kron-built generator and the back-action written out per direction.
    gen = rng(76 + dim)
    model = _scaled_model(gen, dim)
    ops = measurement_ops(random_mrep(gen, 2), model.lindblads)
    engine = _Engine(model, ops, range(len(ops)), np.eye(len(ops)))  # along all ops
    h = 2e-2
    a = h * liouvillian_superoperator(model)
    taylor = np.eye(dim * dim) + a + a @ a / 2.0 + a @ a @ a / 6.0 + a @ a @ a @ a / 24.0
    rhos = np.stack([random_state(gen, dim) for _ in range(3)])
    w = gen.normal(size=(3, ops.shape[0]))
    drift, _tr, cur = _step_rows(engine, _gather(rhos), w, h)
    want_drift = _gather((rhos.reshape(3, -1) @ taylor.T).reshape(rhos.shape))
    assert np.max(np.abs(_gather(rhos) @ engine.poly(h) - want_drift)) <= 1e-13
    for k in range(3):
        e = np.tensordot(w[k], ops, axes=1)
        step = (taylor @ rhos[k].reshape(-1)).reshape(dim, dim)
        want = step + (e @ rhos[k] + rhos[k] @ e.conj().T) / model.hbar
        assert np.max(np.abs(_scatter(drift[k]) - want)) <= 1e-13
        want_cur = [2.0 * np.real(np.trace(op @ rhos[k])) / model.hbar for op in ops]
        assert np.max(np.abs(cur[k] - want_cur)) <= 1e-13


@pytest.mark.parametrize("dim", ENGINE_DIMS)
def test_engine_step_weights_the_mean_current(dim):
    # The step returns the trace of its output, a column of the table up to
    # d = 12 and a reduction above, and the nonlinear form subtracts
    # (cur . w) g and cur . w from it.
    gen = rng(78 + dim)
    model = _scaled_model(gen, dim)
    ops = measurement_ops(random_mrep(gen, 2), model.lindblads)
    engine = _Engine(model, ops, range(len(ops)), np.eye(len(ops)))  # along all ops
    g = _gather(np.stack([random_state(gen, dim) for _ in range(4)]))
    w = gen.normal(size=(4, ops.shape[0]))
    out, tr, cur = _step_rows(engine, g, w, 1e-2)
    assert tr.shape == (4,)
    assert np.max(np.abs(tr - _trace(out))) <= 1e-13
    cur_w = (cur * w).sum(-1)
    out_nl, tr_nl, cur_nl = _step_rows(engine, g, w, 1e-2, linear=False)
    assert np.array_equal(cur_nl, cur)
    assert np.max(np.abs(out_nl - (out - cur_w[:, None] * g))) <= 1e-13
    assert np.max(np.abs(tr_nl - (tr - cur_w))) <= 1e-13
    assert np.max(np.abs(tr_nl - _trace(out_nl))) <= 1e-13
    out1, tr1, cur1 = _step_rows(engine, g[1:2], w[1:2], 1e-2, linear=False)
    assert abs(tr1 - _trace(out1)) <= 1e-13
    assert np.max(np.abs(cur1 - cur[1])) <= 1e-13


@pytest.mark.parametrize("dim", ENGINE_DIMS)
def test_propagate_non_hermitian_matches_oracle(dim):
    # Regression propagates products like rho A, which are not Hermitian: the
    # tabulated engine steps their Hermitian and anti-Hermitian parts apart.
    gen = rng(77 + dim)
    model = _scaled_model(gen, dim)
    a = 1e-2 * liouvillian_superoperator(model)
    taylor = np.eye(dim * dim) + a + a @ a / 2.0 + a @ a @ a / 6.0 + a @ a @ a @ a / 24.0
    x = gen.normal(size=(2, dim, dim)) + 1j * gen.normal(size=(2, dim, dim))
    want = x.reshape(2, -1).T
    for _ in range(5):
        want = taylor @ want
    want = want.T.reshape(x.shape)
    engine, scale = _Engine(model), np.max(np.abs(want))
    assert np.max(np.abs(engine.apply(x, *engine.rk4(5e-2, 1e-2)) - want)) <= 1e-13 * scale
    assert np.max(np.abs(engine.apply(x[1], *engine.rk4(5e-2, 1e-2)) - want[1])) <= 1e-13 * scale


def test_model_builds_one_engine(monkeypatch):
    built = []

    class Counted(_Engine):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(dynamics, "_Engine", Counted)
    cs = 0.7 * SIGMA_M[None]
    model = LindbladModel(hamiltonian=0.5 * SIGMA_Z, lindblads=cs)
    liouvillian_apply(model, EXCITED)
    engine = model.engine
    rk4_step(model, EXCITED, 1e-2)
    tables = model.engine.tables
    me_integrate(model, EXCITED, 1e-2, 10)
    regression_correlation(model, SIGMA_P, SIGMA_M, EXCITED, 0.1, dt=1e-2)
    predicted_autocorrelation(model, homodyne_mrep(0.5), EXCITED, [0.1, 0.2], dt=1e-2)
    diffusion_matrix(model, homodyne_mrep(0.5), EXCITED)
    # The model's engine, and the one measured engine that it keeps for the prediction
    # and the diffusion matrix.
    assert built == [engine, engine._measured[1]]
    assert model.engine is engine and model.engine.tables is tables
    # The cached engine cannot go stale: the model's arrays are read-only copies.
    with pytest.raises(ValueError):
        model.lindblads[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        model.hamiltonian[0, 0] = 1.0
    cs[0, 0, 0] = 1.0
    assert model.lindblads[0, 0, 0] == 0.0


def test_propagation_names_a_non_finite_state():
    # An RK4 step that overflows warned at the polynomial and returned all-NaN arrays;
    # like me_integrate, every propagation now names the non-finite state.
    model = LindbladModel(hamiltonian=1e300 * SIGMA_X, lindblads=SIGMA_M)
    calls = [
        lambda: rk4_step(model, EXCITED, 1e-3),
        lambda: regression_correlation(model, SIGMA_P, SIGMA_M, EXCITED, 0.1),
        lambda: predicted_autocorrelation(model, homodyne_mrep(1.0), EXCITED, [0.1, 0.2]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(StateInvalidError, match=r"^non-finite state after \d+ step"):
                call()


_HUGE = 1e200 * np.eye(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda model: diffmon.purity([[1e200 + 1e200j, 0.0], [0.0, 0.0]]),
        lambda model: regression_correlation(model, 1e200 * SIGMA_P, SIGMA_M, _HUGE, 0.1),
        lambda model: regression_correlation(model, SIGMA_P, 1e200 * SIGMA_M, _HUGE, 0.0),
    ],
    ids=["purity", "regression-rho-a", "regression-b-x"],
)
def test_overflowing_products_are_named(call):
    # purity returned NaN with no warning (its complex product forms inf - inf), and
    # regression_correlation warned "overflow encountered in matmul" at rho_t @ a and b @ x.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="is not finite$"):
            call(decay_model(rabi=1.0))


def _entry_points() -> dict:
    """Every public entry point that takes a state or operator, as a call on it, and whether
    it requires a Hermitian input: a state's, or a Hamiltonian's."""
    model, m = decay_model(rabi=1.0), heterodyne_mrep(0.8)
    config = diffmon.SimulationConfig(dt=1e-3, steps=2, n_traj=2, seed=1)
    return {
        "LindbladModel": (lambda x: LindbladModel(x, SIGMA_M), True),
        "check_density_matrix": (diffmon.check_density_matrix, True),
        "purity": (diffmon.purity, False),
        "trace_distance": (lambda x: diffmon.trace_distance(EXCITED, x), False),
        "liouvillian_apply": (lambda x: liouvillian_apply(model, x), False),
        "rk4_step": (lambda x: rk4_step(model, x, 1e-3), False),
        "me_integrate": (lambda x: me_integrate(model, x, 1e-3, 2), True),
        "regression_correlation": (
            lambda x: regression_correlation(model, SIGMA_P, SIGMA_M, x, 0.1), False
        ),
        "predicted_autocorrelation": (
            lambda x: predicted_autocorrelation(model, m, x, [0.1]), True
        ),
        "diffusion_matrix": (lambda x: diffusion_matrix(model, m, x), True),
        "urep_current_mean": (lambda x: urep_current_mean(model, mrep_to_urep(m), x), True),
        "simulate_ensemble": (lambda x: diffmon.simulate_ensemble(model, m, x, config), True),
        "linear_nonlinear_consistency": (
            lambda x: diffmon.linear_nonlinear_consistency(model, m, x, config), True
        ),
        "lindblad_covariance": (lambda x: diffmon.lindblad_covariance(model, x), True),
        "purity_increment_predicted": (
            lambda x: diffmon.purity_increment_predicted(model, m, x), True
        ),
        "sme_step_nonlinear": (
            lambda x: diffmon.sme_step_nonlinear(model, m, x, np.zeros(2), 1e-3), True
        ),
        "sme_step_linear": (
            lambda x: diffmon.sme_step_linear(model, m, x, np.zeros(2), 1e-3), True
        ),
    }


ENTRY_POINTS = sorted(_entry_points())
_SKEW = np.array([[0.5, 0.3 + 0.2j], [0.1j, 0.5]])
BAD_INPUTS = {
    "3 x 3": (np.eye(3) / 3.0, DimensionMismatchError),
    "1-D": (np.array([0.5, 0.5]), DimensionMismatchError),
    "NaN entry": (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValidationError),
    "inf entry": (np.array([[1.0, 0.0], [0.0, np.inf]]), ValidationError),
    "non-Hermitian": (_SKEW, NotHermitianError),
    "non-Hermitian x 1e200": (1e200 * _SKEW, NotHermitianError),
}


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry, (_, hermitian) in sorted(_entry_points().items())
        for bad, (_, error) in BAD_INPUTS.items()
        if hermitian or error is not NotHermitianError  # the others take any operator
    ],
)
def test_entry_points_name_a_bad_state(entry, bad):
    # At the parent a 3 x 3 state ended in a bare numpy ValueError from rk4_step,
    # me_integrate, simulate_ensemble, lindblad_covariance and purity_increment_predicted;
    # a NaN entry gave purity, diffusion_matrix, urep_current_mean, lindblad_covariance and
    # purity_increment_predicted a NaN and trace_distance a 0.0; and diffusion_matrix,
    # urep_current_mean and purity_increment_predicted read a non-Hermitian state by its
    # Hermitian part.  One check now names each.
    x, error = BAD_INPUTS[bad]
    if bad == "3 x 3" and entry in ("check_density_matrix", "purity"):
        x = np.ones((2, 3)) / 2.0  # no model fixes the dimension: any square matrix is one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            _entry_points()[entry][0](x)
    assert type(info.value) is error


_ENTRY = st.sampled_from([0.0, 0.5, 1.0, -1.0, 1e200, -1e200, np.nan, np.inf, -np.inf])


@st.composite
def _operators(draw):
    """Arrays of the model's 2 x 2 shape, a stack of it, or of 0-3 axes of 0-3 entries each;
    entries from _ENTRY, with an imaginary part or not, made Hermitian or not."""
    any_shape = st.lists(st.integers(0, 3), max_size=3).map(tuple)
    shape = draw(st.one_of(st.just((2, 2)), st.just((3, 2, 2)), any_shape))
    size = int(np.prod(shape))
    x = np.array(draw(st.lists(_ENTRY, min_size=size, max_size=size))).reshape(shape)
    if draw(st.booleans()):
        x = x.astype(complex)
        x.imag = np.reshape(draw(st.lists(_ENTRY, min_size=size, max_size=size)), shape)
    if x.ndim >= 2 and x.shape[-1] == x.shape[-2] and draw(st.booleans()):
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN: one more draw
            x = (x + x.conj().swapaxes(-1, -2)) / 2.0  # Hermitian, unless an entry is NaN
    return x


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(ENTRY_POINTS), _operators())
def test_entry_points_never_end_in_a_numpy_error(entry, x):
    # Any shape, and entries that are NaN, infinite, huge or skew: an entry point returns
    # finite numbers or raises a named error, never a bare numpy exception, an overflow
    # warning or a silent NaN.
    call = _entry_points()[entry][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(x)
        except DiffmonError:
            return
    for value in out if isinstance(out, tuple) else (out,):
        if isinstance(value, (np.ndarray, float, complex)):
            assert np.isfinite(value).all(), (entry, value)
