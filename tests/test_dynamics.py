import numpy as np
import pytest
from scipy.linalg import expm

from diffmon import (
    LindbladModel,
    MRep,
    URep,
    backaction_apply,
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
from diffmon.dynamics import _Engine, measurement_ops, rk4_step
from diffmon.errors import (
    DimensionMismatchError,
    NonPositiveLagError,
    StateInvalidError,
)
from diffmon.reps import random_mrep, random_orthogonal

from conftest import (
    EXCITED,
    SIGMA_M,
    SIGMA_P,
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


def test_backaction_vanishes_on_certain_outcome():
    model_c = np.array([SIGMA_Z], dtype=complex)
    out = backaction_apply(np.array([1.0 + 0j]), model_c, EXCITED)
    assert np.max(np.abs(out)) <= 1e-14


def test_backaction_pure_state_overlap_is_zero():
    # The update is orthogonal to the state itself when the state is pure.
    gen = rng(53)
    for _ in range(10):
        rho = random_pure_state(gen, 3)
        cs = gen.normal(size=(2, 3, 3)) + 1j * gen.normal(size=(2, 3, 3))
        w = gen.normal(size=2) + 1j * gen.normal(size=2)
        out = backaction_apply(w, cs, rho)
        assert abs(np.trace(rho @ out)) <= 1e-12 * np.linalg.norm(out)
        assert abs(np.trace(out)) <= 1e-12 * max(1.0, np.linalg.norm(out))


def test_backaction_linear_nonlinear_differ_by_trace_term():
    gen = rng(54)
    rho = random_state(gen, 3)
    cs = gen.normal(size=(1, 3, 3)) + 1j * gen.normal(size=(1, 3, 3))
    w = np.array([0.7 - 0.2j])
    lin = backaction_apply(w, cs, rho, linear=True)
    nonlin = backaction_apply(w, cs, rho)
    assert np.max(np.abs(lin - np.real(np.trace(lin)) * rho - nonlin)) <= 1e-14


def test_backaction_real_weights_address_doubled_directions():
    gen = rng(55)
    rho = random_state(gen, 2)
    cs = gen.normal(size=(2, 2, 2)) + 1j * gen.normal(size=(2, 2, 2))
    w = gen.normal(size=4)
    via_real = backaction_apply(w, cs, rho)
    via_complex = backaction_apply(w[:2] - 1j * w[2:], cs, rho)
    assert np.max(np.abs(via_real - via_complex)) <= 1e-14


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
    gen = rng(70)
    paths = {_Engine(_scaled_model(gen, dim)).tabulated for dim in ENGINE_DIMS}
    assert paths == {True, False}


@pytest.mark.parametrize("dim", ENGINE_DIMS)
def test_liouvillian_apply_matches_kron_oracle(dim):
    gen = rng(71 + dim)
    model = _scaled_model(gen, dim)
    sup = liouvillian_superoperator(model)
    xs = np.stack([random_state(gen, dim) for _ in range(3)])
    want = (xs.reshape(3, -1) @ sup.T).reshape(xs.shape)
    assert np.max(np.abs(liouvillian_apply(model, xs) - want)) <= 1e-13
    assert np.max(np.abs(liouvillian_apply(model, xs[1]) - want[1])) <= 1e-13


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
    got = backaction_apply(v, model.lindblads, rho, linear=True)
    assert np.max(np.abs(got - want)) <= 1e-13
    # The engine's per-direction back-action, contracted with real weights,
    # for a stack of states.
    ops = measurement_ops(random_mrep(gen, 2), model.lindblads)
    engine = _Engine(model, ops)
    rhos = np.stack([random_state(gen, dim) for _ in range(3)])
    w = gen.normal(size=(3, ops.shape[0]))
    for k in range(3):
        e = np.tensordot(w[k], ops, axes=1)
        want = e @ rhos[k] + rhos[k] @ e.conj().T
        assert np.max(np.abs(engine.backaction(rhos, w)[k] - want)) <= 1e-13
        assert np.max(np.abs(engine.backaction(rhos[k], w[k]) - want)) <= 1e-13


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
