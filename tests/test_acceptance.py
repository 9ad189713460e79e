"""Acceptance suite: one test per criterion, each printing a PASS line.

The PASS lines are written to the real stdout so they stay visible under
pytest's capture.  Sampling sizes and tolerances are fixed here; every random
quantity is seeded, so the suite is deterministic.
"""

import sys

import numpy as np
import pytest

from diffmon import (
    MRep,
    SimulationConfig,
    autocorrelation_estimate,
    brep_noise_matrices,
    brep_o_to_mrep,
    brep_to_mrep,
    brep_to_urep,
    diffusion_matrix,
    heterodyne_mrep,
    homodyne_mrep,
    linear_nonlinear_consistency,
    liouvillian_apply,
    me_integrate,
    mrep_to_brep_o,
    mrep_to_urep,
    predicted_autocorrelation,
    purity_increment_predicted,
    simulate_ensemble,
    validate_mrep,
)
from diffmon.dynamics import LindbladModel
from diffmon.noise import NoiseSource
from diffmon.reps import (
    factor_phase_gap,
    factor_theta,
    random_brep,
    random_mrep,
    random_orthogonal,
)
from diffmon.dynamics import _measured_engine
from diffmon.sme import _step_states

from conftest import EXCITED, SIGMA_Z, decay_model, random_state, rng

SEED = 2026


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}", file=sys.__stdout__, flush=True)


def test_criterion_1_heterodyne_validity():
    worst = 0.0
    for eta in (0.1, 0.5, 1.0):
        m = np.sqrt(eta / 2.0) * np.array([[1.0, 1j]])
        got = validate_mrep(m, hbar=1.0)
        worst = max(worst, abs(float(got[0]) - eta))
    assert worst <= 1e-12
    _report(1, f"heterodyne rows validate exactly (worst efficiency error {worst:.2e})")


def test_criterion_2_sufficiency_sweep():
    gen = rng(SEED + 2)
    worst = 0.0
    for channels in (1, 2, 3):
        for _ in range(500):
            m = random_mrep(gen, channels)
            u = mrep_to_urep(m).matrix
            ell = channels
            sym = float(np.max(np.abs(u - u.T)))
            eig = max(0.0, -float(np.linalg.eigvalsh((u + u.T) / 2.0)[0]))
            s = u[:ell, :ell] + u[ell:, ell:]
            off = float(np.max(np.abs(s - np.diag(np.diagonal(s))), initial=0.0))
            rng_dev = float(
                np.max(np.maximum(np.diagonal(s) - 1.0, -np.diagonal(s)), initial=0.0)
            )
            blocks = float(np.max(np.abs(u[:ell, ell:] - u[ell:, :ell])))
            worst = max(worst, sym, eig, off, max(0.0, rng_dev), blocks)
    assert worst <= 1e-10
    _report(2, f"1500 derived correlation matrices satisfy all constraints (worst {worst:.2e})")


def test_criterion_3_brep_consistency():
    gen = rng(SEED + 3)
    worst_route = 0.0
    worst_gram = 0.0
    for i in range(200):
        channels = int(gen.integers(1, 4))
        hbar = 1.0 if i % 2 == 0 else 2.0
        b = random_brep(gen, channels)
        direct = brep_to_urep(b, hbar=hbar).matrix
        via_m = mrep_to_urep(brep_to_mrep(b, hbar=hbar)).matrix
        worst_route = max(worst_route, float(np.max(np.abs(direct - via_m))))
        m = brep_to_mrep(b, hbar=hbar)
        gram = m.matrix @ m.matrix.conj().T
        worst_gram = max(
            worst_gram, float(np.max(np.abs(gram - hbar * np.diag(b.eta)))) / hbar
        )
    assert worst_route <= 1e-10
    assert worst_gram <= 1e-12
    _report(
        3,
        f"200 optical realizations: route difference {worst_route:.2e},"
        f" channel-gram deviation {worst_gram:.2e}",
    )


def test_criterion_4_factorization_roundtrip():
    gen = rng(SEED + 4)
    worst = 0.0
    signs = {1: 0, -1: 0}
    done = 0
    while done < 1000:
        m = random_mrep(gen, 1)
        if np.linalg.norm(m.matrix) < 1e-6:
            continue
        brep, ortho = mrep_to_brep_o(m)
        signs[ortho.det_sign] += 1
        rec = brep_o_to_mrep(brep, ortho)
        worst = max(worst, float(np.max(np.abs(rec.matrix - m.matrix))))
        done += 1
    assert worst <= 1e-8
    assert signs[1] > 0 and signs[-1] > 0
    spot_theta = max(abs(factor_theta(1.0, phi) - 0.5) for phi in (0.2, 0.7, 1.2))
    spot_gap = max(abs(factor_phase_gap(1.0, phi) - np.pi / 2.0) for phi in (0.2, 0.7, 1.2))
    assert spot_theta <= 1e-12 and spot_gap <= 1e-12
    _report(
        4,
        f"1000 single-channel factorizations reconstruct to {worst:.2e}"
        f" ({signs[1]} plus / {signs[-1]} minus determinant); balanced-ratio spot"
        f" values exact to {max(spot_theta, spot_gap):.2e}",
    )


def test_criterion_5_unconditioned_convergence():
    model = decay_model(gamma=1.0)
    m = homodyne_mrep(0.8)
    config = SimulationConfig(
        dt=1e-3,
        steps=3000,
        n_traj=2000,
        seed=SEED,
        snapshot_stride=100,
        store_dw=False,
        positivity_tol=0.3,
    )
    ens = simulate_ensemble(model, m, EXCITED, config)
    worst = -np.inf
    for i, step in enumerate(ens.snapshot_steps):
        pops = np.real(ens.snapshots[i][:, 0, 0])
        se = float(pops.std(ddof=1) / np.sqrt(pops.size))
        dev = abs(float(pops.mean()) - np.exp(-float(ens.times[step])))
        worst = max(worst, dev - 3.0 * se - 0.01)
    assert worst <= 0.0
    _report(
        5,
        "2000-trajectory decay ensemble tracks the exponential at every snapshot"
        f" (worst deviation minus bound {worst:+.4f})",
    )


def test_criterion_6_purity_lemma_and_rate():
    model = decay_model(gamma=1.0)
    dt = 1e-3
    ideal = heterodyne_mrep(1.0)
    assert abs(purity_increment_predicted(model, ideal, EXCITED)) <= 1e-12
    engine = _measured_engine(model, ideal)

    def purity_after(dw):
        out, _tr, _cur = _step_states(engine, EXCITED[None], np.asarray(dw, float)[None], dt, False)
        return float(np.real(np.einsum("ab,ba->", out[0], out[0])))

    # The step is affine in the increments, so the purity is a quadratic
    # polynomial in them and a three-point rule gives the exact expectation.
    base = purity_after([0.0, 0.0])
    expected = base
    for j in range(2):
        for s in (1.0, -1.0):
            dw = [0.0, 0.0]
            dw[j] = s * np.sqrt(dt)
            expected += 0.5 * (purity_after(dw) - base)
    scale = max(1.0, float(np.linalg.norm(liouvillian_apply(model, EXCITED))) ** 2)
    ideal_dev = abs(expected - 1.0)
    assert ideal_dev <= 10.0 * dt**2 * scale

    m_half = homodyne_mrep(0.5)
    predicted = purity_increment_predicted(model, m_half, EXCITED)
    engine_half = _measured_engine(model, m_half)
    n, dt_mc = 10000, 1e-4
    dw = NoiseSource(SEED, 6, 2).draw_block(n, dt_mc)
    rho = np.broadcast_to(EXCITED, (n, 2, 2)).copy()
    out, _tr, _cur = _step_states(engine_half, rho, dw, dt_mc, linear=False)
    dp = (np.real(np.einsum("nab,nba->n", out, out)) - 1.0) / dt_mc
    se = float(dp.std(ddof=1) / np.sqrt(n))
    dev = abs(float(dp.mean()) - predicted)
    assert dev <= 3.0 * se
    _report(
        6,
        f"ideal one-step purity deviation {ideal_dev:.2e} <= {10 * dt**2 * scale:.2e};"
        f" half-efficiency Monte Carlo rate within {dev / se:.2f} stderr of the prediction",
    )


def test_criterion_7_heisenberg_identities():
    gen = rng(SEED + 7)
    worst_psd = 0.0
    for channels in (1, 2, 3):
        for _ in range(200):
            m = random_mrep(gen, channels)
            z = m.hbar * np.eye(2 * channels) - m.matrix.conj().T @ m.matrix
            w = np.linalg.eigvalsh((z + z.conj().T) / 2.0)
            worst_psd = max(worst_psd, max(0.0, -float(w[0])))
    assert worst_psd <= 1e-10
    worst_blocks = 0.0
    for _ in range(200):
        channels = int(gen.integers(1, 4))
        b = random_brep(gen, channels)
        blocks = brep_noise_matrices(b)
        total = (
            blocks.signal @ blocks.signal.conj().T
            + blocks.loss @ blocks.loss.conj().T
            + blocks.splitter @ blocks.splitter.conj().T
        )
        worst_blocks = max(worst_blocks, float(np.max(np.abs(total - np.eye(2 * channels)))))
    assert worst_blocks <= 1e-12
    _report(
        7,
        f"noise-completion PSD deficit {worst_psd:.2e}; realization noise blocks"
        f" compose the identity to {worst_blocks:.2e}",
    )


def test_criterion_8_unravelling_equivalence():
    gen = rng(SEED + 8)
    h = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    model = LindbladModel(
        hamiltonian=(h + h.conj().T) / 2.0,
        lindblads=(gen.normal(size=(2, 3, 3)) + 1j * gen.normal(size=(2, 3, 3))) / 2.0,
    )
    worst = 0.0
    for _ in range(50):
        m = random_mrep(gen, 2)
        o = random_orthogonal(gen, 4)
        rho = random_state(gen, 3)
        d1 = diffusion_matrix(model, m, rho)
        d2 = diffusion_matrix(model, MRep(m.matrix @ o.matrix, hbar=m.hbar), rho)
        worst = max(worst, float(np.max(np.abs(d1 - d2))))
    assert worst <= 1e-10
    _report(8, f"50 diffusion matrices invariant under post-processing (worst {worst:.2e})")


def test_criterion_9_linear_nonlinear_equivalence():
    model = decay_model(gamma=1.0, rabi=1.0)
    m = homodyne_mrep(0.8)
    config = SimulationConfig(
        dt=1e-3,
        steps=2000,
        n_traj=2000,
        seed=SEED,
        snapshot_stride=2000,
        store_dw=False,
        positivity_tol=0.3,
    )
    report = linear_nonlinear_consistency(
        model, m, EXCITED, config, observables=[("sz", SIGMA_Z)]
    )
    row = report.comparisons[0]
    assert report.passed
    assert report.effective_sample_size > 0.0
    _report(
        9,
        f"weighted linear vs nonlinear <sz>(T): deviation {row.deviation:.4f} vs"
        f" 4 x combined stderr {4 * row.combined_stderr:.4f}"
        f" (effective sample size {report.effective_sample_size:.0f})",
    )


@pytest.mark.slow
def test_criterion_10_autocorrelation():
    model = decay_model(gamma=1.0, rabi=1.0)
    m = homodyne_mrep(1.0)
    dt, steps, n = 1e-3, 6000, 5000
    burn = steps // 2
    # Unit-efficiency monitoring keeps trajectories near pure states, where the
    # first-order scheme's purity error performs an unbounded random walk over
    # long horizons; positivity monitoring is disabled for this run and the
    # statistical agreement below is the validation.
    config = SimulationConfig(
        dt=dt,
        steps=steps,
        n_traj=n,
        seed=SEED,
        snapshot_stride=steps,
        store_dw=False,
        store_purity=False,
        positivity_tol=np.inf,
    )
    ens = simulate_ensemble(model, m, EXCITED, config)
    lag_times = np.round(np.arange(1, 21) * 0.1, 10)
    lag_steps = [int(round(t / dt)) for t in lag_times]
    est = autocorrelation_estimate(ens, lag_steps, burn_in=burn)
    rho_tail = me_integrate(model, EXCITED, dt, burn)[-1]
    pred = predicted_autocorrelation(model, m, rho_tail, est.lag_times, dt=1e-3)
    z = np.abs(est.matrices - pred) / est.stderr
    assert float(np.max(z)) <= 3.0
    _report(
        10,
        f"driven-qubit current autocorrelation matches the regression prediction at"
        f" all 20 lags (max |z| = {float(np.max(z)):.2f})",
    )
