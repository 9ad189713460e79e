"""Self-check suite: every module invariant as a named, seeded, deterministic check.

Each check returns a result row; the CLI ``check`` subcommand runs them all
and fails (exit 1) if any row fails.  Sampling sizes are chosen so the whole
suite runs in well under a minute; the acceptance tests exercise the same
properties at their full sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import dynamics, linalg, reps, sme, stats
from .dynamics import LindbladModel
from .noise import NoiseSource
from .reps import MRep
from .sme import SimulationConfig, simulate_ensemble


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _rng(seed: int, idx: int) -> Generator:
    # Key space disjoint from trajectory noise streams.
    return Generator(Philox(key=(1 << 120) + (idx << 64) + seed))


def _decay_model(gamma: float = 1.0, rabi: float = 0.0, hbar: float = 1.0) -> LindbladModel:
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return LindbladModel(hamiltonian=0.5 * rabi * sx, lindblads=np.sqrt(gamma) * sm[None], hbar=hbar)


def _excited() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _random_model(rng: Generator, dim: int, channels: int, hbar: float = 1.0) -> LindbladModel:
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2.0
    cs = (rng.normal(size=(channels, dim, dim)) + 1j * rng.normal(size=(channels, dim, dim))) / 2.0
    return LindbladModel(hamiltonian=h, lindblads=cs, hbar=hbar)


def _random_state(rng: Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def liouvillian_superoperator(model: LindbladModel) -> np.ndarray:
    """Matrix of drho/dt acting on row-major vectorized operators (oracle helper)."""
    n = model.dim
    eye = np.eye(n)
    ham = model.hamiltonian
    cdc = np.einsum("kba,kbc->ac", model.lindblads.conj(), model.lindblads)
    sup = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for c in model.lindblads:
        sup = sup + np.kron(c, c.conj())
    sup = sup - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T)
    return sup / model.hbar


# ---------------------------------------------------------------------------
# matrix primitives


def check_positive_sqrt_roundtrip(seed: int) -> CheckResult:
    rng = _rng(seed, 1)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = g @ g.conj().T
        b = (b + b.conj().T) / 2.0
        root = linalg.positive_sqrt(b @ b)
        worst = max(worst, np.linalg.norm(root - b) / max(np.linalg.norm(b), 1.0))
    return CheckResult(
        "linalg.positive_sqrt_roundtrip", worst <= 1e-9, f"max relative error {worst:.2e}"
    )


def check_polar_recomposition(seed: int) -> CheckResult:
    rng = _rng(seed, 2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        t = rng.normal(size=(n, n))
        p, o, _unique = linalg.polar_decompose(t)
        worst = max(worst, np.linalg.norm(p @ o - t) / max(np.linalg.norm(t), 1.0))
    return CheckResult(
        "linalg.polar_recomposition", worst <= 1e-9, f"max relative error {worst:.2e}"
    )


def check_pinv_orthogonal(seed: int) -> CheckResult:
    rng = _rng(seed, 3)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        o = reps.random_orthogonal(rng, n).matrix
        worst = max(worst, np.linalg.norm(linalg.pseudo_inverse(o) - o.T))
    return CheckResult(
        "linalg.pinv_orthogonal_transpose", worst <= 1e-10, f"max deviation {worst:.2e}"
    )


# ---------------------------------------------------------------------------
# measurement parameterizations


def check_sufficiency_sweep(seed: int, samples: int = 100) -> CheckResult:
    rng = _rng(seed, 4)
    worst = 0.0
    for channels in (1, 2, 3):
        for _ in range(samples):
            m = reps.random_mrep(rng, channels)
            u = reps.mrep_to_urep(m, tol=1e-10)
            w = np.linalg.eigvalsh((u.matrix + u.matrix.T) / 2.0)
            worst = max(worst, max(0.0, -float(w[0])))
    return CheckResult(
        "reps.sufficiency_sweep",
        worst <= 1e-10,
        f"derived unravelling matrices valid; worst eigenvalue deficit {worst:.2e}",
    )


def check_brep_route_equality(seed: int, samples: int = 60) -> CheckResult:
    rng = _rng(seed, 5)
    worst = 0.0
    for _ in range(samples):
        channels = int(rng.integers(1, 4))
        b = reps.random_brep(rng, channels)
        direct = reps.brep_to_urep(b).matrix
        via_m = reps.mrep_to_urep(reps.brep_to_mrep(b)).matrix
        worst = max(worst, float(np.max(np.abs(direct - via_m))))
    return CheckResult(
        "reps.brep_route_equality", worst <= 1e-10, f"max route difference {worst:.2e}"
    )


def check_brep_gram_identity(seed: int, samples: int = 60) -> CheckResult:
    rng = _rng(seed, 6)
    worst = 0.0
    for _ in range(samples):
        channels = int(rng.integers(1, 4))
        b = reps.random_brep(rng, channels)
        m = reps.brep_to_mrep(b)
        gram = m.matrix @ m.matrix.conj().T
        worst = max(worst, float(np.max(np.abs(gram - np.diag(np.clip(b.eta, 0, 1))))))
    return CheckResult(
        "reps.brep_gram_identity", worst <= 1e-12, f"max gram deviation {worst:.2e}"
    )


def check_factorization_roundtrip(seed: int, samples: int = 200) -> CheckResult:
    rng = _rng(seed, 7)
    worst = 0.0
    for _ in range(samples):
        m = reps.random_mrep(rng, 1)
        if np.linalg.norm(m.matrix) < 1e-6:
            continue
        b, o = reps.mrep_to_brep_o(m)
        rec = reps.brep_o_to_mrep(b, o)
        worst = max(worst, float(np.max(np.abs(rec.matrix - m.matrix))))
    return CheckResult(
        "reps.factorization_roundtrip", worst <= 1e-8, f"max reconstruction error {worst:.2e}"
    )


def check_polar_determinism(seed: int) -> CheckResult:
    rng = _rng(seed, 8)
    ok = True
    worst = 0.0
    for _ in range(20):
        m = reps.random_mrep(rng, 2)
        t = reps.mrep_to_trep(m)
        p1, o1, u1 = reps.trep_polar(t)
        p2, o2, u2 = reps.trep_polar(t)
        ok = ok and np.array_equal(p1, p2) and np.array_equal(o1.matrix, o2.matrix) and u1 == u2
        worst = max(
            worst,
            np.linalg.norm(p1 @ o1.matrix - t.matrix) / max(np.linalg.norm(t.matrix), 1e-30),
        )
    return CheckResult(
        "reps.polar_determinism",
        ok and worst <= 1e-9,
        f"repeat runs bit-identical: {ok}; max recomposition error {worst:.2e}",
    )


def check_stacked_weight_identity(seed: int) -> CheckResult:
    rng = _rng(seed, 9)
    worst = 0.0
    for _ in range(50):
        channels = int(rng.integers(1, 4))
        m = reps.random_mrep(rng, channels)
        t = reps.mrep_to_trep(m)
        v = rng.normal(size=channels) + 1j * rng.normal(size=channels)
        lhs = m.matrix.conj().T @ v
        rhs = t.matrix.T @ np.concatenate([v, -1j * v])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CheckResult(
        "reps.stacked_weight_identity", worst <= 1e-12, f"max identity deviation {worst:.2e}"
    )


# ---------------------------------------------------------------------------
# deterministic dynamics


def check_generator_traceless_hermitian(seed: int) -> CheckResult:
    rng = _rng(seed, 10)
    worst_tr = 0.0
    worst_h = 0.0
    for _ in range(25):
        model = _random_model(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        rho = _random_state(rng, model.dim)
        out = dynamics.liouvillian_apply(model, rho)
        worst_tr = max(worst_tr, abs(complex(np.trace(out))))
        worst_h = max(worst_h, float(np.linalg.norm(out - out.conj().T)))
    ok = worst_tr <= 1e-12 and worst_h <= 1e-12
    return CheckResult(
        "dynamics.generator_traceless_hermitian",
        ok,
        f"max |trace| {worst_tr:.2e}, max Hermiticity defect {worst_h:.2e}",
    )


def check_decay_analytic(seed: int) -> CheckResult:
    model = _decay_model()
    states = dynamics.me_integrate(model, _excited(), dt=1e-3, steps=3000)
    times = np.arange(3001) * 1e-3
    pops = np.real(states[:, 0, 0])
    worst = float(np.max(np.abs(pops - np.exp(-times))))
    return CheckResult(
        "dynamics.decay_analytic", worst <= 1e-8, f"max population error {worst:.2e}"
    )


def check_regression_vs_exponential(seed: int) -> CheckResult:
    # Imported here so that importing diffmon never loads scipy.
    from scipy.linalg import expm

    rng = _rng(seed, 12)
    worst = 0.0
    for dim, channels in ((2, 1), (3, 2), (4, 2)):
        model = _random_model(rng, dim, channels)
        rho = _random_state(rng, dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        sup = liouvillian_superoperator(model)
        for tau in (0.3, 1.0):
            got = dynamics.regression_correlation(model, a, b, rho, tau, dt=1e-3)
            x = expm(sup * tau) @ (rho @ a).reshape(-1)
            want = complex(np.trace(b @ x.reshape(dim, dim)))
            worst = max(worst, abs(got - want))
    return CheckResult(
        "dynamics.regression_vs_exponential", worst <= 1e-8, f"max error {worst:.2e}"
    )


def check_diffusion_invariance(seed: int, samples: int = 25) -> CheckResult:
    rng = _rng(seed, 13)
    worst = 0.0
    for _ in range(samples):
        model = _random_model(rng, 3, 2)
        rho = _random_state(rng, 3)
        m = reps.random_mrep(rng, 2)
        o = reps.random_orthogonal(rng, 4)
        d1 = dynamics.diffusion_matrix(model, m, rho)
        d2 = dynamics.diffusion_matrix(model, MRep(m.matrix @ o.matrix, hbar=m.hbar), rho)
        worst = max(worst, float(np.max(np.abs(d1 - d2))))
    return CheckResult(
        "dynamics.diffusion_orthogonal_invariance",
        worst <= 1e-10,
        f"max diffusion-matrix change under post-processing {worst:.2e}",
    )


def check_autocorrelation_symmetry(seed: int) -> CheckResult:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    model = LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=(sx / np.sqrt(2.0))[None])
    m = MRep(np.sqrt(0.7) * np.array([[np.cos(0.3), np.sin(0.3)]], dtype=complex))
    rho = np.eye(2, dtype=complex) / 2.0
    corr = dynamics.predicted_autocorrelation(model, m, rho, np.array([0.2, 0.5]), dt=1e-3)
    worst = float(max(np.max(np.abs(c - c.T)) for c in corr))
    return CheckResult(
        "dynamics.autocorrelation_symmetry",
        worst <= 1e-8,
        f"max asymmetry for a Hermitian-coupling model at its stationary state {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# stochastic propagation


def check_noise_completion_psd(seed: int, samples: int = 100) -> CheckResult:
    rng = _rng(seed, 15)
    worst_psd = 0.0
    worst_id = 0.0
    for _ in range(samples):
        channels = int(rng.integers(1, 4))
        m = reps.random_mrep(rng, channels)
        z = m.hbar * np.eye(2 * channels) - m.matrix.conj().T @ m.matrix
        w = np.linalg.eigvalsh((z + z.conj().T) / 2.0)
        worst_psd = max(worst_psd, max(0.0, -float(w[0])))
        ell = sme.noise_completion(m)
        defect = np.linalg.norm(
            m.hbar**2 * ell @ ell.conj().T + m.matrix.conj().T @ m.matrix
            - m.hbar * np.eye(2 * channels)
        )
        worst_id = max(worst_id, float(defect))
    ok = worst_psd <= 1e-10 and worst_id <= 1e-12
    return CheckResult(
        "sme.noise_completion_psd",
        ok,
        f"worst PSD deficit {worst_psd:.2e}; completion identity defect {worst_id:.2e}",
    )


def check_step_trace_hermiticity(seed: int) -> CheckResult:
    rng = _rng(seed, 16)
    model = _decay_model(rabi=1.0)
    m = reps.heterodyne_mrep(0.7)
    engine = dynamics._measured_engine(model, m)
    rho = np.broadcast_to(_excited(), (200, 2, 2)).copy()
    dw = rng.normal(scale=np.sqrt(1e-3), size=(200, 2))
    out, tr, _cur = sme._step_states(engine, rho, dw, 1e-3, linear=False)
    herm = float(np.max(np.abs(out - out.conj().transpose(0, 2, 1))))
    tr_dev = float(np.max(np.abs(tr - 1.0)))
    ok = herm == 0.0 and tr_dev <= 1e-12
    return CheckResult(
        "sme.step_trace_hermiticity",
        ok,
        f"pre-normalization trace deviation {tr_dev:.2e}, Hermiticity defect {herm:.2e}",
    )


def _one_step_sample(model, m, rho0, seed: int, stream: int, n: int, dt: float, linear=False):
    """n copies of rho0 stepped once along the first n increments of a stream: (out, tr, dw)."""
    dw = NoiseSource(seed, stream, 2 * m.channels).draw_block(n, dt)
    rho = np.broadcast_to(rho0, (n, *rho0.shape))
    out, tr, _cur = sme._step_states(dynamics._measured_engine(model, m), rho, dw, dt, linear)
    return out, tr, dw


def check_one_step_mean(seed: int) -> CheckResult:
    model = _decay_model(rabi=1.0)
    dt, n, rho0 = 1e-3, 20000, _excited()
    out, _tr, _dw = _one_step_sample(model, reps.heterodyne_mrep(0.8), rho0, seed, 0, n, dt)
    mean = out.mean(axis=0)
    se = out.std(axis=0, ddof=1) / np.sqrt(n)
    det = dynamics.rk4_step(model, rho0, dt)
    excess = np.abs(mean - det) - 3.0 * np.abs(se) - 10.0 * dt**2
    worst = float(np.max(excess.real))
    return CheckResult(
        "sme.one_step_mean",
        worst <= 0.0,
        f"worst entrywise excess over 3 stderr + O(dt^2): {worst:.2e}",
    )


def check_purity_rate(seed: int) -> CheckResult:
    model = _decay_model()
    rho0 = _excited()
    dt = 1e-4
    n = 20000
    details = []
    ok = True
    for idx, m in enumerate(
        (reps.heterodyne_mrep(1.0), reps.homodyne_mrep(0.5), MRep(np.zeros((1, 2))))
    ):
        predicted = sme.purity_increment_predicted(model, m, rho0)
        out, _tr, _dw = _one_step_sample(model, m, rho0, seed, idx + 1, n, dt)
        dp = (np.real(np.einsum("nab,nba->n", out, out)) - 1.0) / dt
        se = float(dp.std(ddof=1) / np.sqrt(n))
        dev = abs(float(dp.mean()) - predicted)
        ok = ok and dev <= 3.0 * se + 10.0 * dt
        details.append(f"dev {dev:.2e} vs 3se {3 * se:.2e}")
    return CheckResult("sme.purity_rate_monte_carlo", ok, "; ".join(details))


def check_linear_martingale(seed: int) -> CheckResult:
    model = _decay_model(rabi=1.0)
    m = reps.homodyne_mrep(0.8)
    dt, n = 1e-3, 20000
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    _out, tr, y_dt = _one_step_sample(model, m, plus, seed, 5, n, dt, linear=True)
    se = float(tr.std(ddof=1) / np.sqrt(n))
    dev = abs(float(tr.mean()) - 1.0)
    mean_y = y_dt * tr[:, None] / dt
    truth = dynamics._measured_engine(model, m).current(plus)
    dev_y = np.abs(mean_y.mean(axis=0) - truth)
    se_y = mean_y.std(axis=0, ddof=1) / np.sqrt(n)
    ok = dev <= 3.0 * se + 1e-12 and bool(np.all(dev_y <= 3.0 * se_y + 10.0 * dt))
    return CheckResult(
        "sme.linear_martingale",
        ok,
        f"weight-mean deviation {dev:.2e} (3se {3 * se:.2e});"
        f" weighted current deviation {np.max(dev_y):.2e}",
    )


def check_brep_noise_blocks(seed: int, samples: int = 60) -> CheckResult:
    rng = _rng(seed, 18)
    worst_id = 0.0
    worst_m = 0.0
    for _ in range(samples):
        channels = int(rng.integers(1, 4))
        b = reps.random_brep(rng, channels)
        blocks = sme.brep_noise_matrices(b)
        total = (
            blocks.signal @ blocks.signal.conj().T
            + blocks.loss @ blocks.loss.conj().T
            + blocks.splitter @ blocks.splitter.conj().T
        )
        worst_id = max(worst_id, float(np.max(np.abs(total - np.eye(2 * channels)))))
        worst_m = max(
            worst_m,
            float(np.max(np.abs(blocks.measurement_matrix() - reps.brep_to_mrep(b).matrix))),
        )
    ok = worst_id <= 1e-12 and worst_m <= 1e-12
    return CheckResult(
        "sme.brep_noise_blocks",
        ok,
        f"completeness defect {worst_id:.2e}; measurement-matrix mismatch {worst_m:.2e}",
    )


# ---------------------------------------------------------------------------
# ensemble statistics


def check_initial_state(seed: int) -> CheckResult:
    model = _decay_model(rabi=1.0)
    m = reps.homodyne_mrep(0.9)
    rho0 = _excited()
    config = SimulationConfig(dt=1e-2, steps=20, n_traj=64, seed=seed, snapshot_stride=10)
    ens = simulate_ensemble(model, m, rho0, config)
    dev = float(np.max(np.abs(stats.ensemble_mean_state(ens, 0) - rho0)))
    return CheckResult(
        "stats.initial_state", dev <= 1e-14, f"initial mean-state deviation {dev:.2e}"
    )


def check_stderr_scaling(seed: int) -> CheckResult:
    model = _decay_model(rabi=1.0)
    m = reps.homodyne_mrep(0.8)
    rho0 = _excited()
    sz = np.diag([1.0, -1.0]).astype(complex)
    ses = []
    for n in (400, 1600):
        config = SimulationConfig(
            dt=5e-3, steps=200, n_traj=n, seed=seed + n, snapshot_stride=200, store_dw=False
        )
        ens = simulate_ensemble(model, m, rho0, config)
        vals = np.real(np.einsum("ab,nba->n", sz, ens.snapshots[-1]))
        ses.append(float(vals.std(ddof=1) / np.sqrt(n)))
    ratio = ses[0] / ses[1]
    ok = 1.6 <= ratio <= 2.4
    return CheckResult(
        "stats.stderr_scaling", ok, f"stderr ratio across 4x sweep {ratio:.3f} (target 2)"
    )


def check_estimator_determinism(seed: int) -> CheckResult:
    model = _decay_model(rabi=1.0)
    m = reps.heterodyne_mrep(0.8)
    rho0 = _excited()
    config = SimulationConfig(dt=5e-3, steps=120, n_traj=50, seed=seed, snapshot_stride=30)
    ens = simulate_ensemble(model, m, rho0, config)
    a1 = stats.autocorrelation_estimate(ens, [1, 4, 9])
    a2 = stats.autocorrelation_estimate(ens, [1, 4, 9])
    r1 = stats.convergence_report(ens, model)
    r2 = stats.convergence_report(ens, model)
    ok = (
        np.array_equal(a1.matrices, a2.matrices)
        and np.array_equal(a1.stderr, a2.stderr)
        and np.array_equal(r1.trace_distances, r2.trace_distances)
    )
    return CheckResult("stats.estimator_determinism", ok, f"re-run bit-identical: {ok}")


def check_ensemble_replay(seed: int) -> CheckResult:
    model = _decay_model(rabi=1.0)
    m = reps.heterodyne_mrep(0.8)
    rho0 = _excited()
    config = SimulationConfig(dt=5e-3, steps=90, n_traj=16, seed=seed, snapshot_stride=30)
    e1 = simulate_ensemble(model, m, rho0, config, block_steps=7)
    e2 = simulate_ensemble(model, m, rho0, config, block_steps=256)
    ok = (
        np.array_equal(e1.currents, e2.currents)
        and np.array_equal(e1.noise, e2.noise)
        and np.array_equal(e1.snapshots, e2.snapshots)
    )
    return CheckResult(
        "sme.ensemble_replay", ok, f"identical output across batching schedules: {ok}"
    )


ALL_CHECKS = (
    check_positive_sqrt_roundtrip,
    check_polar_recomposition,
    check_pinv_orthogonal,
    check_sufficiency_sweep,
    check_brep_route_equality,
    check_brep_gram_identity,
    check_factorization_roundtrip,
    check_polar_determinism,
    check_stacked_weight_identity,
    check_generator_traceless_hermitian,
    check_decay_analytic,
    check_regression_vs_exponential,
    check_diffusion_invariance,
    check_autocorrelation_symmetry,
    check_noise_completion_psd,
    check_step_trace_hermiticity,
    check_one_step_mean,
    check_purity_rate,
    check_linear_martingale,
    check_brep_noise_blocks,
    check_ensemble_replay,
    check_initial_state,
    check_stderr_scaling,
    check_estimator_determinism,
)


def run_all_checks(seed: int = 0) -> list:
    return [fn(seed) for fn in ALL_CHECKS]
