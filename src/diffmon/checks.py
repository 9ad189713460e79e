"""Self-check suite: every module invariant as a named, deterministic check.

Each check is registered under its name where it is defined, in report order, and
returns ``(passed, detail)``; ``run_all_checks`` turns them into result rows and the CLI
``check`` subcommand fails (exit 1) if any row fails.  The one-step SME rows take exact
Gauss-Hermite means, so they sample nothing and read no seed.  The sampled rows draw
seeded inputs or ensembles, sized so the whole suite runs in well under a minute; the
acceptance tests exercise the same properties at their full sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import dynamics, linalg, noise, reps, sme, stats
from .dynamics import LindbladModel
from .errors import DiffmonError
from .reps import MRep
from .sme import SimulationConfig, simulate_ensemble


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


CHECKS: list = []  # (name, check) in report order; a check maps a seed to (passed, detail)


def _check(name: str):
    """Register the decorated check under ``name``, after every check registered before it."""
    def register(check):
        CHECKS.append((name, check))
        return check
    return register


def _worst(defects):
    """The largest of a sweep's defects, elementwise for tuples of them, and 0 for none.

    ``np.maximum`` carries a NaN through, where ``max(worst, x)`` would keep ``worst``, so
    a NaN defect fails its bound; on ties it keeps the running worst, as ``max`` does.
    """
    worst = 0.0
    for defect in defects:
        worst = np.maximum(defect, worst)
    return worst


def _sweep(name: str, bound, detail: str):
    """Register a generator of defects as the check that their worst is within ``bound``.

    For defects that are tuples, ``bound`` holds one bound per entry; ``detail`` is
    formatted with the worst of each entry.
    """
    def register(defects):
        @_check(name)
        def check(seed: int) -> tuple:
            worst = _worst(defects(seed))
            return np.all(worst <= bound), detail.format(*np.atleast_1d(worst))
        return check
    return register


def run_all_checks(seed: int = 0) -> list:
    """One row per registered check, in report order.

    A check that raises a ``DiffmonError`` is a failed row naming the error, and the
    rows after it still run; any other exception propagates.  A seed that does not fit
    in 64 unsigned bits raises ``ValidationError`` before any row runs.
    """
    noise._check_streams(seed, 0, 1)  # the seed keys Philox streams: refused before any row
    rows = []
    for name, check in CHECKS:
        try:
            passed, detail = check(seed)
        except DiffmonError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        rows.append(CheckResult(name, bool(passed), detail))
    return rows


def _rng(seed: int, idx: int) -> Generator:
    # Key space disjoint from trajectory noise streams.
    return Generator(Philox(key=(1 << 120) + (idx << 64) + seed))


def _decay_model(rabi: float = 0.0) -> LindbladModel:
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return LindbladModel(hamiltonian=0.5 * rabi * sx, lindblads=sm[None])


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


@_sweep("linalg.positive_sqrt_roundtrip", 1e-9, "max relative error {:.2e}")
def check_positive_sqrt_roundtrip(seed: int):
    rng = _rng(seed, 1)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = g @ g.conj().T
        b = (b + b.conj().T) / 2.0
        root = linalg.positive_sqrt(b @ b)
        yield np.linalg.norm(root - b) / max(np.linalg.norm(b), 1.0)


@_sweep("linalg.polar_recomposition", 1e-9, "max relative error {:.2e}")
def check_polar_recomposition(seed: int):
    rng = _rng(seed, 2)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        t = rng.normal(size=(n, n))
        p, o, _unique = linalg.polar_decompose(t)
        yield np.linalg.norm(p @ o - t) / max(np.linalg.norm(t), 1.0)


@_sweep("linalg.pinv_orthogonal_transpose", 1e-10, "max deviation {:.2e}")
def check_pinv_orthogonal(seed: int):
    rng = _rng(seed, 3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        o = reps.random_orthogonal(rng, n).matrix
        yield np.linalg.norm(linalg.pseudo_inverse(o) - o.T)


# ---------------------------------------------------------------------------
# measurement parameterizations


@_sweep("reps.sufficiency_sweep", 1e-10,
        "derived unravelling matrices valid; worst eigenvalue deficit {:.2e}")
def check_sufficiency_sweep(seed: int):
    rng = _rng(seed, 4)
    for channels in (1, 2, 3):
        for _ in range(100):
            m = reps.random_mrep(rng, channels)
            u = reps.mrep_to_urep(m, tol=1e-10)
            w = np.linalg.eigvalsh((u.matrix + u.matrix.T) / 2.0)
            yield -float(w[0])  # the worst starts at 0: a PSD matrix has no deficit


@_sweep("reps.brep_route_equality", 1e-10, "max route difference {:.2e}")
def check_brep_route_equality(seed: int):
    rng = _rng(seed, 5)
    for _ in range(60):
        channels = int(rng.integers(1, 4))
        b = reps.random_brep(rng, channels)
        direct = reps.brep_to_urep(b).matrix
        via_m = reps.mrep_to_urep(reps.brep_to_mrep(b)).matrix
        yield float(np.max(np.abs(direct - via_m)))


@_sweep("reps.brep_gram_identity", 1e-12, "max gram deviation {:.2e}")
def check_brep_gram_identity(seed: int):
    rng = _rng(seed, 6)
    for _ in range(60):
        channels = int(rng.integers(1, 4))
        b = reps.random_brep(rng, channels)
        m = reps.brep_to_mrep(b)
        gram = m.matrix @ m.matrix.conj().T
        yield float(np.max(np.abs(gram - np.diag(np.clip(b.eta, 0, 1)))))


@_sweep("reps.factorization_roundtrip", 1e-8, "max reconstruction error {:.2e}")
def check_factorization_roundtrip(seed: int):
    rng = _rng(seed, 7)
    for _ in range(200):
        m = reps.random_mrep(rng, 1)
        if np.linalg.norm(m.matrix) < 1e-6:
            continue
        b, o = reps.mrep_to_brep_o(m)
        rec = reps.brep_o_to_mrep(b, o)
        yield float(np.max(np.abs(rec.matrix - m.matrix)))


@_check("reps.polar_determinism")
def check_polar_determinism(seed: int) -> tuple:
    rng = _rng(seed, 8)
    ok = True
    errors = []
    for _ in range(20):
        m = reps.random_mrep(rng, 2)
        t = reps.mrep_to_trep(m)
        p1, o1, u1 = reps.trep_polar(t)
        p2, o2, u2 = reps.trep_polar(t)
        ok = ok and np.array_equal(p1, p2) and np.array_equal(o1.matrix, o2.matrix) and u1 == u2
        errors.append(
            np.linalg.norm(p1 @ o1.matrix - t.matrix) / max(np.linalg.norm(t.matrix), 1e-30)
        )
    worst = _worst(errors)
    detail = f"repeat runs bit-identical: {ok}; max recomposition error {worst:.2e}"
    return ok and worst <= 1e-9, detail


@_sweep("reps.stacked_weight_identity", 1e-12, "max identity deviation {:.2e}")
def check_stacked_weight_identity(seed: int):
    rng = _rng(seed, 9)
    for _ in range(50):
        channels = int(rng.integers(1, 4))
        m = reps.random_mrep(rng, channels)
        t = reps.mrep_to_trep(m)
        v = rng.normal(size=channels) + 1j * rng.normal(size=channels)
        lhs = m.matrix.conj().T @ v
        rhs = t.matrix.T @ np.concatenate([v, -1j * v])
        yield float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# deterministic dynamics


@_sweep("dynamics.generator_traceless_hermitian", (1e-12, 1e-12),
        "max |trace| {:.2e}, max Hermiticity defect {:.2e}")
def check_generator_traceless_hermitian(seed: int):
    rng = _rng(seed, 10)
    for _ in range(25):
        model = _random_model(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        rho = _random_state(rng, model.dim)
        out = dynamics.liouvillian_apply(model, rho)
        yield abs(complex(np.trace(out))), float(np.linalg.norm(out - out.conj().T))


@_sweep("dynamics.decay_analytic", 1e-8, "max population error {:.2e}")
def check_decay_analytic(seed: int):
    model = _decay_model()
    states = dynamics.me_integrate(model, _excited(), dt=1e-3, steps=3000)
    times = np.arange(3001) * 1e-3
    pops = np.real(states[:, 0, 0])
    yield float(np.max(np.abs(pops - np.exp(-times))))


@_sweep("dynamics.regression_vs_exponential", 1e-8, "max error {:.2e}")
def check_regression_vs_exponential(seed: int):
    # Imported here so that importing diffmon never loads scipy.
    from scipy.linalg import expm

    rng = _rng(seed, 12)
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
            yield abs(got - want)


@_sweep("dynamics.diffusion_orthogonal_invariance", 1e-10,
        "max diffusion-matrix change under post-processing {:.2e}")
def check_diffusion_invariance(seed: int):
    rng = _rng(seed, 13)
    for _ in range(25):
        model = _random_model(rng, 3, 2)
        rho = _random_state(rng, 3)
        m = reps.random_mrep(rng, 2)
        o = reps.random_orthogonal(rng, 4)
        d1 = dynamics.diffusion_matrix(model, m, rho)
        d2 = dynamics.diffusion_matrix(model, MRep(m.matrix @ o.matrix, hbar=m.hbar), rho)
        yield float(np.max(np.abs(d1 - d2)))


@_sweep("dynamics.autocorrelation_symmetry", 1e-8,
        "max asymmetry for a Hermitian-coupling model at its stationary state {:.2e}")
def check_autocorrelation_symmetry(seed: int):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    model = LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=(sx / np.sqrt(2.0))[None])
    m = MRep(np.sqrt(0.7) * np.array([[np.cos(0.3), np.sin(0.3)]], dtype=complex))
    rho = np.eye(2, dtype=complex) / 2.0
    corr = dynamics.predicted_autocorrelation(model, m, rho, np.array([0.2, 0.5]), dt=1e-3)
    for c in corr:
        yield float(np.max(np.abs(c - c.T)))


# ---------------------------------------------------------------------------
# stochastic propagation


@_sweep("sme.noise_completion_psd", (1e-10, 1e-12),
        "worst PSD deficit {:.2e}; completion identity defect {:.2e}")
def check_noise_completion_psd(seed: int):
    rng = _rng(seed, 15)
    for _ in range(100):
        channels = int(rng.integers(1, 4))
        m = reps.random_mrep(rng, channels)
        z = m.hbar * np.eye(2 * channels) - m.matrix.conj().T @ m.matrix
        w = np.linalg.eigvalsh((z + z.conj().T) / 2.0)
        ell = sme.noise_completion(m)
        defect = np.linalg.norm(
            m.hbar**2 * ell @ ell.conj().T + m.matrix.conj().T @ m.matrix
            - m.hbar * np.eye(2 * channels)
        )
        yield -float(w[0]), float(defect)  # as in reps.sufficiency_sweep


@_check("sme.step_trace_hermiticity")
def check_step_trace_hermiticity(seed: int) -> tuple:
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
    return ok, f"pre-normalization trace deviation {tr_dev:.2e}, Hermiticity defect {herm:.2e}"


def _one_step_mean(model, m, rho0, dt: float, f, linear: bool = False):
    """The exact mean of ``f(out, tr, w)`` over one step of rho0 along Gaussian increments w.

    The step is taken once at each node of the 2-point Gauss-Hermite rule, w in
    {+-sqrt(dt)}^(2L) with equal weights, which integrates exactly every polynomial of
    degree at most 3 in each increment.  The rule is exact here because the nonlinear
    pre-normalization trace does not depend on w (``sme.step_trace_hermiticity`` checks
    this): a step's states and traces are then affine in w, and each ``f`` below is of
    degree at most 2 in it.  A step that divides by a w-dependent trace needs more nodes.
    """
    w = np.sqrt(dt) * np.array(list(itertools.product((-1.0, 1.0), repeat=2 * m.channels)))
    rho = np.broadcast_to(rho0, (len(w), *rho0.shape))
    out, tr, _cur = sme._step_states(dynamics._measured_engine(model, m), rho, w, dt, linear)
    return np.mean(f(out, tr, w), axis=0)


@_check("sme.one_step_mean")
def check_one_step_mean(seed: int) -> tuple:
    model = _decay_model(rabi=1.0)
    dt, rho0 = 1e-3, _excited()
    mean = _one_step_mean(model, reps.heterodyne_mrep(0.8), rho0, dt, lambda out, tr, w: out)
    dev = float(np.max(np.abs(mean - dynamics.rk4_step(model, rho0, dt))))
    return dev <= 10.0 * dt**2, f"worst entrywise deviation from the RK4 step: {dev:.2e}"


@_check("sme.purity_rate_monte_carlo")
def check_purity_rate(seed: int) -> tuple:
    model = _decay_model()
    rho0 = _excited()
    dt = 1e-4

    def rate(out, tr, w):
        return (np.real(np.einsum("nab,nba->n", out, out)) - 1.0) / dt

    devs = []
    for m in (reps.heterodyne_mrep(1.0), reps.homodyne_mrep(0.5), MRep(np.zeros((1, 2)))):
        predicted = sme.purity_increment_predicted(model, m, rho0)
        devs.append(abs(_one_step_mean(model, m, rho0, dt, rate) - predicted))
    ok = all(dev <= 10.0 * dt for dev in devs)
    return ok, "; ".join(f"dev {dev:.2e}" for dev in devs)


@_check("sme.linear_martingale")
def check_linear_martingale(seed: int) -> tuple:
    model = _decay_model(rabi=1.0)
    m = reps.homodyne_mrep(0.8)
    dt = 1e-3
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    weight = _one_step_mean(model, m, plus, dt, lambda out, tr, w: tr, linear=True)
    current = _one_step_mean(
        model, m, plus, dt, lambda out, tr, w: w * tr[:, None] / dt, linear=True
    )
    dev = abs(weight - 1.0)
    truth = dynamics._measured_engine(model, m).currents @ dynamics._gather(plus)
    dev_y = np.abs(current - truth)
    ok = dev <= 1e-12 and bool(np.all(dev_y <= 10.0 * dt))
    return ok, f"weight-mean deviation {dev:.2e}; weighted current deviation {np.max(dev_y):.2e}"


@_sweep("sme.brep_noise_blocks", (1e-12, 1e-12),
        "completeness defect {:.2e}; measurement-matrix mismatch {:.2e}")
def check_brep_noise_blocks(seed: int):
    rng = _rng(seed, 18)
    for _ in range(60):
        channels = int(rng.integers(1, 4))
        b = reps.random_brep(rng, channels)
        blocks = sme.brep_noise_matrices(b)
        total = (
            blocks.signal @ blocks.signal.conj().T
            + blocks.loss @ blocks.loss.conj().T
            + blocks.splitter @ blocks.splitter.conj().T
        )
        yield (
            float(np.max(np.abs(total - np.eye(2 * channels)))),
            float(np.max(np.abs(blocks.measurement_matrix() - reps.brep_to_mrep(b).matrix))),
        )


@_check("sme.ensemble_replay")
def check_ensemble_replay(seed: int) -> tuple:
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
    return ok, f"identical output across batching schedules: {ok}"


# ---------------------------------------------------------------------------
# ensemble statistics


@_sweep("stats.initial_state", 1e-14, "initial mean-state deviation {:.2e}")
def check_initial_state(seed: int):
    model = _decay_model(rabi=1.0)
    m = reps.homodyne_mrep(0.9)
    rho0 = _excited()
    config = SimulationConfig(dt=1e-2, steps=20, n_traj=64, seed=seed, snapshot_stride=10)
    ens = simulate_ensemble(model, m, rho0, config)
    yield float(np.max(np.abs(stats.ensemble_mean_state(ens, 0) - rho0)))


@_check("stats.stderr_scaling")
def check_stderr_scaling(seed: int) -> tuple:
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
    return 1.6 <= ratio <= 2.4, f"stderr ratio across 4x sweep {ratio:.3f} (target 2)"


@_check("stats.estimator_determinism")
def check_estimator_determinism(seed: int) -> tuple:
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
    return ok, f"re-run bit-identical: {ok}"
