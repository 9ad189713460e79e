"""The four benchmark workloads: inputs from a seed, one round of work, output checks.

Every workload builds its inputs from the seed alone (the same seed gives the
same inputs), runs a fixed list of operations per round through diffmon's
public API or its command line, and checks the outputs against physics or
algebra computed here, never against stored output.  A round is timed part by
part; ``round_s`` is the sum of its parts.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Sizes per profile.  "standard" is what the timed runs use; "quick" runs every
# operation and every output check at reduced size.
PROFILES = {
    "standard": {
        "qubit": {"n_traj": 500, "steps": 100},
        "cavity": {8: {"n_traj": 50, "steps": 80}, 32: {"n_traj": 16, "steps": 4}},
        "cli": {"sim": (500, 50), "ac": (4000, 30)},
        "reps": {"factor": 300, "per_l": 300},
    },
    "quick": {
        "qubit": {"n_traj": 200, "steps": 60},
        "cavity": {8: {"n_traj": 20, "steps": 40}, 32: {"n_traj": 8, "steps": 2}},
        "cli": {"sim": (100, 20), "ac": (4000, 20)},
        "reps": {"factor": 40, "per_l": 40},
    },
}


class CheckFailed(AssertionError):
    """An output check found a wrong result."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def sub_seeds(seed: int, count: int) -> list:
    """Independent 31-bit seeds derived from the workload seed."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count) >> 1]


def t_threshold(n: int, sigmas: float) -> float:
    """Student-t quantile with the two-sided tail of ``sigmas`` normal standard errors.

    A mean over ``n`` samples divided by its estimated standard error follows a
    t distribution with n - 1 degrees of freedom, so a fixed "k stderr" rule
    would raise false alarms on small ensembles.
    """
    from scipy import stats as sps

    tail = 2.0 * sps.norm.sf(sigmas)
    return float(sps.t.isf(tail / 2.0, n - 1))


def close(a, b, tol: float) -> bool:
    """Entrywise |a - b| <= tol (an absolute tolerance only)."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0)) <= tol


def hermitian_unit_trace(snaps: np.ndarray, what: str) -> None:
    herm = float(np.max(np.abs(snaps - np.conj(np.swapaxes(snaps, -1, -2)))))
    tr = np.real(np.einsum("...ii->...", snaps))
    require(herm <= 1e-12, f"{what}: snapshot not Hermitian (defect {herm:.2e})")
    dev = float(np.max(np.abs(tr - 1.0)))
    require(dev <= 1e-12, f"{what}: snapshot trace off by {dev:.2e}")


class Workload:
    name = ""
    part_names = ("a", "b")

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.seed = int(seed)
        self.size = PROFILES[profile]
        self.workdir = workdir
        self.out = {}

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def failed_ops(self) -> int:
        """Operations of the last round that reported failure without raising."""
        return 0

    def ensembles(self) -> list:
        """(model, ensemble) pairs the last round simulated in this process."""
        return []

    def named(self, parts: dict) -> list:
        """Named throughput or command figures (name, value, unit) from scaled part times."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# qubit-ensemble


class QubitEnsemble(Workload):
    """The README ensemble: decaying qubit, heterodyne eta = 0.8, excited start."""

    name = "qubit-ensemble"
    part_names = ("nonlinear", "linear")

    def build(self):
        from diffmon import LindbladModel, SimulationConfig, heterodyne_mrep

        sm = np.array([[0, 0], [1, 0]], dtype=complex)
        self.model = LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=sm[None])
        self.mrep = heterodyne_mrep(0.8)
        self.rho0 = np.diag([1.0, 0.0]).astype(complex)
        size = self.size["qubit"]
        s_nl, s_li = sub_seeds(self.seed, 2)
        common = dict(dt=1e-3, steps=size["steps"], n_traj=size["n_traj"])
        self.configs = {
            "nonlinear": SimulationConfig(seed=s_nl, mode="nonlinear", **common),
            "linear": SimulationConfig(seed=s_li, mode="linear", **common),
        }

    def run_part(self, part: str):
        from diffmon import sme, stats

        ens = sme.simulate_ensemble(self.model, self.mrep, self.rho0, self.configs[part])
        self.out[part] = (ens, stats.ensemble_mean_state(ens, ens.snapshot_steps.size - 1))

    def ops_per_round(self) -> int:
        return 2

    def traj_steps(self, part: str) -> int:
        c = self.configs[part]
        return c.n_traj * c.steps

    def ensembles(self) -> list:
        return [(self.model, self.out[p][0]) for p in self.part_names]

    def named(self, parts: dict) -> list:
        return [
            ("ensemble_traj_steps_per_s", self.traj_steps("nonlinear") / parts["nonlinear"], "traj-step/s"),
            ("linear_traj_steps_per_s", self.traj_steps("linear") / parts["linear"], "traj-step/s"),
        ]

    def check(self):
        from diffmon import stats

        nl, rho_nl = self.out["nonlinear"]
        li, rho_li = self.out["linear"]
        for ens, what in ((nl, "nonlinear"), (li, "linear")):
            hermitian_unit_trace(ens.snapshots, what)
            hermitian_unit_trace(ens.snapshots[-1].mean(axis=0)[None], what)
        check_decay_population(nl)
        check_linear_vs_nonlinear(nl, li)
        check_noise_moments(stats.convergence_report(nl, self.model))
        require(abs(np.real(np.trace(rho_nl)) - 1.0) <= 1e-12, "mean state trace")
        require(abs(np.real(np.trace(rho_li)) - 1.0) <= 1e-12, "weighted mean state trace")


def check_decay_population(ens) -> None:
    """Mean excited population within 3 stderr + 0.01 of exp(-t) at every snapshot."""
    pops = np.real(ens.snapshots[:, :, 0, 0])
    n = pops.shape[1]
    mean = pops.mean(axis=1)
    err = pops.std(axis=1, ddof=1) / np.sqrt(n)
    exact = np.exp(-ens.times[ens.snapshot_steps])
    worst = np.abs(mean - exact) - (3.0 * err + 0.01)
    k = int(np.argmax(worst))
    require(
        worst[k] <= 0.0,
        f"excited population {mean[k]:.5f} at t={ens.times[ens.snapshot_steps[k]]:.3f}"
        f" vs exp(-t)={exact[k]:.5f} (stderr {err[k]:.2e})",
    )


PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def check_linear_vs_nonlinear(nl, li) -> None:
    """Weighted linear and plain nonlinear final means within 4 combined stderr."""
    lw = li.log_weight[:, li.snapshot_steps[-1]]
    w = np.exp(lw - lw.max())
    w = w / w.sum()
    for name, op in PAULIS.items():
        a = np.real(np.einsum("ab,nba->n", op, nl.snapshots[-1]))
        b = np.real(np.einsum("ab,nba->n", op, li.snapshots[-1]))
        a_mean, a_err = a.mean(), a.std(ddof=1) / np.sqrt(a.size)
        b_mean = float(np.sum(w * b))
        b_err = float(np.sqrt(np.sum((w * (b - b_mean)) ** 2)))
        comb = float(np.hypot(a_err, b_err))
        require(
            abs(a_mean - b_mean) <= 4.0 * comb + 1e-12,
            f"sigma_{name}: nonlinear {a_mean:.5f} vs weighted linear {b_mean:.5f}"
            f" (combined stderr {comb:.2e})",
        )


def check_noise_moments(report) -> None:
    """Increment mean and covariance within the convergence report's tolerances."""
    mean_dev = float(np.max(np.abs(report.dw_mean)))
    require(
        mean_dev <= report.dw_mean_tolerance,
        f"noise mean {mean_dev:.3e} above tolerance {report.dw_mean_tolerance:.3e}",
    )
    dt = report.dw_covariance_target
    dim = report.dw_covariance.shape[0]
    # 4 standard deviations of a sample second moment of N(0, dt) increments.
    tol = 4.0 * dt * np.sqrt(2.0 / report.n_increments)
    cov_dev = float(np.max(np.abs(report.dw_covariance - dt * np.eye(dim))))
    require(cov_dev <= tol, f"noise covariance off by {cov_dev:.3e} (tolerance {tol:.3e})")


# ---------------------------------------------------------------------------
# cavity-scaling


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def coherent_state(dim: int, alpha: complex) -> np.ndarray:
    k = np.arange(dim)
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, dim)))])
    amp = np.exp(k * np.log(abs(alpha)) - 0.5 * logfact) * np.exp(1j * k * np.angle(alpha))
    psi = amp / np.linalg.norm(amp)
    return np.outer(psi, psi.conj())


def lindblad_rhs(ham: np.ndarray, cs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The generator L applied to a matrix: drho/dt for hbar = 1."""
    out = -1j * (ham @ x - x @ ham)
    for c in cs:
        cd = c.conj().T
        out += c @ x @ cd - 0.5 * (cd @ (c @ x) + (x @ cd) @ c)
    return out


def expm_apply(ham: np.ndarray, cs: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """expm(t L) rho by a Taylor series summed to round-off over short substeps.

    An independent route from the program's fixed-step RK4: substeps keep
    ||h L|| below 1/2, so each series converges geometrically.
    """
    bound = 2.0 * np.linalg.norm(ham) + 2.0 * sum(np.linalg.norm(c) ** 2 for c in cs)
    substeps = max(1, int(np.ceil(2.0 * bound * t)))
    h = t / substeps
    x = np.array(rho, dtype=complex)
    for _ in range(substeps):
        term = x
        acc = x.copy()
        k = 1
        while True:
            term = (h / k) * lindblad_rhs(ham, cs, term)
            acc += term
            if np.linalg.norm(term) <= 1e-17 * np.linalg.norm(acc):
                break
            k += 1
        x = acc
    return x


class CavityScaling(Workload):
    """Damped Kerr cavity, homodyne eta = 0.7, coherent start, at d = 8 and d = 32."""

    name = "cavity-scaling"
    part_names = ("d8", "d32")
    NBAR = {8: 1.0, 32: 4.0}
    KAPPA = 1.0
    ETA = 0.7

    def build(self):
        from diffmon import LindbladModel, SimulationConfig, homodyne_mrep

        rng = np.random.Generator(np.random.Philox(key=self.seed))
        self.cases = {}
        for d, seed in zip((8, 32), sub_seeds(self.seed, 2)):
            a = annihilation(d)
            num = a.conj().T @ a
            chi = rng.uniform(0.2, 0.5)
            alpha = np.sqrt(self.NBAR[d]) * np.exp(2j * np.pi * rng.uniform())
            size = self.size["cavity"][d]
            self.cases[f"d{d}"] = {
                "dim": d,
                "model": LindbladModel(
                    hamiltonian=chi * num @ num, lindblads=np.sqrt(self.KAPPA) * a[None]
                ),
                "mrep": homodyne_mrep(self.ETA, phase=2 * np.pi * rng.uniform()),
                "rho0": coherent_state(d, alpha),
                "config": SimulationConfig(
                    dt=1e-3, steps=size["steps"], n_traj=size["n_traj"], seed=seed
                ),
            }
        self._reference = {}

    def run_part(self, part: str):
        from diffmon import sme, stats

        case = self.cases[part]
        ens = sme.simulate_ensemble(case["model"], case["mrep"], case["rho0"], case["config"])
        self.out[part] = (ens, stats.ensemble_mean_state(ens, ens.snapshot_steps.size - 1))

    def ops_per_round(self) -> int:
        return 2

    def traj_steps(self, part: str) -> int:
        c = self.cases[part]["config"]
        return c.n_traj * c.steps

    def ensembles(self) -> list:
        return [(self.cases[p]["model"], self.out[p][0]) for p in self.part_names]

    def named(self, parts: dict) -> list:
        return [
            ("cavity_d8_traj_steps_per_s", self.traj_steps("d8") / parts["d8"], "traj-step/s"),
            ("cavity_d32_traj_steps_per_s", self.traj_steps("d32") / parts["d32"], "traj-step/s"),
        ]

    def reference(self, part: str) -> np.ndarray:
        """expm(t L) rho0 at the final time, with L written out in this file."""
        if part not in self._reference:
            case = self.cases[part]
            model = case["model"]
            t = case["config"].steps * case["config"].dt
            self._reference[part] = expm_apply(
                model.hamiltonian, model.lindblads, case["rho0"], t
            )
        return self._reference[part]

    def check(self):
        for part in self.part_names:
            ens, rho_mean = self.out[part]
            case = self.cases[part]
            hermitian_unit_trace(ens.snapshots, part)
            check_photon_decay(ens, case["rho0"], self.KAPPA, part)
            check_mean_state(ens, rho_mean, self.reference(part), part)


def check_photon_decay(ens, rho0, kappa: float, what: str) -> None:
    """Ensemble mean <a^dag a> within 4 stderr of <a^dag a>_0 exp(-kappa t).

    Exact because the Kerr Hamiltonian commutes with the photon number.
    """
    dim = rho0.shape[0]
    num = np.arange(dim, dtype=float)
    final = ens.snapshots[-1]
    vals = np.real(np.einsum("a,naa->n", num, final))
    n = vals.size
    t = ens.times[ens.snapshot_steps[-1]]
    exact = float(np.real(np.sum(num * np.diagonal(rho0)))) * np.exp(-kappa * t)
    err = vals.std(ddof=1) / np.sqrt(n)
    limit = t_threshold(n, 4.0) * err + 1e-9
    require(
        abs(vals.mean() - exact) <= limit,
        f"{what}: mean photon number {vals.mean():.6f} vs {exact:.6f} (limit {limit:.2e})",
    )


def check_mean_state(ens, rho_mean: np.ndarray, exact: np.ndarray, what: str) -> None:
    """Trace distance of the mean state to expm(tL) rho0 within a statistical bound.

    The bound is the trace-norm image of a Frobenius error of k standard errors:
    trace distance <= sqrt(d)/2 * ||mean - exact||_F, and the squared Frobenius
    error has expectation sum_ij var(rho_ij) / n.
    """
    final = ens.snapshots[-1]
    n, d = final.shape[0], final.shape[1]
    var = np.sum(np.abs(final - final.mean(axis=0)) ** 2) / (n - 1)
    se_f = np.sqrt(var / n)
    limit = 0.5 * np.sqrt(d) * t_threshold(n, 5.0) * se_f + 1e-8
    diff = rho_mean - exact
    td = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0))))
    require(td <= limit, f"{what}: trace distance {td:.3e} to expm(tL) rho0 above {limit:.3e}")


# ---------------------------------------------------------------------------
# rep-conversions


def unit_rows(rng, channels: int) -> np.ndarray:
    """L x 2L complex matrix with orthonormal rows, from a QR factorization."""
    z = rng.normal(size=(2 * channels, channels)) + 1j * rng.normal(size=(2 * channels, channels))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return (q * ph[None, :]).conj().T


def unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


class RepConversions(Workload):
    """Seeded valid M-reps and B-reps with L = 1, 2, 3 through the paper's relations."""

    name = "rep-conversions"
    part_names = ("factorize", "convert")

    def build(self):
        from diffmon import BRep, MRep

        rng = np.random.Generator(np.random.Philox(key=self.seed))
        size = self.size["reps"]
        self.hbar = float(rng.uniform(0.5, 2.0))
        self.mreps = []
        self.breps = []
        for ell in (1, 2, 3):
            for _ in range(size["per_l"]):
                eta = rng.uniform(0.05, 1.0, size=ell)
                m = np.sqrt(self.hbar * eta)[:, None] * unit_rows(rng, ell)
                self.mreps.append(MRep(m, hbar=self.hbar))
                self.breps.append(
                    BRep(rng.uniform(0.05, 1.0, size=ell), unitary(rng, ell), rng.uniform(0.0, 1.0, size=ell))
                )
        self.factor_inputs = [
            MRep(np.sqrt(self.hbar * rng.uniform(0.05, 1.0)) * unit_rows(rng, 1), hbar=self.hbar)
            for _ in range(size["factor"])
        ]

    def run_part(self, part: str):
        from diffmon import reps

        if part == "factorize":
            rows = []
            for m in self.factor_inputs:
                brep, ortho = reps.mrep_to_brep_o(m)
                rows.append((brep, ortho, reps.brep_o_to_mrep(brep, ortho, hbar=m.hbar)))
            self.out["factorize"] = rows
            return
        mrows = []
        for m in self.mreps:
            u = reps.mrep_to_urep(m)
            t = reps.mrep_to_trep(m)
            mrows.append((u, t, reps.trep_polar(t), reps.urep_split(u)))
        brows = [
            (reps.brep_to_mrep(b, hbar=self.hbar), reps.brep_to_urep(b, hbar=self.hbar))
            for b in self.breps
        ]
        self.out["convert"] = (mrows, brows)

    def ops_per_round(self) -> int:
        return 2 * len(self.factor_inputs) + 4 * len(self.mreps) + 2 * len(self.breps)

    def named(self, parts: dict) -> list:
        conversions = 4 * len(self.mreps) + 2 * len(self.breps)
        return [
            ("factorizations_per_s", len(self.factor_inputs) / parts["factorize"], "1/s"),
            ("conversions_per_s", conversions / parts["convert"], "1/s"),
        ]

    def check(self):
        from diffmon import reps

        signs = set()
        for m, (brep, ortho, back) in zip(self.factor_inputs, self.out["factorize"]):
            dev = float(np.max(np.abs(back.matrix - m.matrix)))
            require(dev <= 1e-8, f"factorization rebuilds M only to {dev:.2e}")
            signs.add(int(ortho.det_sign))
        if len(self.factor_inputs) >= 40:
            require(signs == {1, -1}, f"factorizations saw determinant signs {sorted(signs)} only")
        mrows, brows = self.out["convert"]
        for m, (u, t, (p, ortho, _unique), (h, y)) in zip(self.mreps, mrows):
            check_urep(u.matrix, "M->U")
            check_polar(t.matrix, p, ortho.matrix)
            ell = m.channels
            stacked = np.vstack([m.matrix.real, m.matrix.imag])
            require(np.array_equal(t.matrix, stacked), "M->T: not the stacked real and imaginary parts")
            require(close(y, y.T, 1e-12), "U split: correlation block not symmetric")
            blocks = u.matrix[:ell, :ell] + u.matrix[ell:, ell:]
            require(close(h, np.diagonal(blocks), 1e-12), "U split: efficiency diagonal")
        for b, (mb, ub) in zip(self.breps, brows):
            gram = mb.matrix @ mb.matrix.conj().T
            require(
                close(gram, self.hbar * np.diag(b.eta), 1e-12 * self.hbar),
                "B->M: M M^dag differs from hbar diag(eta)",
            )
            check_urep(ub.matrix, "B->U")
            via_m = reps.mrep_to_urep(mb).matrix
            dev = float(np.max(np.abs(via_m - ub.matrix)))
            require(dev <= 1e-12, f"B->U routes differ by {dev:.2e}")


def check_urep(u: np.ndarray, what: str, tol: float = 1e-12) -> None:
    """U is symmetric PSD, its diagonal blocks sum to diag in [0, 1], its off-diagonal blocks agree."""
    ell = u.shape[0] // 2
    require(close(u, u.T, tol), f"{what}: U not symmetric")
    require(np.linalg.eigvalsh(u)[0] >= -tol, f"{what}: U not positive semidefinite")
    h = u[:ell, :ell] + u[ell:, ell:]
    off = h - np.diag(np.diagonal(h))
    require(np.max(np.abs(off), initial=0.0) <= tol, f"{what}: diagonal-block sum not diagonal")
    d = np.diagonal(h)
    require(np.all(d >= -tol) and np.all(d <= 1.0 + tol), f"{what}: efficiencies outside [0, 1]")
    require(close(u[:ell, ell:], u[ell:, :ell], tol), f"{what}: off-diagonal blocks differ")


def check_polar(t: np.ndarray, p: np.ndarray, o: np.ndarray, tol: float = 1e-10) -> None:
    """T = P O with O orthogonal and P symmetric positive semidefinite."""
    n = t.shape[0]
    require(np.max(np.abs(p @ o - t)) <= tol, "T polar: P O differs from T")
    require(np.max(np.abs(o @ o.T - np.eye(n))) <= tol, "T polar: O not orthogonal")
    require(close(p, p.T, tol), "T polar: P not symmetric")
    require(np.linalg.eigvalsh(p)[0] >= -tol, "T polar: P not positive semidefinite")


# ---------------------------------------------------------------------------
# cli-commands

DECAY_DOC = {
    "hbar": 1.0,
    "dim": 2,
    "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "lindblads": [[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
}
DRIVEN_DOC = {
    "hbar": 1.0,
    "dim": 2,
    "hamiltonian": [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
    "lindblads": [[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
}
HETERODYNE_AMP = float(np.sqrt(0.8 / 2.0))
HETERODYNE_DOC = {
    "type": "mrep",
    "hbar": 1.0,
    "L": 1,
    "matrix": [[[HETERODYNE_AMP, 0.0], [0.0, HETERODYNE_AMP]]],
}
DETERMINISTIC_FILES = ("sim/trajectories.csv", "sim/convergence.json", "ac/autocorr.json")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliCommands(Workload):
    """diffmon simulate and autocorr, each as a fresh process, one at a time.

    ``diffmon check --seed S`` is left out: on some seeds one of its
    self-checks aborts on the positivity monitor (bench/README.md, "Dropped"),
    and an operation that fails on some seeds only cannot be kept in a seeded
    run.
    """

    name = "cli-commands"
    part_names = ("simulate", "autocorr")
    tracer = None

    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, doc in (("decay", DECAY_DOC), ("driven", DRIVEN_DOC), ("heterodyne", HETERODYNE_DOC)):
            (self.workdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        s_sim, s_ac = sub_seeds(self.seed, 2)
        sim_steps, sim_traj = self.size["cli"]["sim"]
        ac_steps, ac_traj = self.size["cli"]["ac"]
        self.sim_shape = (sim_steps, sim_traj)
        self.ac_traj = ac_traj
        run = ["--dt", "1e-3", "--rep", "heterodyne.json"]
        self.argv = {
            "simulate": ["simulate", "--model", "decay.json", *run, "--steps", str(sim_steps),
                         "--ntraj", str(sim_traj), "--seed", str(s_sim), "--out", "sim"],
            "autocorr": ["autocorr", "--model", "driven.json", *run, "--steps", str(ac_steps),
                         "--ntraj", str(ac_traj), "--seed", str(s_ac), "--lags", "0.1,0.5,1.0",
                         "--out", "ac"],
        }
        self.env = child_env()
        self.digests = None
        self.spawned = 0

    def run_part(self, part: str):
        tracer = self.tracer
        if tracer is not None and tracer.active:
            spans_file = self.workdir / f"spans-{part}.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_runner.py"), str(spans_file), *self.argv[part]]
            sid = tracer.begin(f"cmd.{part}")
            try:
                proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True)
            finally:
                tracer.end(sid)
            if spans_file.exists():
                data = json.loads(spans_file.read_text(encoding="utf-8"))
                tracer.extend(data["spans"], sid)
                for key, value in data["counters"].items():
                    tracer.add(key, value)
                spans_file.unlink()
        else:
            cmd = [sys.executable, "-m", "diffmon.cli", *self.argv[part]]
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True)
        self.spawned += 1
        self.out[part] = proc

    def ops_per_round(self) -> int:
        return 2

    def named(self, parts: dict) -> list:
        return [
            ("simulate_cmd_s", parts["simulate"], "s"),
            ("autocorr_cmd_s", parts["autocorr"], "s"),
        ]

    def failed_ops(self) -> int:
        return sum(1 for p in self.part_names if self.out[p].returncode != 0)

    def check(self):
        for part in self.part_names:
            proc = self.out[part]
            require(
                proc.returncode == 0,
                f"diffmon {part} exited {proc.returncode}: {proc.stderr.strip()[-300:]}",
            )
        check_trajectory_csv(self.workdir / "sim" / "trajectories.csv", *self.sim_shape)
        ac = json.loads((self.workdir / "ac" / "autocorr.json").read_text(encoding="utf-8"))
        # 4 stderr, where the stderr is itself estimated from ac_traj trajectories.
        limit = t_threshold(self.ac_traj, 4.0)
        require(
            ac["max_difference_over_stderr"] <= limit,
            f"autocorrelation estimate {ac['max_difference_over_stderr']:.2f} stderr from"
            f" prediction (limit {limit:.2f})",
        )
        digests = {f: file_digest(self.workdir / f) for f in DETERMINISTIC_FILES}
        if self.digests is None:
            self.digests = digests
        changed = [f for f in DETERMINISTIC_FILES if digests[f] != self.digests[f]]
        require(not changed, f"repeat with the same seed changed {changed}")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_trajectory_csv(path: Path, steps: int, n_traj: int) -> None:
    with path.open("rb") as fh:
        header = fh.readline().decode("utf-8").strip()
        rows = sum(1 for _ in fh)
    require(
        header == "t,traj,y_1,y_2,purity,log_weight",
        f"trajectory CSV header {header!r}",
    )
    require(rows == steps * n_traj, f"trajectory CSV has {rows} rows, expected {steps * n_traj}")


WORKLOADS = {w.name: w for w in (QubitEnsemble, CavityScaling, CliCommands, RepConversions)}


def make(name: str, seed: int, profile: str, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, profile, workdir)
