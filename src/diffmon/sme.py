"""Stochastic propagation of monitored open systems.

The conditioned state advances by an Ito scheme in which the deterministic
drift takes the same fourth-order step as the unconditioned integrator while
the measurement back-action enters at first order in the noise (weak order 1,
strong order 1/2).  With no measurement the scheme therefore reduces exactly
to the unconditioned integrator.  Both the nonlinear (normalized, true
statistics) and the linear (unnormalized, ostensible statistics with
log-weights) forms are provided, together with the purity-rate prediction for
pure states, the Heisenberg-picture noise completion, and the noise-coupling
blocks of the optical realization.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    LindbladModel,
    _Engine,
    _first_negative_state,
    _gather,
    _purity,
    _scatter,
    _trace,
    check_density_matrix,
    measurement_ops,
)
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotPureError,
    StateInvalidError,
    ValidationError,
    WeightUnderflowError,
    check_dt,
)
from .linalg import DEFAULT_TOL, positive_sqrt
from .noise import NoiseSource, lattice_normals
from .reps import BRep, MRep, _check_hbar, validate_brep

MODES = ("nonlinear", "linear")


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of an ensemble run; all randomness flows from ``seed``.

    ``snapshot_stride=None`` stores about fifty evenly spaced snapshots; the
    initial and final states are always included.  ``positivity_tol=None``
    scales the abort threshold to the discretization noise of the scheme (an
    Ito step from a nearly pure state dips negative by O(dt) routinely, so an
    absolute threshold would have to depend on dt).
    """

    dt: float
    steps: int
    n_traj: int
    seed: int
    mode: str = "nonlinear"
    snapshot_stride: int | None = None
    store_dw: bool = True
    store_purity: bool = True
    positivity_tol: float | None = None
    log_weight_floor: float = -700.0

    def __post_init__(self):
        check_dt(self.dt)
        if self.steps < 1:
            raise ValidationError(f"steps must be at least 1, got {self.steps}")
        if self.n_traj < 1:
            raise ValidationError(f"n_traj must be at least 1, got {self.n_traj}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ValidationError("snapshot_stride must be at least 1 when given")
        if self.positivity_tol is not None and not self.positivity_tol >= 0.0:
            raise ValidationError(
                f"positivity_tol must be non-negative (inf disables monitoring), got"
                f" {self.positivity_tol}"
            )
        if np.isnan(self.log_weight_floor):
            raise ValidationError("log_weight_floor must not be NaN")


@dataclass(frozen=True)
class Trajectory:
    """Per-trajectory view of an ensemble record.

    ``currents`` holds the measured current (increment divided by dt) for each
    step; ``purity`` and ``log_weight`` are tabulated on the full time grid.
    """

    stream_id: int
    times: np.ndarray
    currents: np.ndarray
    noise: np.ndarray | None
    purity: np.ndarray | None
    log_weight: np.ndarray
    snapshot_steps: np.ndarray
    snapshots: np.ndarray | None


@dataclass(frozen=True)
class Ensemble:
    """Seeded record of an ensemble of conditioned trajectories."""

    config: SimulationConfig
    hbar: float
    times: np.ndarray
    currents: np.ndarray
    noise: np.ndarray | None
    purity: np.ndarray | None
    log_weight: np.ndarray
    snapshot_steps: np.ndarray
    snapshots: np.ndarray | None
    model_fingerprint: str = ""
    rep_fingerprint: str = ""

    @property
    def n_traj(self) -> int:
        return self.currents.shape[0]

    @property
    def steps(self) -> int:
        return self.currents.shape[1]

    @property
    def noise_dim(self) -> int:
        return self.currents.shape[2]

    def trajectory(self, k: int) -> Trajectory:
        return Trajectory(
            stream_id=k,
            times=self.times,
            currents=self.currents[k],
            noise=None if self.noise is None else self.noise[k],
            purity=None if self.purity is None else self.purity[k],
            log_weight=self.log_weight[k],
            snapshot_steps=self.snapshot_steps,
            snapshots=None if self.snapshots is None else self.snapshots[:, k],
        )

    def trajectories(self):
        return [self.trajectory(k) for k in range(self.n_traj)]

    def snapshot_index(self, step: int) -> int:
        hits = np.nonzero(self.snapshot_steps == step)[0]
        if hits.size == 0:
            raise ValidationError(f"no snapshot stored at step {step}")
        return int(hits[0])


class _StepWork:
    """Precomputed operators shared by every step of one (model, measurement) pair."""

    def __init__(self, model: LindbladModel, mrep: MRep):
        if model.channels != mrep.channels:
            raise DimensionMismatchError(
                f"model has {model.channels} channels, measurement matrix {mrep.channels}"
            )
        if abs(model.hbar - mrep.hbar) > 1e-12 * max(model.hbar, mrep.hbar):
            raise ValidationError(
                f"model and measurement matrix carry different scales:"
                f" {model.hbar} vs {mrep.hbar}"
            )
        self.hbar = model.hbar
        self.dim = model.dim
        self.xops = measurement_ops(mrep, model.lindblads)
        self.engine = _Engine(model, self.xops)


def _mean_current(work: _StepWork, rho: np.ndarray) -> np.ndarray:
    """True mean of the measured current for a (batch of) state(s), shape (..., 2L)."""
    return work.engine.current(rho)


def _advance(work: _StepWork, g: np.ndarray, w: np.ndarray, dt: float, linear: bool):
    """Batched Ito step on real coordinates g along increments w.

    Returns (RK4 drift plus back-action, its trace, mean current in g).  The
    nonlinear form subtracts the trace the back-action adds, ``(cur . w) g``,
    because ``Tr(a_j rho + rho a_j^dag) = hbar cur_j``.
    """
    out, cur, cur_w = work.engine.sme_step(g, w, dt)
    if not linear:
        out -= cur_w[..., None] * g
    return out, _trace(out), cur


def _step_nonlinear(work: _StepWork, rho: np.ndarray, dw: np.ndarray, dt: float):
    """Batched nonlinear step; returns (normalized state, current increment, pre-norm trace)."""
    out, tr, cur = _advance(work, _gather(rho), dw, dt, linear=False)
    return _scatter(out / tr[..., None]), cur * dt + dw, tr


def _step_linear(work: _StepWork, rho: np.ndarray, y_dt: np.ndarray, dt: float):
    """Batched linear step; returns (unnormalized state, its trace)."""
    out, tr, _cur = _advance(work, _gather(rho), y_dt, dt, linear=True)
    return _scatter(out), tr


def _step_args(model: LindbladModel, mrep: MRep, rho, vec, dt: float, name: str):
    work = _StepWork(model, mrep)
    rho, vec = np.asarray(rho, dtype=complex), np.asarray(vec, dtype=float)
    if rho.shape != (work.dim, work.dim):
        raise DimensionMismatchError(
            f"state must be {work.dim} x {work.dim}, got {rho.shape}"
        )
    if vec.shape != (work.xops.shape[0],):
        raise DimensionMismatchError(
            f"{name} must have length {work.xops.shape[0]}, got shape {vec.shape}"
        )
    return work, rho, vec, check_dt(dt)


def sme_step_nonlinear(
    model: LindbladModel, mrep: MRep, rho: np.ndarray, dw: np.ndarray, dt: float
):
    """One normalized conditioned step; returns (new state, current increment).

    The current increment carries the true-mean term plus the supplied Wiener
    increment; the returned state is exactly Hermitian and renormalized.
    Positivity is not checked here (the ensemble runner monitors it).
    """
    work, rho, dw, dt = _step_args(model, mrep, rho, dw, dt, "dw")
    out, y_dt, _tr = _step_nonlinear(work, rho, dw, dt)
    return out, y_dt


def sme_step_linear(
    model: LindbladModel, mrep: MRep, rho_bar: np.ndarray, y_dt: np.ndarray, dt: float
):
    """One unnormalized (ostensible-statistics) step.

    ``y_dt`` is the ostensible current increment (zero mean, variance dt per
    component).  Returns the unnormalized updated matrix and the log-weight
    increment log Tr[out] - log Tr[in].
    """
    work, rho_bar, y_dt, dt = _step_args(model, mrep, rho_bar, y_dt, dt, "y_dt")
    tr_in = float(np.real(np.trace(rho_bar)))
    if tr_in <= 0.0:
        raise StateInvalidError(f"input trace {tr_in} is not positive")
    out, tr = _step_linear(work, rho_bar, y_dt, dt)
    if tr <= 0.0:
        raise StateInvalidError(f"updated trace {float(tr)} is not positive")
    return out, float(np.log(tr / tr_in))


def _snapshot_steps(steps: int, stride: int | None) -> np.ndarray:
    if stride is None:
        stride = max(1, steps // 50)
    return np.union1d(np.arange(0, steps + 1, stride), [steps])


def _physical_memory() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return np.inf


def _uncertified(g: np.ndarray, p: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the states (coordinates g, purity p) that purity cannot show to be >= -tol/2.

    By Cauchy-Schwarz on the other d - 1 eigenvalues, a Hermitian state of
    trace t has ``lambda_min >= (t - sqrt((d - 1)(d p - t^2))) / d``, exact
    for d = 2.  A state above -tol/2 has ``rho + tol I >= tol/2 I``; a NaN
    purity is never certified.
    """
    d, t = math.isqrt(g.shape[-1]), _trace(g)
    # The bound is >= -tol/2 exactly when s = t + d tol/2 >= 0 and
    # (d - 1)(d p - t^2) <= s^2, which needs no square root.
    s = t + 0.5 * d * tol
    return ~(((d - 1) * (d * p - t * t) <= s * s) & (s >= 0.0))


def _monitor(g: np.ndarray, p: np.ndarray, tol: float, step: int) -> None:
    """Raise unless every state (coordinates g, purity p) has no eigenvalue below -tol.

    Only the states the purity bound does not certify are factorized, and
    trajectories are numbered in the whole stack.
    """
    uncertified = _uncertified(g, p, tol)
    if not uncertified.any():
        return
    idx = np.flatnonzero(uncertified)
    bad = _first_negative_state(_scatter(g[idx]), tol)
    if bad is not None:
        raise StateInvalidError(
            f"trajectory {idx[bad[0]]}, step {step}: min eigenvalue {bad[1]:.3e}"
            f" below -{tol:.3e}"
        )


def _check_positivity(rho: np.ndarray, tol: float, step: int) -> None:
    """``_monitor`` on a stack of Hermitian matrices."""
    g = _gather(rho)
    _monitor(g, _purity(g), tol, step)


def _auto_positivity_tol(work: _StepWork, dt: float) -> float:
    # An Ito step from a nearly pure state acquires a negative eigenvalue of
    # order dt * |z|^2 * (noise scale); the threshold sits far above that so
    # only genuine instability (dt too large for the rates) trips it.
    noise_scale = float(np.sum(np.abs(work.xops) ** 2)) / work.hbar**2
    return max(1e-6, 60.0 * dt * max(1.0, noise_scale))


def simulate_ensemble(
    model: LindbladModel,
    mrep: MRep,
    rho0: np.ndarray,
    config: SimulationConfig,
    block_steps: int = 256,
) -> Ensemble:
    """Run independent conditioned trajectories, one noise stream per trajectory.

    Trajectory ``k`` consumes the stream keyed by (seed, k); the output is a
    deterministic function of the configuration alone, independent of
    ``block_steps`` (an internal batching knob).
    """
    check_density_matrix(rho0)
    # Local import: the file-format layer depends on the domain layers, not
    # the other way around; only the fingerprint helpers are needed here.
    from .serialize import RepFile, fingerprint_model, fingerprint_rep

    model_fp = fingerprint_model(model)
    rep_fp = fingerprint_rep(RepFile("mrep", mrep, mrep.hbar))
    work = _StepWork(model, mrep)
    n, steps, dt = config.n_traj, config.steps, config.dt
    linear = config.mode == "linear"
    noise_dim = work.xops.shape[0]
    dim = model.dim
    pos_tol = config.positivity_tol
    if pos_tol is None:
        pos_tol = _auto_positivity_tol(work, dt)

    snap_steps = _snapshot_steps(steps, config.snapshot_stride)
    # Bytes of the records: currents and noise per step, purity and (linear
    # mode) log-weights per grid point, and the snapshots.
    per_traj = steps * noise_dim * (1 + config.store_dw) + (steps + 1) * (
        linear + config.store_purity
    )
    need, limit = n * (8 * per_traj + 16 * snap_steps.size * dim**2), _physical_memory()
    if need > limit:
        raise ValidationError(
            f"the run's records need {need / 2**30:.3g} GiB, more than the"
            f" {limit / 2**30:.3g} GiB of physical memory"
        )
    try:
        currents = np.empty((n, steps, noise_dim))
        noise = np.empty((n, steps, noise_dim)) if config.store_dw else None
        pur = np.empty((n, steps + 1)) if config.store_purity else None
        # Nonlinear runs carry no weights: a read-only view of one zero.
        logw = np.zeros((n, steps + 1)) if linear else np.broadcast_to(0.0, (n, steps + 1))
        snaps = np.empty((snap_steps.size, n, dim, dim), dtype=complex)
        times = np.arange(steps + 1) * dt
    except MemoryError as exc:
        raise ValidationError(
            f"cannot allocate the run's records ({need / 2**30:.3g} GiB)"
        ) from exc
    snap_pos = {int(s): i for i, s in enumerate(snap_steps)}

    rho0 = np.asarray(rho0, dtype=complex)
    g = np.broadcast_to(_gather(rho0), (n, dim**2)).copy()
    if pur is not None:
        pur[:, 0] = _purity(g)
    snaps[0] = rho0

    sources = [NoiseSource(config.seed, k, noise_dim) for k in range(n)]
    for start in range(0, steps, block_steps):
        block = min(block_steps, steps - start)
        # The map is elementwise, so these are exactly each stream's draw_block.
        lattice = np.stack([src.lattice_block(block) for src in sources])
        dw_block = lattice_normals(lattice)
        dw_block *= np.sqrt(dt)
        cur_block = np.zeros_like(dw_block)  # mean currents, nonlinear mode
        for m in range(start, start + block):
            dw = dw_block[:, m - start]
            out, tr, cur = _advance(work, g, dw, dt, linear)
            if not np.isfinite(tr).all():
                bad = int(np.argmax(~np.isfinite(tr)))
                raise StateInvalidError(
                    f"trajectory {bad}, step {m + 1}: non-finite trace {tr[bad]}"
                )
            if linear:
                if np.any(tr <= 0.0):
                    bad = int(np.argmax(tr <= 0.0))
                    raise StateInvalidError(
                        f"trajectory {bad}, step {m + 1}: non-positive trace {tr[bad]:.3e}"
                    )
                logw[:, m + 1] = logw[:, m] + np.log(tr)
                if np.any(logw[:, m + 1] < config.log_weight_floor):
                    bad = int(np.argmax(logw[:, m + 1] < config.log_weight_floor))
                    raise WeightUnderflowError(
                        f"trajectory {bad}, step {m + 1}: log-weight"
                        f" {logw[bad, m + 1]:.1f} below floor"
                    )
            else:
                cur_block[:, m - start] = cur
            g = out / tr[:, None]
            p = _purity(g)
            if np.isfinite(pos_tol):
                _monitor(g, p, pos_tol, m + 1)
            if pur is not None:
                pur[:, m + 1] = p
            if (m + 1) in snap_pos:
                snaps[snap_pos[m + 1]] = _scatter(g)
        # The current increment is the mean current times dt plus the noise.
        currents[:, start : start + block] = (cur_block * dt + dw_block) / dt
        if noise is not None:
            noise[:, start : start + block] = dw_block

    return Ensemble(
        config=config,
        hbar=model.hbar,
        times=times,
        currents=currents,
        noise=noise,
        purity=pur,
        log_weight=logw,
        snapshot_steps=snap_steps,
        snapshots=snaps,
        model_fingerprint=model_fp,
        rep_fingerprint=rep_fp,
    )


# ---------------------------------------------------------------------------
# purity rate and Heisenberg-picture identities


def lindblad_covariance(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Covariance matrix of the coupling operators in the given state (PSD, Hermitian)."""
    rho = np.asarray(rho, dtype=complex)
    cs = model.lindblads
    cbar = np.einsum("kab,ba->k", cs, rho)
    second = np.einsum("jba,kbc,ca->jk", cs.conj(), cs, rho)
    return second - np.outer(cbar.conj(), cbar)


def purity_increment_predicted(
    model: LindbladModel, mrep: MRep, rho: np.ndarray, tol: float = DEFAULT_TOL
) -> float:
    """Predicted d(Tr rho^2)/dt for a pure state under the given monitoring.

    Vanishes exactly for unit-efficiency monitoring and is otherwise negative,
    proportional to the trace of the coupling covariance against the
    efficiency deficit.
    """
    rho = np.asarray(rho, dtype=complex)
    p = float(np.real(np.einsum("ab,ba->", rho, rho)))
    if p < 1.0 - max(tol, 1e-12):
        raise NotPureError(f"state purity {p} is below 1")
    if model.channels != mrep.channels:
        raise DimensionMismatchError(
            f"model has {model.channels} channels, measurement matrix {mrep.channels}"
        )
    cov = lindblad_covariance(model, rho)
    gram = mrep.matrix @ mrep.matrix.conj().T / mrep.hbar
    deficit = gram - np.eye(mrep.channels)
    return float(2.0 / model.hbar * np.real(np.trace(cov @ deficit.T)))


def noise_completion(mrep: MRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coefficient of the extra vacuum noise completing the current operator.

    Returns the 2L x 2L matrix whose scaled square accounts for the part of
    the current variance not supplied by the measured field; its defining
    property is hbar^2 L L^dag + M^dag M = hbar * identity.
    """
    m = mrep.matrix
    z = mrep.hbar * np.eye(2 * mrep.channels) - m.conj().T @ m
    return positive_sqrt(z, tol=tol) / mrep.hbar


@dataclass(frozen=True)
class BrepNoiseMatrices:
    """Input-output coefficients of the optical realization's current operator.

    ``signal`` couples the monitored output field, ``loss`` the vacuum
    entering through the inefficiency ports, and ``splitter`` the vacuum
    entering through the quadrature splitters.  Together they compose the
    identity: signal signal^dag / hbar + hbar (loss loss^dag + splitter
    splitter^dag) = identity.
    """

    signal: np.ndarray
    loss: np.ndarray
    splitter: np.ndarray
    hbar: float = 1.0

    def measurement_matrix(self) -> np.ndarray:
        return self.signal.conj().T


def brep_noise_matrices(
    brep: BRep, hbar: float = 1.0, tol: float = DEFAULT_TOL
) -> BrepNoiseMatrices:
    """Noise-coupling blocks of an optical realization, checked for completeness."""
    validate_brep(brep, tol=tol)
    hbar = _check_hbar(hbar)
    stages = [brep.eta, 1.0 - brep.eta, brep.theta, 1.0 - brep.theta]
    rh, rhb, rq, rqb = np.sqrt(np.array(stages).clip(0.0, 1.0))
    s = brep.mixing
    top = (rq[:, None] * s) * rh[None, :]
    bot = 1j * (rqb[:, None] * s) * rh[None, :]
    signal = np.sqrt(hbar) * np.vstack([top, bot])
    loss = np.vstack([(rq[:, None] * s) * rhb[None, :], 1j * (rqb[:, None] * s) * rhb[None, :]])
    loss = loss / np.sqrt(hbar)
    splitter = np.vstack([np.diag(rqb), -1j * np.diag(rq)]) / np.sqrt(hbar)
    total = (
        signal @ signal.conj().T / hbar
        + hbar * (loss @ loss.conj().T)
        + hbar * (splitter @ splitter.conj().T)
    )
    defect = float(np.linalg.norm(total - np.eye(2 * brep.channels)))
    if defect > max(tol, 1e-10):
        raise InternalInconsistencyError(
            f"noise blocks do not compose the identity (defect {defect:.3e})"
        )
    return BrepNoiseMatrices(signal=signal, loss=loss, splitter=splitter, hbar=hbar)
