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
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    LindbladModel,
    _coordinate_weights,
    _check_memory,
    _Engine,
    _first_negative_state,
    _gather,
    _measured_engine,
    _measured_ops,
    _operator,
    _purity_ceiling,
    _scatter,
    _trace,
    check_density_matrix,
    purity,
)
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotPureError,
    StateInvalidError,
    ValidationError,
    WeightUnderflowError,
    check_dt,
    is_integer,
)
from .linalg import DEFAULT_TOL, frobenius, positive_sqrt
from .noise import lattice_normals, lattice_streams
from .reps import BRep, MRep, _check_hbar, validate_brep

MODES = ("nonlinear", "linear")

# Bytes of step products in one window of the ensemble loop: enough steps to share its
# checks and records at narrow ensembles, few enough to stay in cache at wide ones.
_WINDOW_BYTES = 1 << 18
# A linear-mode log-weight under this floor aborts the run: its weight is near exp(-700).
_LOG_WEIGHT_FLOOR = -700.0


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

    def __post_init__(self):
        check_dt(self.dt)
        for name in ("steps", "n_traj", "seed", "snapshot_stride"):
            value = getattr(self, name)
            if not (is_integer(value) or value is None and name == "snapshot_stride"):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
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


@dataclass(frozen=True)
class Ensemble:
    """Seeded record of an ensemble of conditioned trajectories."""

    config: SimulationConfig
    times: np.ndarray
    currents: np.ndarray
    noise: np.ndarray | None
    purity: np.ndarray | None
    log_weight: np.ndarray
    snapshot_steps: np.ndarray
    snapshots: np.ndarray | None

    @property
    def n_traj(self) -> int:
        return self.currents.shape[0]

    @property
    def steps(self) -> int:
        return self.currents.shape[1]

    @property
    def noise_dim(self) -> int:
        return self.currents.shape[2]


def _step_states(engine: _Engine, rho, w, dt: float, linear: bool):
    """One step of states (..., d, d) along increments (..., 2L): (states, pre-norm trace, current).

    The states must be Hermitian, and need not have unit trace.  A non-finite or non-positive
    updated trace raises ``StateInvalidError``; nonlinear states are renormalized by theirs.
    """
    rho = _operator(rho, engine.dim, "states", stack=True)
    w, dt = np.asarray(w, dtype=float), check_dt(dt)
    lead, j = rho.shape[:-2], len(engine.ops)
    if w.shape != (*lead, j):
        raise DimensionMismatchError(f"increments must have shape {(*lead, j)}, got {w.shape}")
    g = _gather(rho).reshape(-1, engine.dim**2).T
    with np.errstate(all="ignore"):  # a non-finite step shows in its trace
        w = engine.rt @ w.reshape(-1, j).T
        out, tr, cur = engine.sme_step(engine.operand(g), w, dt, linear)
        if not linear:
            tr = _trace(out.T)
            out = out / tr
    if not (np.isfinite(tr) & (tr > 0.0)).all():
        raise StateInvalidError(f"updated trace {tr.reshape(lead)} is not finite and positive")
    return _scatter(out.T.reshape(*lead, -1)), tr.reshape(lead), cur.T.reshape(*lead, -1)


def sme_step_nonlinear(
    model: LindbladModel, mrep: MRep, rho: np.ndarray, dw: np.ndarray, dt: float
):
    """One normalized conditioned step; returns (new state, current increment).

    The current increment carries the true-mean term plus the supplied Wiener
    increment; the returned state is exactly Hermitian and renormalized.
    Positivity is not checked here (the ensemble runner monitors it).  A stack
    of states (..., d, d) steps along a stack of increments (..., 2L).
    """
    out, _tr, cur = _step_states(_measured_engine(model, mrep), rho, dw, dt, linear=False)
    return out, cur * dt + dw


def sme_step_linear(
    model: LindbladModel, mrep: MRep, rho_bar: np.ndarray, y_dt: np.ndarray, dt: float
):
    """One unnormalized (ostensible-statistics) step.

    ``y_dt`` is the ostensible current increment (zero mean, variance dt per
    component).  Returns the unnormalized updated matrix and the log-weight
    increment log Tr[out] - log Tr[in], per state for a stack as in ``sme_step_nonlinear``.
    """
    engine = _measured_engine(model, mrep)
    rho_bar = _operator(rho_bar, engine.dim, "states", stack=True)
    tr_in = np.real(np.trace(rho_bar, axis1=-2, axis2=-1))
    if np.any(tr_in <= 0.0):
        raise StateInvalidError(f"input trace {tr_in} is not positive")
    out, tr, _cur = _step_states(engine, rho_bar, y_dt, dt, linear=True)
    return out, np.log(tr / tr_in)


def _snapshot_stride(steps: int, stride: int | None) -> int:
    """The given stride, or about fifty snapshots; past steps it is steps, the same grid."""
    return min(stride or max(1, steps // 50), steps)


def _snapshot_steps(steps: int, stride: int | None) -> np.ndarray:
    """The snapshot grid: every ``_snapshot_stride`` steps from 0, and the last step."""
    return np.append(np.arange(0, steps, _snapshot_stride(steps, stride)), steps)


def _check_step(step: int, tr, p, lw, g, tol: float) -> None:
    """Raise the first failure of one ensemble step, in the order a step checks: a non-finite,
    then a non-positive trace, a normalized state of non-finite purity, a log-weight under the
    floor, a state below -tol (traces tr, purities p, log-weights lw, state columns g)."""
    if not np.isfinite(tr).all():
        bad = int(np.argmax(~np.isfinite(tr)))
        raise StateInvalidError(f"trajectory {bad}, step {step}: non-finite trace {tr[bad]}")
    if np.any(tr <= 0.0):
        bad = int(np.argmax(tr <= 0.0))
        raise StateInvalidError(f"trajectory {bad}, step {step}: non-positive trace {tr[bad]:.3e}")
    if not np.isfinite(p).all():
        bad = int(np.argmax(~np.isfinite(p)))
        raise StateInvalidError(
            f"trajectory {bad}, step {step}: normalized state of non-finite purity {p[bad]}"
        )
    if np.any(lw < _LOG_WEIGHT_FLOOR):
        bad = int(np.argmax(lw < _LOG_WEIGHT_FLOOR))
        raise WeightUnderflowError(
            f"trajectory {bad}, step {step}: log-weight {lw[bad]:.1f} below floor"
        )
    if (bad := _first_negative_state(g.T, p, tol)) is not None:
        raise StateInvalidError(
            f"trajectory {bad[0]}, step {step}: min eigenvalue {bad[1]:.3e} below -{tol:.3e}"
        )


def _auto_positivity_tol(engine: _Engine, dt: float) -> float:
    # An Ito step from a nearly pure state acquires a negative eigenvalue of
    # order dt * |z|^2 * (noise scale); the threshold sits far above that so
    # only genuine instability (dt too large for the rates) trips it.
    # Huge ops square to an infinite threshold, which switches monitoring off.
    scale = frobenius(engine.ops) / engine.hbar
    return max(1e-6, 60.0 * dt * max(1.0, scale * scale))


def simulate_ensemble(
    model: LindbladModel,
    mrep: MRep,
    rho0: np.ndarray,
    config: SimulationConfig,
    block_steps: int = 256,
) -> Ensemble:
    """Run independent conditioned trajectories, one noise stream per trajectory.

    The k-th trajectory consumes the stream keyed by (seed, k); the output is a
    deterministic function of the configuration alone, independent of
    ``block_steps`` (an internal batching knob).

    Noise is drawn per block of ``block_steps`` steps.  Each step runs only its algebra:
    the ``w (x) g`` operand, the table product into a window buffer, the nonlinear
    correction and the division into the state, written once, atop the next step's operand
    in the window.  Once per window of steps, a few calls over the window take the purities,
    accumulate the linear log-weights, screen the traces, weights and purities, and write the
    records.  Only a window that fails its screen is checked step by step, in order, so a
    failing step is named as a step-by-step run names it: the earliest step, and within it
    the trace, then the weight floor, then positivity.  A window holds about
    ``_WINDOW_BYTES`` of step products, so it stays in cache at any ensemble width.
    """
    if not (is_integer(block_steps) and block_steps >= 1):
        raise ValidationError(f"block_steps must be a positive integer, got {block_steps!r}")
    check_density_matrix(rho0 := _operator(rho0, model.dim, "state"))
    engine = _measured_engine(model, mrep)
    n, steps, dt = config.n_traj, config.steps, config.dt
    linear = config.mode == "linear"
    noise_dim = len(engine.ops)
    dim = model.dim
    pos_tol = config.positivity_tol
    if pos_tol is None:
        pos_tol = _auto_positivity_tol(engine, dt)

    # Bytes of the records: currents and noise per step, purity and (linear
    # mode) log-weights per grid point, and the snapshots, counted before the grid is made.
    per_traj = steps * noise_dim * (1 + config.store_dw) + (steps + 1) * (
        linear + config.store_purity
    )
    n_snap = -(-steps // _snapshot_stride(steps, config.snapshot_stride)) + 1
    _check_memory(need := n * (8 * per_traj + 16 * n_snap * dim**2), "the run's records")
    try:
        snap_steps = _snapshot_steps(steps, config.snapshot_stride)
        currents = np.empty((n, steps, noise_dim))
        noise = np.empty((n, steps, noise_dim)) if config.store_dw else None
        pur = np.empty((n, steps + 1)) if config.store_purity else None
        # Nonlinear runs carry no weights: a read-only view of one zero.
        logw = np.zeros((n, steps + 1)) if linear else np.broadcast_to(0.0, (n, steps + 1))
        snap_g = np.empty((snap_steps.size, n, dim**2))
        times = np.arange(steps + 1) * dt
    except MemoryError as exc:
        raise ValidationError(
            f"cannot allocate the run's records ({need / 2**30:.3g} GiB)"
        ) from exc

    # States are columns, trajectories along the contiguous axis.
    n2, pw = dim**2, _coordinate_weights(dim)[1]
    g0 = np.broadcast_to(_gather(rho0)[:, None], (n2, n))
    if pur is not None:
        pur[:, 0] = pw @ np.square(g0)
    snap_g[0] = g0.T
    # States have unit trace, so one purity ceiling screens the steps for the exact monitor;
    # with monitoring off (tol = inf) it is inf.
    p_max = _purity_ceiling(dim, pos_tol)
    # A window keeps each step's product and, atop the operand of the next step, its state:
    # the checks and records then take a few calls per window of steps, not per step.
    rows, r = n2 + noise_dim + 2, len(engine.kept)
    window = max(1, min(block_steps, steps, _WINDOW_BYTES // (8 * rows * n)))
    lwin = np.zeros((window + 1, n))  # row 0: the log-weights before the window
    snap_at, snap_next = snap_steps.tolist(), 1

    with np.errstate(all="ignore"):  # a failing step is named after its window
        for start in range(0, steps, block_steps):
            block = min(block_steps, steps - start)
            # Time-major (step, J, trajectory): lattice integers, then mean currents.
            # The map is elementwise, so these are exactly each stream's draw_block.
            cur_block = lattice_streams(config.seed, 0, start, np.empty((block, noise_dim, n)))
            dw_block = lattice_normals(cur_block)
            dw_block *= np.sqrt(dt)
            # The increments along the back-action's r directions, R^T dw, go into the first r
            # rows of the block: a window reads its rows before its mean currents overwrite them.
            w_block = np.matmul(engine.rt, dw_block, out=cur_block[:, :r])
            if not start:  # made after the first draw, whose temporaries are then gone
                win, sq = np.empty((window, rows, n)), np.empty((window, n2, n))
                pwin, ops = np.empty((window, n)), np.empty((window, (1 + r) * n2, n))
                x = ops[-1]  # step i reads the operand x of step i - 1 and writes ops[i]
                x[:n2] = g0
            for first in range(0, block, window):
                span = min(window, block - first)
                for i in range(span):
                    step, tr, _cur = engine.sme_step(x, w_block[first + i], dt, linear, out=win[i])
                    x = ops[i]
                    np.divide(step, tr, out=x[:n2])
                m0 = start + first + 1  # the step of the window's first row
                states, tr, p, lw = ops[:span, :n2], win[:span, -1], pwin[:span], lwin[: span + 1]
                np.matmul(pw, np.square(states, out=sq[:span]), out=p)
                if linear:
                    np.log(tr, out=lw[1:])
                    np.add.accumulate(lw, axis=0, out=lw)  # lw += log(tr), step by step
                if not (
                    math.isfinite(tr.sum() + p.sum()) and tr.min() > 0.0 and p.max() <= p_max
                    and (not linear or lw[1:].min() >= _LOG_WEIGHT_FLOOR)
                ):
                    for i in range(span):
                        _check_step(m0 + i, tr[i], p[i], lw[i + 1], states[i], pos_tol)
                cur_block[first : first + span] = 0.0 if linear else win[:span, n2:-2]
                if pur is not None:
                    pur[:, m0 : m0 + span] = p.T
                if linear:
                    logw[:, m0 : m0 + span] = lw[1:].T
                    lwin[0] = lw[span]
                while snap_next < len(snap_at) and snap_at[snap_next] < m0 + span:
                    snap_g[snap_next] = states[snap_at[snap_next] - m0].T
                    snap_next += 1
            # The current increment is the mean current times dt plus the noise.
            cur_block *= dt
            cur_block += dw_block
            cur_block /= dt
            stop = start + block
            currents[:, start:stop] = cur_block.transpose(2, 0, 1)
            if noise is not None:
                noise[:, start:stop] = dw_block.transpose(2, 0, 1)
    # Freed before the snapshots are made, views of the window too.
    del cur_block, dw_block, w_block, win, sq, ops, x, step, tr, _cur, states
    snaps = _scatter(snap_g)
    snaps[0] = rho0

    return Ensemble(
        config=config,
        times=times,
        currents=currents,
        noise=noise,
        purity=pur,
        log_weight=logw,
        snapshot_steps=snap_steps,
        snapshots=snaps,
    )


# ---------------------------------------------------------------------------
# purity rate and Heisenberg-picture identities


def lindblad_covariance(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Covariance matrix (PSD, Hermitian) of the coupling operators in a d x d Hermitian state."""
    rho = _operator(rho, model.dim, "state")
    cs = model.lindblads
    cbar = np.einsum("kab,ba->k", cs, rho)
    second = np.einsum("jba,kbc,ca->jk", cs.conj(), cs, rho)
    with np.errstate(over="ignore", invalid="ignore"):  # quadratic in rho: huge entries overflow
        out = second - np.outer(cbar.conj(), cbar)
    if not np.isfinite(out).all():
        raise ValidationError("the state's coupling covariance is not finite")
    return out


def purity_increment_predicted(
    model: LindbladModel, mrep: MRep, rho: np.ndarray, tol: float = DEFAULT_TOL
) -> float:
    """Predicted d(Tr rho^2)/dt for a pure state under the given monitoring.

    Vanishes exactly for unit-efficiency monitoring and is otherwise negative,
    proportional to the trace of the coupling covariance against the
    efficiency deficit.  rho must be d x d and Hermitian within tol.
    """
    rho = _operator(rho, model.dim, "state", tol=tol)
    p = purity(rho)
    if p < 1.0 - max(tol, 1e-12):
        raise NotPureError(f"state purity {p} is below 1")
    _measured_ops(model, mrep)  # checks channels and scale
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
