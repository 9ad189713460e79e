"""Ensemble post-processing: averages, convergence checks, current statistics.

Estimators are pure, deterministic functions of the ensemble record (fixed
reduction order), so re-running them on the same ensemble is bit-identical.
Linear-mode means use self-normalized importance weights derived from the
stored log-weights.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .dynamics import LindbladModel, me_integrate, trace_distance
from .errors import (
    InsufficientDataError,
    NonPositiveLagError,
    NoSnapshotsError,
    ValidationError,
    is_integer,
)
from .reps import MRep
from .sme import Ensemble, SimulationConfig, simulate_ensemble


def _report_dict(report) -> dict:
    """A report's fields in order; arrays become lists and nested reports dicts."""

    def plain(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, tuple):
            return [plain(x) for x in v]
        return _report_dict(v) if is_dataclass(v) else v

    return {f.name: plain(getattr(report, f.name)) for f in fields(report)}


def _snapshot_weights(ensemble: Ensemble, step: int) -> np.ndarray:
    """Self-normalized importance weights at a grid step (uniform for nonlinear runs)."""
    lw = ensemble.log_weight[:, step]
    w = np.exp(lw - np.max(lw))
    return w / np.sum(w)


def effective_sample_size(weights: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 of finite weights with a non-zero sum."""
    w = np.asarray(weights, dtype=float)
    if np.isfinite(w).all() and (peak := np.max(np.abs(w), initial=0.0)) > 0.0:
        w = w / peak  # the squares of huge weights overflow
        if (total := np.sum(w)) != 0.0:
            return float(total**2 / np.sum(w**2))
    raise InsufficientDataError("an effective sample size needs finite weights of non-zero sum")


def ensemble_mean_state(ensemble: Ensemble, t_index: int) -> np.ndarray:
    """Weighted ensemble average of the stored snapshots at one snapshot index."""
    if ensemble.snapshots is None or ensemble.snapshot_steps.size == 0:
        raise NoSnapshotsError("the ensemble stored no state snapshots")
    if not is_integer(t_index):
        raise ValidationError(f"snapshot index must be an integer, got {t_index!r}")
    if not (0 <= t_index < ensemble.snapshot_steps.size):
        raise NoSnapshotsError(
            f"snapshot index {t_index} outside 0..{ensemble.snapshot_steps.size - 1}"
        )
    step = int(ensemble.snapshot_steps[t_index])
    w = _snapshot_weights(ensemble, step)
    rho = np.tensordot(w, ensemble.snapshots[t_index], axes=1)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.real(np.trace(rho))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-time distance to the unconditioned solution plus noise-moment diagnostics."""

    snapshot_times: np.ndarray
    trace_distances: np.ndarray
    max_trace_distance: float
    dw_mean: np.ndarray
    dw_mean_tolerance: float
    dw_covariance: np.ndarray
    dw_covariance_target: float
    n_increments: int

    to_dict = _report_dict


def convergence_report(ensemble: Ensemble, model: LindbladModel) -> ConvergenceReport:
    """Compare ensemble averages against the integrated master equation.

    Reports the trace distance at every stored snapshot together with the
    empirical mean and covariance of the stored noise increments, whose
    targets are zero and dt times the identity.
    """
    if ensemble.snapshots is None or ensemble.snapshot_steps.size == 0:
        raise InsufficientDataError("the ensemble stored no state snapshots")
    if ensemble.noise is None:
        raise InsufficientDataError("the ensemble did not store noise increments")
    dt = ensemble.config.dt
    rho0 = ensemble_mean_state(ensemble, 0)
    me = me_integrate(model, rho0, dt, ensemble.steps)
    dists = np.empty(ensemble.snapshot_steps.size)
    for i, step in enumerate(ensemble.snapshot_steps):
        dists[i] = trace_distance(ensemble_mean_state(ensemble, i), me[int(step)])
    flat = ensemble.noise.reshape(-1, ensemble.noise_dim)
    count = flat.shape[0]
    mean = flat.mean(axis=0)
    cov = flat.T @ flat / count
    return ConvergenceReport(
        snapshot_times=ensemble.times[ensemble.snapshot_steps],
        trace_distances=dists,
        max_trace_distance=float(dists.max()),
        dw_mean=mean,
        dw_mean_tolerance=float(4.0 * np.sqrt(dt / count)),
        dw_covariance=cov,
        dw_covariance_target=float(dt),
        n_increments=count,
    )


@dataclass(frozen=True)
class AutocorrelationEstimate:
    """Time- and ensemble-averaged current correlation matrices per lag."""

    lag_steps: np.ndarray
    lag_times: np.ndarray
    matrices: np.ndarray
    stderr: np.ndarray
    burn_in: int

    to_dict = _report_dict


def autocorrelation_estimate(
    ensemble: Ensemble,
    lag_indices,
    burn_in: int | None = None,
) -> AutocorrelationEstimate:
    """Estimate the current autocorrelation over the stationary tail.

    Lags are in steps and must be at least 1 (the singular equal-time product
    is excluded by construction).  The first half of each trajectory is
    discarded unless ``burn_in`` overrides it.  Standard errors come from the
    spread of the per-trajectory time averages, so at least 2 trajectories are needed.
    """
    lags = np.asarray(lag_indices, dtype=object).reshape(-1)
    if lags.size == 0:
        raise InsufficientDataError("no lags requested")
    if not all(map(is_integer, lags)):  # a float would be truncated, a bool taken as 1
        raise ValidationError(f"autocorrelation lags must be integers, got {lag_indices!r}")
    lags = lags.astype(int)
    if np.any(lags < 1):
        raise NonPositiveLagError("autocorrelation lags must be at least 1 step")
    steps = ensemble.steps
    if burn_in is None:
        burn_in = steps // 2
    if not is_integer(burn_in):
        raise ValidationError(f"burn-in must be an integer, got {burn_in!r}")
    if not (0 <= burn_in < steps):
        raise ValidationError(f"burn-in {burn_in} outside 0..{steps - 1}")
    n = ensemble.n_traj
    if n < 2:
        raise InsufficientDataError(f"a standard error needs at least 2 trajectories, got {n}")
    y = ensemble.currents
    d = ensemble.noise_dim
    mats = np.empty((lags.size, d, d))
    errs = np.empty((lags.size, d, d))
    for i, lag in enumerate(lags):
        lag = int(lag)
        last = steps - lag
        if last <= burn_in:
            raise InsufficientDataError(
                f"lag {lag} leaves no pairs after burn-in {burn_in}"
            )
        a = y[:, burn_in:last, :]
        b = y[:, burn_in + lag : last + lag, :]
        per_traj = np.matmul(a.transpose(0, 2, 1), b) / a.shape[1]
        mats[i] = per_traj.mean(axis=0)
        errs[i] = per_traj.std(axis=0, ddof=1) / np.sqrt(n)
    return AutocorrelationEstimate(
        lag_steps=lags,
        lag_times=lags * ensemble.config.dt,
        matrices=mats,
        stderr=errs,
        burn_in=int(burn_in),
    )


@dataclass(frozen=True)
class ObservableComparison:
    name: str
    linear_mean: float
    linear_stderr: float
    nonlinear_mean: float
    nonlinear_stderr: float
    deviation: float
    combined_stderr: float
    flagged: bool

    to_dict = _report_dict


@dataclass(frozen=True)
class ConsistencyReport:
    """Linear versus nonlinear unravelling agreement at the final time."""

    time: float
    comparisons: tuple
    effective_sample_size: float
    threshold: float
    passed: bool

    to_dict = _report_dict


def _weighted_stats(values: np.ndarray, weights: np.ndarray):
    wt = weights / np.sum(weights)
    mean = float(np.sum(wt * values))
    err = float(np.sqrt(np.sum((wt * (values - mean)) ** 2)))
    return mean, err


def linear_nonlinear_consistency(
    model: LindbladModel,
    mrep: MRep,
    rho0: np.ndarray,
    config: SimulationConfig,
    observables=None,
) -> ConsistencyReport:
    """Run matched nonlinear and linear ensembles and compare final observables.

    The linear run uses an independent stream family (seed + 1).  Each
    observable's weighted linear mean is compared to the plain nonlinear mean;
    a deviation above 4 combined standard errors (the report's ``threshold``)
    is flagged.
    """
    threshold = 4.0
    if config.n_traj < 2:
        raise InsufficientDataError(
            f"a standard error needs at least 2 trajectories, got {config.n_traj}"
        )
    if observables is None:
        from .dynamics import hermitian_basis

        basis = hermitian_basis(model.dim)
        observables = [(f"basis[{k}]", basis[k]) for k in range(1, basis.shape[0])]
    nl_config = replace(config, mode="nonlinear")
    li_config = replace(config, mode="linear", seed=config.seed + 1)
    nl = simulate_ensemble(model, mrep, rho0, nl_config)
    li = simulate_ensemble(model, mrep, rho0, li_config)
    step = int(nl.snapshot_steps[-1])
    nl_states = nl.snapshots[-1]
    li_states = li.snapshots[-1]
    li_weights = np.exp(li.log_weight[:, step] - np.max(li.log_weight[:, step]))
    rows = []
    all_ok = True
    for name, op in observables:
        op = np.asarray(op, dtype=complex)
        nl_vals = np.real(np.einsum("ab,nba->n", op, nl_states))
        li_vals = np.real(np.einsum("ab,nba->n", op, li_states))
        nl_mean = float(nl_vals.mean())
        nl_err = float(nl_vals.std(ddof=1) / np.sqrt(nl_vals.size))
        li_mean, li_err = _weighted_stats(li_vals, li_weights)
        dev = abs(nl_mean - li_mean)
        comb = float(np.hypot(nl_err, li_err))
        flagged = bool(dev > threshold * comb)
        all_ok = all_ok and not flagged
        rows.append(
            ObservableComparison(name, li_mean, li_err, nl_mean, nl_err, dev, comb, flagged)
        )
    return ConsistencyReport(
        time=float(nl.times[step]),
        comparisons=tuple(rows),
        effective_sample_size=effective_sample_size(li_weights),
        threshold=threshold,
        passed=all_ok,
    )
