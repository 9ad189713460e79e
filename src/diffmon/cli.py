"""Command-line front door.

Subcommands: ``validate``, ``convert``, ``factorize``, ``simulate``,
``autocorr``, ``check``.  Exit codes: 0 success, 1 self-check failure,
2 unreadable input, 3 schema violation, 4 domain/validation error,
5 write failure.  All randomness flows from ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dynamics import me_integrate, predicted_autocorrelation
from .errors import (
    DiffmonError,
    IoError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .reps import mrep_to_brep_o
from .serialize import (
    RepFile,
    autocorrelation_tables,
    convergence_tables,
    convert_rep,
    fingerprint_model,
    fingerprint_rep,
    load_json,
    load_model,
    load_rep,
    rep_efficiencies,
    rep_to_mrep,
    write_json,
    write_manifest,
    write_rep,
    write_report,
    pairs_to_complex,
    write_trajectory_csv,
)
from .sme import SimulationConfig, simulate_ensemble
from .stats import autocorrelation_estimate, convergence_report


def _outdir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _load_initial_state(path: str | None, dim: int) -> np.ndarray:
    if path is None:
        return np.eye(dim, dtype=complex) / dim
    data = load_json(path)
    if "state" not in data:
        raise SchemaError("initial-state file must carry a 'state' matrix")
    rho = pairs_to_complex(data["state"], "state")
    if rho.shape != (dim, dim):
        raise SchemaError(f"initial state must be {dim} x {dim}, got {rho.shape}")
    return rho


def _simulation_config(args, **fields) -> SimulationConfig:
    return SimulationConfig(
        dt=args.dt,
        steps=args.steps,
        n_traj=args.ntraj,
        seed=args.seed,
        snapshot_stride=args.snapshot_stride,
        **fields,
    )


def _cmd_validate(args) -> int:
    rep_file = load_rep(args.rep, default_hbar=args.hbar, tol=args.tol)
    eta = rep_efficiencies(rep_file, tol=args.tol)
    print(f"{rep_file.kind} valid, eta={[float(v) for v in eta]}")
    return 0


def _cmd_convert(args) -> int:
    rep_file = load_rep(args.rep, default_hbar=args.hbar, tol=args.tol)
    out_file = convert_rep(rep_file, args.to, tol=args.tol)
    outdir = _outdir(args.out)
    path = outdir / f"{Path(args.rep).stem}_{args.to}.json"
    write_rep(path, out_file)
    print(f"wrote {path}")
    return 0


def _cmd_factorize(args) -> int:
    rep_file = load_rep(args.rep, default_hbar=args.hbar, tol=args.tol)
    if rep_file.kind not in ("mrep", "trep"):
        raise ValidationError(
            f"factorize needs a measurement-matrix document, got {rep_file.kind!r}"
        )
    mrep = rep_to_mrep(rep_file, tol=args.tol)
    brep, ortho = mrep_to_brep_o(mrep, tol=args.tol)
    outdir = _outdir(args.out)
    stem = Path(args.rep).stem
    brep_path = write_rep(outdir / f"{stem}_brep.json", RepFile("brep", brep, mrep.hbar))
    o_path = write_json(
        outdir / f"{stem}_postprocessing.json",
        {
            "matrix": [[float(v) for v in row] for row in ortho.matrix],
            "det_sign": int(ortho.det_sign),
        },
    )
    print(
        f"eta={float(brep.eta[0]):.12g} theta={float(brep.theta[0]):.12g}"
        f" det_sign={ortho.det_sign:+d}"
    )
    print(f"wrote {brep_path}")
    print(f"wrote {o_path}")
    return 0


def _load_run(args):
    """Model, measurement matrix, initial state and manifest inputs of a run."""
    model = load_model(args.model, default_hbar=args.hbar)
    rep_file = load_rep(args.rep, default_hbar=args.hbar, tol=args.tol)
    mrep = rep_to_mrep(rep_file, tol=args.tol)
    rho0 = _load_initial_state(args.init, model.dim)
    inputs = {
        "model": {"path": str(args.model), "fingerprint": fingerprint_model(model)},
        "rep": {"path": str(args.rep), "fingerprint": fingerprint_rep(rep_file)},
    }
    return model, mrep, rho0, inputs


def _write_run_manifest(args, outdir: Path, inputs: dict, outputs: list, **config) -> Path:
    """``manifest.json`` of a run: the run options every command shares, then ``config``."""
    shared = {"dt": args.dt, "steps": args.steps, "n_traj": args.ntraj, "tol": args.tol}
    return write_manifest(outdir, args.command, args.seed, inputs, {**shared, **config}, outputs)


def _cmd_simulate(args) -> int:
    model, mrep, rho0, inputs = _load_run(args)
    config = _simulation_config(args, mode=args.mode)
    ensemble = simulate_ensemble(model, mrep, rho0, config)
    outdir = _outdir(args.out)
    outputs = [write_trajectory_csv(outdir / "trajectories.csv", ensemble)]
    report = convergence_report(ensemble, model)
    outputs += write_report(outdir, "convergence", report.to_dict(), convergence_tables(report))
    stride = config.snapshot_stride
    outputs.append(
        _write_run_manifest(args, outdir, inputs, outputs, mode=config.mode, snapshot_stride=stride)
    )
    print(f"max trace distance to the unconditioned solution: {report.max_trace_distance:.3e}")
    for path in outputs:
        print(f"wrote {path}")
    return 0


def _cmd_autocorr(args) -> int:
    if args.ntraj < 2:  # one trajectory gives no standard error to compare against
        raise ValidationError(f"autocorr needs --ntraj of at least 2, got {args.ntraj}")
    # The estimate reads the currents alone: no noise or purity record is kept.
    config = _simulation_config(args, mode="nonlinear", store_dw=False, store_purity=False)
    try:
        lag_times = [float(v) for v in args.lags.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --lags {args.lags!r}: {exc}") from exc
    if not lag_times:
        raise ValidationError("--lags must name at least one positive lag time")
    burn_in = args.burn_in if args.burn_in is not None else args.steps // 2
    if not 0 <= burn_in < args.steps:
        raise ValidationError(
            f"--burn-in must lie in [0, {args.steps}), below --steps; got {burn_in}"
        )
    tail = args.steps - burn_in
    span = args.steps * config.dt
    for t in lag_times:
        if not 0.0 < t <= span:  # NaN and inf fail too
            raise ValidationError(f"--lags must lie in (0, {span:g}], the run's length; got {t}")
    multiples = [t / config.dt for t in lag_times]
    for t, k in zip(lag_times, multiples):
        if abs(k - round(k)) > 1e-9 * k:
            raise ValidationError(f"--lags must be whole multiples of --dt {config.dt:g}; got {t}")
        if round(k) >= tail:  # no pair of currents that far apart is left after the burn-in
            raise ValidationError(
                f"--lags must be under {tail} steps (--steps {args.steps} minus burn-in {burn_in});"
                f" got {t}"
            )
    lag_steps = sorted({round(k) for k in multiples})
    if len(lag_steps) < len(lag_times):
        raise ValidationError(f"--lags must fall on distinct steps of --dt; got {args.lags}")
    model, mrep, rho0, inputs = _load_run(args)
    ensemble = simulate_ensemble(model, mrep, rho0, config)
    estimate = autocorrelation_estimate(ensemble, lag_steps, burn_in=burn_in)
    rho_tail = me_integrate(model, rho0, args.dt, burn_in)[-1]
    predicted = predicted_autocorrelation(
        model, mrep, rho_tail, estimate.lag_times, dt=min(args.dt, 1e-3)
    )
    gap = np.abs(estimate.matrices - predicted)
    payload = {
        "burn_in_steps": int(burn_in),
        "lag_times": estimate.lag_times.tolist(),
        "estimated": estimate.to_dict(),
        "predicted": predicted.tolist(),
        "max_abs_difference": float(np.max(gap)),
        "max_difference_over_stderr": float(
            np.max(gap / np.where(estimate.stderr > 0, estimate.stderr, np.inf))
        ),
    }
    outdir = _outdir(args.out)
    outputs = write_report(
        outdir, "autocorr", payload, autocorrelation_tables(estimate, predicted)
    )
    lags = estimate.lag_times.tolist()
    outputs.append(
        _write_run_manifest(args, outdir, inputs, outputs, burn_in=int(burn_in), lags=lags)
    )
    print(
        f"max |estimate - prediction| = {payload['max_abs_difference']:.3e}"
        f" ({payload['max_difference_over_stderr']:.2f} stderr units)"
    )
    for path in outputs:
        print(f"wrote {path}")
    return 0


def _cmd_check(args) -> int:
    from .checks import run_all_checks  # only this command needs the self-checks
    results = run_all_checks(args.seed)
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name} — {res.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (seed {args.seed})")
    if args.out is not None:
        outdir = _outdir(args.out)
        write_json(
            outdir / "check_report.json",
            {
                "seed": args.seed,
                "passed": not failed,
                "results": [r.to_dict() for r in results],
            },
        )
        print(f"wrote {outdir / 'check_report.json'}")
    return 1 if failed else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hbar", type=float, default=1.0,
                        help="action scale assumed for documents that omit it (default 1.0)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="relative validation tolerance (default 1e-9)")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="system document (JSON)")
    parser.add_argument("--rep", required=True, help="measurement document (JSON)")
    parser.add_argument("--init", default=None,
                        help="initial-state document; default: maximally mixed")
    parser.add_argument("--dt", type=float, required=True, help="time step")
    parser.add_argument("--steps", type=int, required=True, help="number of steps")
    parser.add_argument("--ntraj", type=int, required=True, help="number of trajectories")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--snapshot-stride", type=int, default=None,
                        help="steps between stored state snapshots (default: about 50 total)")
    parser.add_argument("--out", default=".", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffmon",
        description="Validate, convert, factorize and simulate diffusive quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a measurement document and print efficiencies")
    p.add_argument("rep", help="measurement document (JSON)")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("convert", help="convert a measurement document to another form")
    p.add_argument("rep", help="measurement document (JSON)")
    p.add_argument("--to", required=True, choices=("mrep", "urep", "trep"),
                   help="target form")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    _add_common(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "factorize",
        help="factor a single-channel measurement matrix into a realization"
             " plus orthogonal post-processing",
    )
    p.add_argument("rep", help="measurement-matrix document (JSON)")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    _add_common(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("simulate", help="run a conditioned trajectory ensemble")
    _add_run_options(p)
    p.add_argument("--mode", choices=("nonlinear", "linear"), default="nonlinear")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("autocorr", help="estimated and predicted current autocorrelation")
    _add_run_options(p)
    p.add_argument("--lags", required=True,
                   help="comma-separated lag times, whole multiples of --dt, e.g. 0.1,0.5,1.0")
    p.add_argument("--burn-in", type=int, default=None,
                   help="steps discarded before the stationary tail (default: half)")
    _add_common(p)
    p.set_defaults(func=_cmd_autocorr)

    p = sub.add_parser("check", help="run the full invariant self-check suite")
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--out", default=None, help="directory for the JSON report (optional)")
    p.set_defaults(func=_cmd_check)

    return parser


def _check_scales(args) -> None:
    """--tol and --hbar, checked before any document is read: a document never takes the blame."""
    if not 0.0 <= args.tol < np.inf:  # NaN fails too
        raise ValidationError(f"--tol must be finite and non-negative, got {args.tol}")
    if not 0.0 < args.hbar < np.inf:
        raise ValidationError(f"--hbar must be finite and positive, got {args.hbar}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args:  # every command but check reads documents
            _check_scales(args)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 4
    except IoError as exc:
        print(f"write error: {exc}", file=sys.stderr)
        return 5
    except DiffmonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
