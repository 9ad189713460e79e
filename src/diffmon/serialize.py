"""File formats: measurement/model documents, trajectory CSV, reports, manifests.

Complex numbers are serialized as two-element [re, im] arrays.  Measurement
documents carry {"type", "hbar", "L"} plus a type-specific payload; model
documents carry {"hbar", "dim", "hamiltonian", "lindblads"}.  Fingerprints
are SHA-256 digests of the canonical (sorted, compact) JSON payload, so they
are independent of file formatting and identical whether computed from a file
or from an in-memory object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import LindbladModel
from .errors import (
    InsufficientDataError,
    IoError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .linalg import DEFAULT_TOL, positive_sqrt
from .reps import (
    BRep,
    MRep,
    TRep,
    URep,
    brep_to_mrep,
    brep_to_urep,
    mrep_to_trep,
    trep_to_mrep,
    trep_to_urep,
    validate_brep,
    validate_mrep,
    validate_trep,
    validate_urep,
)

REP_KINDS = ("mrep", "urep", "brep", "trep")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint_payload(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _complex_to_pairs(matrix: np.ndarray) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _float_array(rows, field: str, ndim: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field {field!r} is not {what}") from exc
    if arr.ndim != ndim or (ndim == 3 and arr.shape[2] != 2):
        raise SchemaError(f"field {field!r} is not {what}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"field {field!r} has a non-finite entry")
    return arr


def pairs_to_complex(rows, field: str) -> np.ndarray:
    arr = _float_array(rows, field, 3, "a matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _real_matrix(rows, field: str) -> np.ndarray:
    return _float_array(rows, field, 2, "a real matrix")


def _real_vector(rows, field: str) -> np.ndarray:
    return _float_array(rows, field, 1, "a vector of numbers")


def _number(value, cast, field: str):
    kind = "an integer" if cast is int else "a finite number"
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"field {field!r} must be {kind}, got {value!r}") from exc
    if cast is float and not np.isfinite(out):
        raise SchemaError(f"field {field!r} must be {kind}, got {value!r}")
    return out


def _require(data: dict, field: str):
    if field not in data:
        raise SchemaError(f"missing required field {field!r}")
    return data[field]


@dataclass(frozen=True)
class RepFile:
    """A measurement document: its kind tag, domain object, and action scale."""

    kind: str
    rep: object
    hbar: float

    @property
    def channels(self) -> int:
        return self.rep.channels


def load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path} must contain a JSON object at top level")
    return data


def rep_payload(rep_file: RepFile) -> dict:
    kind, rep, hbar = rep_file.kind, rep_file.rep, rep_file.hbar
    out = {"type": kind, "hbar": float(hbar), "L": int(rep.channels)}
    if kind == "mrep":
        out["matrix"] = _complex_to_pairs(rep.matrix)
    elif kind in ("urep", "trep"):
        out["matrix"] = [[float(v) for v in row] for row in rep.matrix]
    elif kind == "brep":
        out["eta"] = [float(v) for v in rep.eta]
        out["S"] = _complex_to_pairs(rep.mixing)
        out["theta"] = [float(v) for v in rep.theta]
    else:
        raise SchemaError(f"unknown measurement kind {kind!r}")
    return out


def parse_rep(data: dict, default_hbar: float = 1.0, tol: float = DEFAULT_TOL) -> RepFile:
    """Build and validate a measurement object from a parsed document."""
    kind = _require(data, "type")
    if kind not in REP_KINDS:
        raise SchemaError(f"field 'type' must be one of {REP_KINDS}, got {kind!r}")
    hbar = _number(data.get("hbar", default_hbar), float, "hbar")
    ell = _number(_require(data, "L"), int, "L")
    if ell < 1:
        raise SchemaError(f"field 'L' must be a positive integer, got {ell}")
    if kind == "mrep":
        m = pairs_to_complex(_require(data, "matrix"), "matrix")
        if m.shape != (ell, 2 * ell):
            raise SchemaError(f"field 'matrix' must be {ell} x {2 * ell}, got {m.shape}")
        validate_mrep(m, hbar=hbar, tol=tol)
        return RepFile("mrep", MRep(m, hbar=hbar), hbar)
    if kind == "urep":
        u = _real_matrix(_require(data, "matrix"), "matrix")
        if u.shape != (2 * ell, 2 * ell):
            raise SchemaError(
                f"field 'matrix' must be {2 * ell} x {2 * ell}, got {u.shape}"
            )
        validate_urep(u, hbar=hbar, tol=tol)
        return RepFile("urep", URep(u, hbar=hbar), hbar)
    if kind == "trep":
        t = _real_matrix(_require(data, "matrix"), "matrix")
        if t.shape != (2 * ell, 2 * ell):
            raise SchemaError(
                f"field 'matrix' must be {2 * ell} x {2 * ell}, got {t.shape}"
            )
        validate_trep(t, hbar=hbar, tol=tol)
        return RepFile("trep", TRep(t, hbar=hbar), hbar)
    eta = _real_vector(_require(data, "eta"), "eta")
    theta = _real_vector(_require(data, "theta"), "theta")
    s = pairs_to_complex(_require(data, "S"), "S")
    if eta.shape != (ell,) or theta.shape != (ell,) or s.shape != (ell, ell):
        raise SchemaError(
            f"brep payload shapes do not match L = {ell}:"
            f" eta {eta.shape}, S {s.shape}, theta {theta.shape}"
        )
    brep = BRep(eta, s, theta)
    validate_brep(brep, tol=tol)
    return RepFile("brep", brep, hbar)


def load_rep(path, default_hbar: float = 1.0, tol: float = DEFAULT_TOL) -> RepFile:
    try:
        return parse_rep(load_json(path), default_hbar=default_hbar, tol=tol)
    except (SchemaError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def rep_efficiencies(rep_file: RepFile, tol: float = DEFAULT_TOL) -> np.ndarray:
    kind, rep = rep_file.kind, rep_file.rep
    if kind == "mrep":
        return validate_mrep(rep.matrix, hbar=rep.hbar, tol=tol)
    if kind == "urep":
        return validate_urep(rep.matrix, hbar=rep.hbar, tol=tol)
    if kind == "trep":
        return validate_trep(rep.matrix, hbar=rep.hbar, tol=tol)
    validate_brep(rep, tol=tol)
    return np.clip(rep.eta, 0.0, 1.0)


def convert_rep(rep_file: RepFile, to_kind: str, tol: float = DEFAULT_TOL) -> RepFile:
    """Convert a measurement document to another kind.

    Conversions into the current-correlation form are canonical; conversions
    out of it use the positive-root factor (the measurement matrix with no
    orthogonal post-processing).
    """
    if to_kind not in ("mrep", "urep", "trep"):
        raise ValidationError(f"cannot convert to {to_kind!r}")
    kind, rep, hbar = rep_file.kind, rep_file.rep, rep_file.hbar
    if kind == to_kind:
        return rep_file
    if kind == "brep":
        if to_kind == "mrep":
            return RepFile("mrep", brep_to_mrep(rep, hbar=hbar, tol=tol), hbar)
        if to_kind == "urep":
            return RepFile("urep", brep_to_urep(rep, hbar=hbar, tol=tol), hbar)
        return RepFile("trep", mrep_to_trep(brep_to_mrep(rep, hbar=hbar, tol=tol)), hbar)
    if kind == "mrep":
        if to_kind == "trep":
            return RepFile("trep", mrep_to_trep(rep), hbar)
        return RepFile("urep", trep_to_urep(mrep_to_trep(rep), tol=tol), hbar)
    if kind == "trep":
        if to_kind == "mrep":
            return RepFile("mrep", trep_to_mrep(rep), hbar)
        return RepFile("urep", trep_to_urep(rep, tol=tol), hbar)
    # from the current-correlation form: canonical positive-root factor
    tmat = positive_sqrt(hbar * rep.matrix, tol=tol)
    trep = TRep(tmat, hbar=hbar)
    if to_kind == "trep":
        return RepFile("trep", trep, hbar)
    return RepFile("mrep", trep_to_mrep(trep), hbar)


def rep_to_mrep(rep_file: RepFile, tol: float = DEFAULT_TOL) -> MRep:
    """Measurement matrix equivalent of any document kind (canonical where needed)."""
    return convert_rep(rep_file, "mrep", tol=tol).rep


def model_payload(model: LindbladModel) -> dict:
    return {
        "hbar": float(model.hbar),
        "dim": int(model.dim),
        "hamiltonian": _complex_to_pairs(model.hamiltonian),
        "lindblads": [_complex_to_pairs(c) for c in model.lindblads],
    }


def parse_model(data: dict, default_hbar: float = 1.0) -> LindbladModel:
    hbar = _number(data.get("hbar", default_hbar), float, "hbar")
    dim = _number(_require(data, "dim"), int, "dim")
    if dim < 1:
        raise SchemaError(f"field 'dim' must be a positive integer, got {dim}")
    ham = pairs_to_complex(_require(data, "hamiltonian"), "hamiltonian")
    if ham.shape != (dim, dim):
        raise SchemaError(f"field 'hamiltonian' must be {dim} x {dim}, got {ham.shape}")
    raw = _require(data, "lindblads")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("field 'lindblads' must be a non-empty list of matrices")
    cs = []
    for i, rows in enumerate(raw):
        c = pairs_to_complex(rows, f"lindblads[{i}]")
        if c.shape != (dim, dim):
            raise SchemaError(f"field 'lindblads[{i}]' must be {dim} x {dim}, got {c.shape}")
        cs.append(c)
    return LindbladModel(hamiltonian=ham, lindblads=np.array(cs), hbar=hbar)


def load_model(path, default_hbar: float = 1.0) -> LindbladModel:
    try:
        return parse_model(load_json(path), default_hbar=default_hbar)
    except (SchemaError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def fingerprint_rep(rep_file: RepFile) -> str:
    return fingerprint_payload(rep_payload(rep_file))


def fingerprint_model(model: LindbladModel) -> str:
    return fingerprint_payload(model_payload(model))


# ---------------------------------------------------------------------------
# output artifacts


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    try:
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_rep(path, rep_file: RepFile) -> Path:
    return write_json(path, rep_payload(rep_file))


def write_model(path, model: LindbladModel) -> Path:
    return write_json(path, model_payload(model))


def write_trajectory_csv(path, ensemble) -> Path:
    """Write the per-step current record: t,traj,y_1..y_{2L},purity,log_weight.

    Row for step m of trajectory k reports the time at the end of the step,
    the current over that step, and the purity and cumulative log-weight of
    the state at that time.  Floats carry 17 significant digits.
    """
    if ensemble.purity is None:
        raise InsufficientDataError("the ensemble did not store purities; cannot write CSV")
    path = Path(path)
    d = ensemble.noise_dim
    header = "t,traj," + ",".join(f"y_{j + 1}" for j in range(d)) + ",purity,log_weight"
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for m in range(ensemble.steps):
                t = _fmt(ensemble.times[m + 1])
                for k in range(ensemble.n_traj):
                    ys = ",".join(_fmt(v) for v in ensemble.currents[k, m])
                    fh.write(
                        f"{t},{k},{ys},{_fmt(ensemble.purity[k, m + 1])},"
                        f"{_fmt(ensemble.log_weight[k, m + 1])}\n"
                    )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_table_csv(path, header: list, rows) -> Path:
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(
                    ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def convergence_tables(report) -> dict:
    """Named numeric tables mirroring a convergence report."""
    return {
        "trace_distance": (
            ["time", "trace_distance"],
            [
                [float(t), float(v)]
                for t, v in zip(report.snapshot_times, report.trace_distances)
            ],
        ),
        "dw_mean": (
            ["component", "mean"],
            [[j + 1, float(v)] for j, v in enumerate(report.dw_mean)],
        ),
        "dw_covariance": (
            ["row", "col", "value"],
            [
                [j + 1, k + 1, float(report.dw_covariance[j, k])]
                for j in range(report.dw_covariance.shape[0])
                for k in range(report.dw_covariance.shape[1])
            ],
        ),
    }


def autocorrelation_tables(estimate, predicted=None) -> dict:
    """Named numeric tables for estimated (and optionally predicted) correlations."""
    d = estimate.matrices.shape[1]

    def rows(*mats):
        return [
            [float(estimate.lag_times[i]), a + 1, b + 1, *(float(m[i, a, b]) for m in mats)]
            for i in range(estimate.lag_steps.size)
            for a in range(d)
            for b in range(d)
        ]

    header = ["lag", "row", "col", "value"]
    tables = {"estimated": (header + ["stderr"], rows(estimate.matrices, estimate.stderr))}
    if predicted is not None:
        tables["predicted"] = (header, rows(predicted))
    return tables


def write_report(outdir, name: str, payload: dict, tables: dict) -> list:
    """Write a JSON report plus one mirroring CSV per named table; returns the paths."""
    outdir = Path(outdir)
    paths = [write_json(outdir / f"{name}.json", payload)]
    for table, (header, rows) in tables.items():
        paths.append(write_table_csv(outdir / f"{name}_{table}.csv", header, rows))
    return paths


def write_manifest(outdir, command: str, seed, inputs: dict, config: dict, outputs) -> Path:
    import scipy

    from . import __version__

    payload = {
        "command": command,
        "seed": seed,
        "versions": {
            "diffmon": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "inputs": inputs,
        "config": config,
        "outputs": sorted(str(Path(p).name) for p in outputs),
    }
    return write_json(Path(outdir) / "manifest.json", payload)
