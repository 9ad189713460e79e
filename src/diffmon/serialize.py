"""File formats: measurement/model documents, trajectory CSV, reports, manifests.

Complex numbers are serialized as two-element [re, im] arrays.  Measurement
documents carry {"type", "hbar", "L"} plus a type-specific payload; model
documents carry {"hbar", "dim", "hamiltonian", "lindblads"}.  Fingerprints
are SHA-256 digests of the canonical (sorted, compact) JSON payload, so they
are independent of file formatting and identical whether computed from a file
or from an in-memory object.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
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
    _clamp01,
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
    return np.stack([m.real, m.imag], -1).tolist()  # Python floats, as float() gives


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
    """A JSON integer (cast int) or number (cast float) as that type; never a bool or a string."""
    kind = "an integer" if cast is int else "a finite number"
    types = (int, np.integer) if cast is int else (int, float, np.integer, np.floating)
    try:
        out = cast(value) if isinstance(value, types) and not isinstance(value, bool) else None
    except OverflowError:  # float() of an integer beyond the float range
        out = None
    if out is None or cast is float and not np.isfinite(out):
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


# The document kinds that carry one "matrix": kind -> (class, validator,
# reader of the matrix entries, (rows, columns) of the matrix per channel).
_MATRIX_KINDS = {
    "mrep": (MRep, validate_mrep, pairs_to_complex, (1, 2)),
    "urep": (URep, validate_urep, _real_matrix, (2, 2)),
    "trep": (TRep, validate_trep, _real_matrix, (2, 2)),
}


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
    if kind in _MATRIX_KINDS:
        m = rep.matrix
        out["matrix"] = _complex_to_pairs(m) if np.iscomplexobj(m) else m.tolist()
    elif kind == "brep":
        out["eta"] = rep.eta.tolist()
        out["S"] = _complex_to_pairs(rep.mixing)
        out["theta"] = rep.theta.tolist()
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
    if kind in _MATRIX_KINDS:
        cls, validate, read, (rows, cols) = _MATRIX_KINDS[kind]
        m = read(_require(data, "matrix"), "matrix")
        if m.shape != (rows * ell, cols * ell):
            raise SchemaError(
                f"field 'matrix' must be {rows * ell} x {cols * ell}, got {m.shape}"
            )
        validate(m, hbar=hbar, tol=tol)
        return RepFile(kind, cls(m, hbar=hbar), hbar)
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
    if kind in _MATRIX_KINDS:
        return _MATRIX_KINDS[kind][1](rep.matrix, hbar=rep.hbar, tol=tol)
    validate_brep(rep, tol=tol)
    return _clamp01(rep.eta)


def rep_to_mrep(rep_file: RepFile, tol: float = DEFAULT_TOL) -> MRep:
    """Measurement matrix equivalent of any document kind (canonical where needed).

    This is the one place that knows how each kind reaches the M-rep.  From
    the current-correlation form it is the canonical positive-root factor of
    ``hbar U`` (no orthogonal post-processing).
    """
    kind, rep, hbar = rep_file.kind, rep_file.rep, rep_file.hbar
    if kind == "mrep":
        return rep
    if kind == "brep":
        return brep_to_mrep(rep, hbar=hbar, tol=tol)
    if kind == "urep":
        rep = TRep(positive_sqrt(hbar * rep.matrix, tol=tol), hbar=hbar)
    return trep_to_mrep(rep)


def convert_rep(rep_file: RepFile, to_kind: str, tol: float = DEFAULT_TOL) -> RepFile:
    """Convert a measurement document to another kind, through its M-rep.

    Conversions into the current-correlation form are canonical; conversions
    out of it use the positive-root factor (the measurement matrix with no
    orthogonal post-processing).  B -> U alone keeps the stage product of
    ``brep_to_urep``, which does not pass through ``brep_to_mrep``, so the two
    routes check each other.
    """
    if to_kind not in _MATRIX_KINDS:
        raise ValidationError(f"cannot convert to {to_kind!r}")
    kind, hbar = rep_file.kind, rep_file.hbar
    if kind == to_kind:
        return rep_file
    if (kind, to_kind) == ("brep", "urep"):
        return RepFile("urep", brep_to_urep(rep_file.rep, hbar=hbar, tol=tol), hbar)
    rep = rep_to_mrep(rep_file, tol=tol)
    if to_kind != "mrep":
        rep = mrep_to_trep(rep)
    if to_kind == "urep":
        rep = trep_to_urep(rep, tol=tol)
    return RepFile(to_kind, rep, hbar)


def model_payload(model: LindbladModel) -> dict:
    return {
        "hbar": float(model.hbar),
        "dim": int(model.dim),
        "hamiltonian": _complex_to_pairs(model.hamiltonian),
        "lindblads": _complex_to_pairs(model.lindblads),
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


# The trajectory CSV renders "%.17g" a block of steps at a time.  A value's
# slot holds a sign byte, the "0.000" of decades -4..-1, then its 17 digits
# each followed by a byte for the point; byte 39 takes the separator.  Unused
# bytes are NUL and deleted.  What the vectorized path cannot decide exactly
# goes through _fmt: exponent forms, non-finite values, ties and decade edges.
_CSV_BLOCK_ROWS = 2048  # steps per block: this many rows, or one step
_SLOT = 40
_TIE = 1e-9  # a fraction of the scaled value this close to 1/2 is left to _fmt


def _split(x):
    """Dekker's split: x = hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _csv_tables():
    """The formatter's tables, built at its first use, not at import.

    10^k for k = 0..21 (exact doubles, from integers) and their halves; the
    digit words of 0..9999 and of a leading digit; trailing zeros of four
    digits; and, per (sign, k = 16 - decade, cut trailing digits), the slot
    bytes to add and to keep.  k = 21 stands for zero.
    """
    pw = np.array([float(10**k) for k in range(22)])
    g = np.arange(10**4)
    digits = sum(
        (48 + g // 10**i % 10).astype(np.uint64) << np.uint64(48 - 16 * i) for i in range(4)
    )
    text = np.zeros((2, 22, 18, _SLOT), np.uint8)
    keep = np.full((2, 22, 18, _SLOT), 255, np.uint8)
    text[1, ..., 0] = ord("-")
    for k in range(22):
        e = 16 - k
        if e == -5:  # zero
            text[:, k, :, 1] = ord("0")
        elif e < 0:
            text[:, k, :, 1 : 2 - e] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
        elif e < 16:
            text[:, k, :, 7 + 2 * e] = ord(".")
        for t in range(18):
            cut = 17 if k == 21 else min(t, 16 - max(e, 0))  # digits after the point
            keep[:, k, t, 39 - 2 * cut : 39] = 0  # with a point left bare
    words = (text.reshape(-1, _SLOT).view("<u8"), keep.reshape(-1, _SLOT).view("<u8"))
    lead = digits[:11] & np.uint64(255 << 48)
    return (pw, *_split(pw), digits, lead, sum(g % 10**j == 0 for j in (1, 2, 3)), *words)


def _csv_slots(v: np.ndarray) -> np.ndarray:
    """(n,) doubles -> (n, _SLOT) bytes holding "%.17g" % v, NUL-padded."""
    pw, ph, pl, digits, lead, zeros4, text, keep = _csv_tables()
    zero = v == 0
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)  # %g's fixed-point range: no NaN, inf or 0
    a = np.where(fast, a, 1e-5)  # k = 21 for the rest
    k = np.clip(16 - np.floor(np.log10(a)), 0, 21).astype(np.intp)
    # a 10^k = hi + lo exactly (Dekker's product), rounded to q, halves down.
    ah, al = _split(a)
    hi = a * pw.take(k)
    ph, pl = ph.take(k), pl.take(k)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    fl = np.floor(lo)
    frac = lo - fl
    q = hi.astype(np.int64) + fl.astype(np.int64) + (frac > 0.5)
    edge = (q < 10**16 + 4) | (q > 10**17 - 4)  # log10 may have missed the decade
    slow = (~fast | (np.abs(frac - 0.5) < _TIE) | edge) & ~zero
    h = q // 10**8
    low = (q - h * 10**8).astype(np.int32)
    h = h.astype(np.int32)
    d0 = h // 10**8
    x = h - d0 * 10**8
    g0, g2 = x // 10**4, low // 10**4
    g3 = low - g2 * 10**4
    cut = zeros4.take(g3)
    rows = np.flatnonzero((g3 == 0) & ~zero)
    if rows.size:
        cut[rows] = sum(q[rows] % 10**j == 0 for j in range(1, 17))
    idx = (np.signbit(v) * 22 + k) * 18 + cut
    w = text.take(idx, axis=0)
    w[:, 0] |= lead.take(d0)
    w[:, 1] |= digits.take(g0)
    w[:, 2] |= digits.take(x - g0 * 10**4)
    w[:, 3] |= digits.take(g2)
    w[:, 4] |= digits.take(g3)
    w &= keep.take(idx, axis=0)
    out = w.view(np.uint8)
    rest = np.flatnonzero(slow)
    scalar = np.array([_fmt(u) for u in v[rest].tolist()], f"S{_SLOT}")
    out[rest] = scalar.view(np.uint8).reshape(-1, _SLOT)
    return out


def write_json(path, payload: dict) -> Path:
    """Write ``payload`` as JSON, refusing (``ValidationError``) a NaN or an infinity."""
    path = Path(path)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"cannot write {path}: a value is not finite") from exc
    try:
        path.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_rep(path, rep_file: RepFile) -> Path:
    return write_json(path, rep_payload(rep_file))


def write_trajectory_csv(path, ensemble) -> Path:
    """Write the per-step current record: t,traj,y_1..y_{2L},purity,log_weight.

    Row for step m of trajectory k reports the time at the end of the step,
    the current over that step, and the purity and cumulative log-weight of
    the state at that time.  Each float is written exactly as "%.17g" % v.
    """
    if ensemble.purity is None:
        raise InsufficientDataError("the ensemble did not store purities; cannot write CSV")
    path = Path(path)
    d, n = ensemble.noise_dim, ensemble.n_traj
    header = "t,traj," + ",".join(f"y_{j + 1}" for j in range(d)) + ",purity,log_weight\n"
    seps = np.frombuffer(b"," * (d + 1) + b"\n", np.uint8)
    traj = np.array([f"{k}," for k in range(n)], "S").view(np.uint8).reshape(n, -1)
    try:
        with path.open("wb") as fh:
            fh.write(header.encode())
            block = max(1, _CSV_BLOCK_ROWS // n)
            for m in range(0, ensemble.steps, block):
                s = slice(m, min(m + block, ensemble.steps))
                b, after = s.stop - m, slice(m + 1, s.stop + 1)  # states at the steps' ends
                times = np.array([_fmt(t) + "," for t in ensemble.times[after]], "S")
                times = times.view(np.uint8).reshape(b, 1, -1)
                values = np.empty((b, n, d + 2))
                values[..., :d] = ensemble.currents[:, s].transpose(1, 0, 2)
                values[..., d] = ensemble.purity[:, after].T
                values[..., d + 1] = ensemble.log_weight[:, after].T
                text = _csv_slots(values.ravel()).reshape(b, n, d + 2, _SLOT)
                text[..., -1] = seps
                rows = np.concatenate(
                    (
                        np.broadcast_to(times, (b, n, times.shape[2])),
                        np.broadcast_to(traj, (b, *traj.shape)),
                        text.reshape(b, n, -1),
                    ),
                    axis=2,
                )
                fh.write(rows.tobytes().translate(None, b"\0"))
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


def autocorrelation_tables(estimate, predicted: np.ndarray) -> dict:
    """Named numeric tables for estimated and predicted correlations."""
    d = estimate.matrices.shape[1]

    def rows(*mats):
        return [
            [float(estimate.lag_times[i]), a + 1, b + 1, *(float(m[i, a, b]) for m in mats)]
            for i in range(estimate.lag_steps.size)
            for a in range(d)
            for b in range(d)
        ]

    header = ["lag", "row", "col", "value"]
    estimated = (header + ["stderr"], rows(estimate.matrices, estimate.stderr))
    return {"estimated": estimated, "predicted": (header, rows(predicted))}


def write_report(outdir, name: str, payload: dict, tables: dict) -> list:
    """Write a JSON report plus one mirroring CSV per named table; returns the paths."""
    outdir = Path(outdir)
    paths = [write_json(outdir / f"{name}.json", payload)]
    for table, (header, rows) in tables.items():
        paths.append(write_table_csv(outdir / f"{name}_{table}.csv", header, rows))
    return paths


def _scipy_version() -> str:
    """``scipy.__version__``, which scipy takes from its ``scipy/version.py``.

    Loading that one file takes well under a millisecond; in a fresh
    interpreter ``import scipy`` takes about 13 ms and ``importlib.metadata``
    20-25 ms, and nothing ``simulate`` or ``autocorr`` runs uses scipy.
    """
    spec = importlib.util.find_spec("scipy")
    path = Path(spec.origin).with_name("version.py")
    if not path.is_file():
        from importlib.metadata import version

        return version("scipy")
    module_spec = importlib.util.spec_from_file_location("_scipy_version", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.version


def write_manifest(outdir, command: str, seed, inputs: dict, config: dict, outputs) -> Path:
    from . import __version__

    payload = {
        "command": command,
        "seed": seed,
        "versions": {
            "diffmon": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
        "inputs": inputs,
        "config": config,
        "outputs": sorted(str(Path(p).name) for p in outputs),
    }
    return write_json(Path(outdir) / "manifest.json", payload)
