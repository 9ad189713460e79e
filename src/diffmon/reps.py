"""Parameterizations of diffusive quantum measurements and their interconversions.

Three equivalent descriptions of a continuous diffusive monitoring of ``L``
output channels are supported:

* ``MRep`` -- an L x 2L complex matrix whose single validity constraint is
  that ``M M^dag / hbar`` be diagonal with entries in [0, 1] (the per-channel
  detection efficiencies).
* ``URep`` -- a 2L x 2L real matrix of current correlations, subject to three
  constraints (PSD, diagonal block sum a valid efficiency matrix, equal
  off-diagonal blocks).
* ``BRep`` -- a physical realization: per-channel efficiencies, a mode-mixing
  unitary, and per-channel quadrature splitting ratios feeding homodyne
  detectors.

``TRep`` stacks the real and imaginary parts of an ``MRep`` into a square real
matrix; ``OrthoMatrix`` is the orthogonal post-processing freedom relating
equivalent measurement matrices.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EfficiencyOutOfRangeError,
    InternalInconsistencyError,
    NotL1Error,
    NotPSDError,
    OffBlockAsymmetricError,
    OffDiagonalError,
    SumNotInHError,
    ValidationError,
    ZeroMError,
)
from .linalg import DEFAULT_TOL, frobenius, polar_decompose

# Products and sums of entries below this bound cannot overflow; past it the
# checks enter np.errstate, so that overflow is named by a check, not warned.
_OVERFLOW_FREE = 1e300
_NO_GUARD = contextlib.nullcontext()


def _overflow_guard(bound: float):
    """Silence overflow and the inf - inf it leads to, when ``bound`` (or NaN) allows them."""
    if bound < _OVERFLOW_FREE:
        return _NO_GUARD
    return np.errstate(over="ignore", invalid="ignore")


def _clamp01(vec: np.ndarray) -> np.ndarray:
    """``vec.clip(0.0, 1.0)`` of a short vector, bit for bit (-0.0 and NaN kept)."""
    out = np.array(vec, dtype=float)
    for k, v in enumerate(out.tolist()):
        if v < 0.0:
            out[k] = 0.0
        elif v > 1.0:
            out[k] = 1.0
    return out


def _max_abs(a: np.ndarray):
    """``np.abs(a).max()``, NaN if an entry is NaN, without the reduction's wrapper."""
    mag = np.abs(a).ravel()
    return mag[mag.argmax()]


def _check_hbar(hbar: float) -> float:
    hbar = float(hbar)
    if not math.isfinite(hbar) or hbar <= 0.0:
        raise ValidationError(f"hbar must be a positive real number, got {hbar}")
    return hbar


def _check_finite(a: np.ndarray, what: str) -> float:
    """Raise unless every entry of ``a`` is finite; returns ``frobenius(a)``."""
    norm = frobenius(a)
    if not math.isfinite(norm) and not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")
    return norm


def _check_unit_range(vec: np.ndarray, slack: float, label: str, error=EfficiencyOutOfRangeError):
    """Raise ``error`` naming the first entry outside [-slack, 1 + slack] (NaN included)."""
    for k, v in enumerate(vec.tolist()):
        if not (-slack <= v <= 1.0 + slack):
            raise error(f"{label}[{k}] = {vec[k]} falls outside [0, 1]")


def _check_unitary(a: np.ndarray, tol: float, failure: str) -> None:
    """Raise ``failure`` with the defect unless ``|a^dag a - I| <= tol max(1, |a|^2)``.

    Both sides are divided by ``max(1, |a|)``, so an ``|a|^2`` past the
    largest float does not turn the bound into inf; an overflowed defect is
    inf or NaN and fails.
    """
    norm = frobenius(a)
    with _overflow_guard(norm * norm):
        gram = a.conj().T @ a
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    defect = frobenius(gram)
    scale = max(1.0, norm)
    if not defect / scale <= tol * scale:
        raise ValidationError(f"{failure} (defect {defect:.3e})")


def _store_matrix(rep, dtype, what: str, square: bool) -> None:
    """Cast, check (L x 2L, or 2L x 2L when square) and store a rep's matrix and scale."""
    m = np.array(rep.matrix, dtype=dtype)
    rows = m.shape[0] if m.ndim == 2 else 0
    if rows < 1 or m.shape[1] != (rows if square else 2 * rows) or (square and rows % 2):
        shape = "2L x 2L" if square else "L x 2L"
        raise DimensionMismatchError(f"{what} must be {shape}, got shape {m.shape}")
    _check_finite(m, what)
    object.__setattr__(rep, "matrix", m)
    object.__setattr__(rep, "hbar", _check_hbar(rep.hbar))


@dataclass(frozen=True)
class MRep:
    """Measurement matrix: L x 2L complex, with the action scale it is expressed in."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        _store_matrix(self, complex, "measurement matrix", square=False)

    @property
    def channels(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class TRep:
    """Stacked real/imaginary form of a measurement matrix: 2L x 2L real."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        _store_matrix(self, float, "stacked measurement matrix", square=True)

    @property
    def channels(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def real_part(self) -> np.ndarray:
        return self.matrix[: self.channels]

    @property
    def imag_part(self) -> np.ndarray:
        return self.matrix[self.channels :]


@dataclass(frozen=True)
class URep:
    """Current-correlation (unravelling) matrix: 2L x 2L real."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        _store_matrix(self, float, "unravelling matrix", square=True)

    @property
    def channels(self) -> int:
        return self.matrix.shape[0] // 2

    def blocks(self):
        """The four L x L blocks (upper-left, upper-right, lower-left, lower-right)."""
        L = self.channels
        u = self.matrix
        return u[:L, :L], u[:L, L:], u[L:, :L], u[L:, L:]


@dataclass(frozen=True)
class BRep:
    """Optical realization: efficiencies, mode-mixing unitary, quadrature splittings."""

    eta: np.ndarray
    mixing: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        eta = np.array(self.eta, dtype=float).reshape(-1)
        theta = np.array(self.theta, dtype=float).reshape(-1)
        s = np.array(self.mixing, dtype=complex)
        L = eta.shape[0]
        if L < 1 or theta.shape[0] != L or s.shape != (L, L):
            raise DimensionMismatchError(
                "efficiencies, splittings and the mixing unitary must share one channel count"
            )
        _check_finite(eta, "efficiency vector")
        _check_finite(s, "mixing unitary")
        _check_finite(theta, "splitting vector")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "mixing", s)
        object.__setattr__(self, "theta", theta)

    @property
    def channels(self) -> int:
        return self.eta.shape[0]


def validate_brep(brep: BRep, tol: float = DEFAULT_TOL) -> None:
    """Check efficiency/splitting ranges and unitarity of the mixing matrix."""
    _check_unit_range(brep.eta, tol, "eta")
    _check_unit_range(brep.theta, tol, "theta")
    _check_unitary(brep.mixing, tol, "mixing matrix is not unitary")


@dataclass(frozen=True)
class OrthoMatrix:
    """Orthogonal post-processing of the current vector, and the sign of its determinant."""

    matrix: np.ndarray
    det_sign: int = field(init=False)

    def __post_init__(self):
        o = np.array(self.matrix, dtype=float)
        if o.ndim != 2 or o.shape[0] != o.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {o.shape}")
        norm = _check_finite(o, "post-processing matrix")
        object.__setattr__(self, "matrix", o)
        # Hadamard's inequality bounds |det o| by |o|^n, without overflow here.
        with _overflow_guard(math.prod([norm] * o.shape[0])):
            det = float(np.linalg.det(o))
        object.__setattr__(self, "det_sign", 1 if det > 0 else -1)


# ---------------------------------------------------------------------------
# validation


def validate_mrep(matrix: np.ndarray, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a measurement matrix and return its efficiency vector.

    ``matrix @ matrix^dag / hbar`` must be diagonal with entries in [0, 1];
    the diagonal is returned with entries within ``tol`` of the interval
    clamped into it.  Raises ``OffDiagonalError`` or
    ``EfficiencyOutOfRangeError`` naming the offending entry.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[1] != 2 * m.shape[0] or not m.size:
        raise DimensionMismatchError(f"measurement matrix must be L x 2L, got {m.shape}")
    hbar = _check_hbar(hbar)
    norm = frobenius(m)
    with _overflow_guard(norm * norm / min(hbar, 1.0)):
        gram = m @ m.conj().T / hbar
        size = frobenius(gram)
        d = gram.diagonal().copy()
        # Subtracting the diagonal from itself zeroes it, and keeps a NaN there.
        gram.flat[:: d.size + 1] -= d
    # An overflowed gram keeps the bare tolerance, so the range check names it.
    atol = tol * max(1.0, size) if math.isfinite(size) else tol
    mag = np.abs(gram).ravel()
    k = int(mag.argmax())  # the first NaN if there is one, and then no entry is named
    if mag[k] > atol:
        j, k = divmod(k, d.size)
        raise OffDiagonalError(
            f"channel gram matrix has off-diagonal entry ({j},{k}) = {gram[j, k]:.3e}"
        )
    _check_unit_range(d.real, atol, "efficiency")
    return _clamp01(d.real)


def validate_urep(matrix: np.ndarray, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate an unravelling matrix and return its efficiency vector.

    The checks run in this order, each within ``tol max(1, |U|)``: finite
    entries, symmetry, positive-semidefiniteness (the least eigenvalue), equal
    off-diagonal blocks, and a diagonal-block sum that is diagonal with
    entries in [0, 1].  Only the eigenvalue check needs an eigensolver, and
    only a matrix of unknown origin needs it: the conversions that build U as
    a Gram product (``trep_to_urep``, ``brep_to_urep``) run the other checks.
    """
    u = np.asarray(matrix, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % 2 or not u.size:
        raise DimensionMismatchError(f"unravelling matrix must be 2L x 2L, got {u.shape}")
    _check_hbar(hbar)
    return _check_urep(u, tol, spectrum=True)


def _check_urep(u: np.ndarray, tol: float, spectrum: bool) -> np.ndarray:
    """``validate_urep``'s checks of a 2L x 2L float array; the eigenvalue one if ``spectrum``."""
    L, norm = u.shape[0] // 2, frobenius(u)
    with _overflow_guard(norm):  # huge finite entries overflow the sums and differences
        s = u[:L, :L] + u[L:, L:]
        skew = u - u.T
        off = u[:L, L:] - u[L:, :L]
    diag = s.diagonal().copy()
    if not math.isfinite(norm):
        if not np.isfinite(u).all():  # a NaN in the diagonal-block sum is named first
            _check_unit_range(diag, tol, "diagonal-block sum entry ", SumNotInHError)
            raise ValidationError("unravelling matrix has non-finite entries")
        norm = np.finfo(float).max  # finite entries whose norm passes the largest float
    atol = tol * max(1.0, norm)
    if frobenius(skew) > atol:
        raise NotPSDError("unravelling matrix is not symmetric")
    if spectrum:
        w = np.linalg.eigvalsh(u - 0.5 * skew)
        if w[0] < -atol:
            raise NotPSDError(f"unravelling matrix has eigenvalue {w[0]:.3e} below zero")
    if frobenius(off) > atol:
        raise OffBlockAsymmetricError("off-diagonal blocks of the unravelling matrix differ")
    s.flat[:: L + 1] = 0.0  # not s - diag, which is NaN where an entry is inf
    if _max_abs(s) > atol:
        raise SumNotInHError("diagonal-block sum of the unravelling matrix is not diagonal")
    _check_unit_range(diag, atol, "diagonal-block sum entry ", SumNotInHError)
    return _clamp01(diag)


def validate_trep(matrix: np.ndarray, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a stacked real measurement matrix; returns the efficiency vector."""
    t = np.asarray(matrix, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] % 2 or not t.size:
        raise DimensionMismatchError(f"stacked matrix must be 2L x 2L, got {t.shape}")
    hbar = _check_hbar(hbar)
    L, norm = t.shape[0] // 2, frobenius(t)
    t1, t2 = t[:L], t[L:]
    atol = tol * max(1.0, norm * norm / hbar)
    with _overflow_guard(norm * norm):  # |t1 t2^T| <= |t|^2
        c = t1 @ t2.T
        cross = c - c.T
    if _max_abs(cross) > atol * hbar:
        raise OffBlockAsymmetricError("block cross products of the stacked matrix differ")
    return validate_mrep(t1 + 1j * t2, hbar=hbar, tol=tol)


# ---------------------------------------------------------------------------
# conversions


def mrep_to_trep(mrep: MRep) -> TRep:
    """Stack real and imaginary parts; exact (no arithmetic beyond copies)."""
    return TRep(np.concatenate([mrep.matrix.real, mrep.matrix.imag]), hbar=mrep.hbar)


def trep_to_mrep(trep: TRep) -> MRep:
    """Recombine the stacked blocks into a complex matrix; exact inverse of stacking."""
    return MRep(trep.real_part + 1j * trep.imag_part, hbar=trep.hbar)


def trep_to_urep(trep: TRep, tol: float = DEFAULT_TOL) -> URep:
    """Unravelling matrix of a stacked measurement matrix: t @ t.T / hbar.

    U is checked for finite entries, symmetry, equal off-diagonal blocks and a
    diagonal-block sum that is diagonal with entries in [0, 1]; an input that
    is not a valid measurement matrix fails one of these, as an
    ``InternalInconsistencyError``.  The eigenvalue check of ``validate_urep``
    is skipped: a Gram product is positive-semidefinite by construction, and
    its computed least eigenvalue is at least about ``-2L eps |t|^2 / hbar``,
    far inside the tolerance ``tol max(1, |U|)``.
    """
    u = trep.matrix @ trep.matrix.T / trep.hbar  # (j, k) and (k, j) sum the same products
    return _gram_urep(u, tol, trep.hbar, "derived unravelling matrix")


def _gram_urep(u: np.ndarray, tol: float, hbar: float, what: str) -> URep:
    """The URep of a Gram product u, once it passes ``_check_urep`` without the eigenvalue
    check; a failure is an ``InternalInconsistencyError`` naming ``what``."""
    try:
        _check_urep(u, tol, spectrum=False)
    except ValidationError as exc:
        raise InternalInconsistencyError(f"{what} fails validation: {exc}") from exc
    return URep(u, hbar=hbar)


def mrep_to_urep(mrep: MRep, tol: float = DEFAULT_TOL) -> URep:
    """Unravelling matrix of a measurement matrix."""
    return trep_to_urep(mrep_to_trep(mrep), tol=tol)


def urep_split(urep: URep):
    """Split an unravelling matrix into (efficiency diagonal, complex correlation matrix).

    Returns ``(h, y)`` where ``h`` is the unclamped diagonal of the sum of the
    diagonal blocks and ``y`` is complex symmetric; reassembling with
    ``urep_assemble(h, y)`` reproduces the input exactly.
    """
    validate_urep(urep.matrix, hbar=urep.hbar)
    u11, u12, _, u22 = urep.blocks()
    h = np.diagonal(u11 + u22).copy()
    y = (u11 - u22) + 2j * u12
    return h, y


def urep_assemble(h: np.ndarray, y: np.ndarray, hbar: float = 1.0) -> URep:
    """Build the unravelling matrix with efficiency diagonal ``h`` and correlations ``y``."""
    h = np.asarray(h, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=complex)
    if y.shape != (len(h), len(h)):
        raise DimensionMismatchError(
            f"correlations must be {len(h)} x {len(h)} for {len(h)} efficiencies, got {y.shape}"
        )
    hm = np.diag(h)
    u = 0.5 * np.block([[hm + y.real, y.imag], [y.imag, hm - y.real]])
    return URep(u, hbar=hbar)


def trep_polar(trep: TRep):
    """Factor t = p @ o with p the positive root of t @ t.T and o orthogonal.

    Returns ``(p, ortho, unique)``; the factorization is unique exactly when
    the stacked matrix is invertible.
    """
    p, o, unique = polar_decompose(trep.matrix)
    return p, OrthoMatrix(o), unique


def brep_to_mrep(brep: BRep, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> MRep:
    """Measurement matrix realized by an optical block arrangement.

    ``M = sqrt(hbar diag(eta)) S^dag [diag(sqrt(theta)), -i diag(sqrt(1 - theta))]``:
    the two column blocks carry the measured and conjugate quadrature
    couplings, scaled by the efficiencies and rotated by the mixing unitary.
    """
    validate_brep(brep, tol=tol)
    hbar = _check_hbar(hbar)
    a = np.sqrt(hbar * _clamp01(brep.eta))[:, None] * brep.mixing.conj().T
    rq, rqb = np.sqrt(_clamp01(brep.theta)), np.sqrt(_clamp01(1.0 - brep.theta))
    return MRep(np.concatenate([a * rq, -1j * a * rqb], axis=1), hbar=hbar)


def brep_to_urep(brep: BRep, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> URep:
    """Unravelling matrix of an optical realization, as the product of its stages.

    ``U = (W D)^T (W D)``.  ``D = diag(sqrt(eta), sqrt(eta))`` attenuates each
    mode, and ``W = diag(sqrt(theta), sqrt(1 - theta)) [[S_r, -S_i], [S_i, S_r]]``
    mixes the modes by the real form of ``S`` and splits each output between
    its homodyne pair.  The route does not pass through ``brep_to_mrep``, so
    the two conversions check each other.  U is a Gram product, so it gets
    the checks of ``trep_to_urep``, without the eigenvalue one.
    """
    validate_brep(brep, tol=tol)
    hbar = _check_hbar(hbar)
    z = brep.mixing * np.sqrt(_clamp01(brep.eta))
    rs = np.concatenate([z, 1j * z], axis=1)  # real part [S_r, -S_i] D, imaginary [S_i, S_r] D
    split = np.sqrt(_clamp01(np.concatenate([brep.theta, 1.0 - brep.theta])))
    wd = np.concatenate([rs.real, rs.imag]) * split[:, None]
    what = "unravelling matrix derived from the block realization"
    return _gram_urep(wd.T @ wd, max(tol, 1e-12), hbar, what)


def brep_o_to_mrep(brep: BRep, ortho: OrthoMatrix, hbar: float = 1.0) -> MRep:
    """Measurement matrix of an optical realization followed by current post-processing."""
    base = brep_to_mrep(brep, hbar=hbar)
    if ortho.matrix.shape != (2 * brep.channels, 2 * brep.channels):
        raise DimensionMismatchError(
            f"post-processing matrix must be {2 * brep.channels} x {2 * brep.channels},"
            f" got {ortho.matrix.shape}"
        )
    _check_unitary(ortho.matrix, DEFAULT_TOL, "matrix is not orthogonal")
    return MRep(base.matrix @ ortho.matrix, hbar=hbar)


# ---------------------------------------------------------------------------
# standard measurement constructors


def homodyne_mrep(eta: float, phase: float = 0.0, hbar: float = 1.0) -> MRep:
    """Single-channel homodyne detection of one quadrature at the given phase."""
    hbar = _check_hbar(hbar)
    if not (0.0 <= eta <= 1.0):
        raise EfficiencyOutOfRangeError(f"efficiency {eta} falls outside [0, 1]")
    if not math.isfinite(phase):
        raise ValidationError(f"phase must be a finite real number, got {phase}")
    amp = np.sqrt(hbar * eta) * np.exp(-1j * phase)
    return MRep(np.array([[amp, 0.0]]), hbar=hbar)


def heterodyne_mrep(eta: float, hbar: float = 1.0) -> MRep:
    """Single-channel heterodyne detection, realized as a balanced dual homodyne."""
    hbar = _check_hbar(hbar)
    if not (0.0 <= eta <= 1.0):
        raise EfficiencyOutOfRangeError(f"efficiency {eta} falls outside [0, 1]")
    amp = np.sqrt(hbar * eta / 2.0)
    return MRep(np.array([[amp, 1j * amp]]), hbar=hbar)


def efficient_decomposition(mrep: MRep):
    """Factor a measurement matrix into efficiencies times a unit-efficiency part.

    Returns ``(eta, efficient_part, dark)`` with ``sqrt(eta)[:, None] *
    efficient_part == matrix`` on channels with ``eta > 1e-9``.  Channels with
    vanishing efficiency are flagged in ``dark``; their rows carry no signal,
    so the unit-efficiency rows are completed deterministically: the
    single-quadrature row for that channel, orthogonalized against the other
    rows (falling back to the next basis direction if it is not independent).
    """
    eta = validate_mrep(mrep.matrix, hbar=mrep.hbar)
    L = mrep.channels
    hbar = mrep.hbar
    dark = eta <= DEFAULT_TOL
    mp = np.zeros((L, 2 * L), dtype=complex)
    mp[~dark] = mrep.matrix[~dark] / np.sqrt(eta[~dark])[:, None]
    rows = list(mp[~dark])
    for k in np.flatnonzero(dark):
        for j in [*range(k, 2 * L), *range(k)]:
            cand = np.zeros(2 * L, dtype=complex)
            cand[j] = np.sqrt(hbar)
            for r in rows:
                cand = cand - r * (np.vdot(r, cand) / np.vdot(r, r))
            if np.linalg.norm(cand) > np.sqrt(hbar) * 1e-6:
                break
        else:
            raise InternalInconsistencyError(
                "could not complete the unit-efficiency rows (should be unreachable)"
            )
        mp[k] = cand * (np.sqrt(hbar) / np.linalg.norm(cand))
        rows.append(mp[k])
    return eta, mp, dark


# ---------------------------------------------------------------------------
# single-channel factorization into (realization, post-processing)


def factor_theta(r: float, phi: float) -> float:
    """Quadrature splitting consistent with a squared modulus ratio ``r`` at angle ``phi``."""
    c2, s2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    return (r * c2 - s2) / ((r + 1.0) * (c2 - s2))


def factor_phase_gap(r: float, phi: float) -> float:
    """Phase difference between the two measurement-matrix entries at angle ``phi``, for a
    post-processing rotation of determinant +1."""
    theta = min(max(factor_theta(r, phi), 0.0), 1.0)
    rt, rtb = np.sqrt(theta), np.sqrt(1.0 - theta)
    top = rt * np.cos(phi) + 1j * rtb * np.sin(phi)
    bot = rt * np.sin(phi) - 1j * rtb * np.cos(phi)
    return float(np.angle(top / bot))


def _rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def mrep_to_brep_o(mrep: MRep, tol: float = DEFAULT_TOL):
    """Factor a single-channel measurement matrix into a realization and post-processing.

    Returns ``(brep, ortho)`` with ``brep_o_to_mrep(brep, ortho, hbar)``
    reproducing the input.  Phase differences in [0, pi] use a rotation with
    determinant +1; negative ones shift the second entry by pi and absorb the
    sign into a determinant -1 post-processing.  With that sign applied, the
    row ``w = (m1, det_sign * m2)`` is written as
    ``|m| e^{i phase} [sqrt(theta) (c, s) + i sqrt(1 - theta) (s, -c)]``,
    ``(c, s) = (cos phi, sin phi)``: ``phi`` and ``phi + pi/2`` are the
    principal axes of the polarization ellipse of ``w``.  Multiplying ``w``
    by ``exp(-i arg(w^T w) / 2)`` makes its real and imaginary parts
    orthogonal; ``phi`` is the angle of the real part reduced into
    [0, pi/2), the smallest rotation angle (each quarter turn swaps the roles
    of the real and imaginary parts), and ``theta`` is the share of ``|w|^2``
    on that axis, never formed as a difference from 1.  At equal entry moduli
    the axis is pi/4 and ``theta = cos^2(gap / 2)`` for the phase gap of
    ``w``.
    """
    if mrep.channels != 1:
        raise NotL1Error("only single-channel measurement matrices can be factorized")
    validate_mrep(mrep.matrix, hbar=mrep.hbar, tol=tol)
    hbar = mrep.hbar
    m1, m2 = mrep.matrix[0]
    power = abs(m1) ** 2 + abs(m2) ** 2
    if power <= (tol * hbar) ** 2:
        raise ZeroMError("the zero measurement matrix has no realization")
    eta = power / hbar
    scale = np.sqrt(power)
    cut = 1e-12 * scale
    if abs(m2) <= cut:
        brep = BRep([eta], [[np.exp(-1j * np.angle(m1))]], [1.0])
        return brep, OrthoMatrix(np.eye(2))
    if abs(m1) <= cut:
        brep = BRep([eta], [[np.exp(-1j * np.angle(m2))]], [1.0])
        return brep, OrthoMatrix(_rotation(np.pi / 2.0))
    alpha1 = float(np.angle(m1))
    alpha2 = float(np.angle(m2))
    delta = alpha1 - alpha2
    delta = delta - 2.0 * np.pi * np.floor((delta + np.pi) / (2.0 * np.pi))
    if delta <= -np.pi:  # wrap convention: delta in (-pi, pi]
        delta += 2.0 * np.pi
    q = (abs(m1) ** 2 - abs(m2) ** 2) / (2.0 * power)
    if delta >= 0.0:
        det_sign, target = 1, delta
    else:
        det_sign, target = -1, delta + np.pi
    if abs(q) < 1e-15:
        theta, phi = float(np.cos(target / 2.0) ** 2), np.pi / 4.0
    else:
        w = np.array([m1, det_sign * m2])
        w = w * np.exp(-0.5j * np.angle(w @ w))
        x, y = w.real
        if y < 0.0 or (y == 0.0 and x < 0.0):  # half turn: same axis, same theta
            x, y = -x, -y
        swap = x <= 0.0  # quarter turn: the imaginary part lies on the axis
        if swap:
            x, y = y, -x
        phi = float(np.arctan2(y, x))
        on_axis = w.imag if swap else w.real
        theta = float(on_axis @ on_axis / (w.real @ w.real + w.imag @ w.imag))
    top = np.sqrt(theta) * np.cos(phi) + 1j * np.sqrt(1.0 - theta) * np.sin(phi)
    phase = alpha1 - float(np.angle(top))
    brep = BRep([eta], [[np.exp(-1j * phase)]], [theta])
    rot = _rotation(phi)
    o = rot if det_sign == 1 else rot @ np.diag([1.0, -1.0])
    return brep, OrthoMatrix(o)


# ---------------------------------------------------------------------------
# random sampling helpers (used by the self-check suite and the tests)


def _haar_q(z: np.ndarray) -> np.ndarray:
    """The Q of the QR factorization of a Gaussian matrix z, its columns rotated by the phases
    of R's diagonal, so that Q is Haar-distributed (Mezzadri, Notices AMS 54, 592 (2007))."""
    qmat, rmat = np.linalg.qr(z)
    ph = np.diagonal(rmat)
    return qmat * (ph / np.abs(ph))[None, :]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix."""
    return _haar_q(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_orthogonal(rng: np.random.Generator, n: int) -> OrthoMatrix:
    """Haar-distributed real orthogonal matrix (either determinant sign)."""
    return OrthoMatrix(_haar_q(rng.normal(size=(n, n))))


def random_mrep(rng: np.random.Generator, channels: int, hbar: float = 1.0) -> MRep:
    """Random valid measurement matrix: random efficiencies times orthonormal rows."""
    z = rng.normal(size=(channels, 2 * channels)) + 1j * rng.normal(size=(channels, 2 * channels))
    rows = _haar_q(z.conj().T).conj().T
    eta = rng.uniform(0.0, 1.0, size=channels)
    return MRep(np.sqrt(hbar * eta)[:, None] * rows, hbar=hbar)


def random_brep(rng: np.random.Generator, channels: int) -> BRep:
    """Random optical realization with uniform efficiencies and splittings."""
    return BRep(
        rng.uniform(0.0, 1.0, size=channels),
        haar_unitary(rng, channels),
        rng.uniform(0.0, 1.0, size=channels),
    )
