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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EfficiencyOutOfRangeError,
    InternalInconsistencyError,
    InvalidEfficientPartError,
    NotL1Error,
    NotPSDError,
    OffBlockAsymmetricError,
    OffDiagonalError,
    SumNotInHError,
    ValidationError,
    ZeroMError,
)
from .linalg import DEFAULT_TOL, polar_decompose


def _check_hbar(hbar: float) -> float:
    hbar = float(hbar)
    if not np.isfinite(hbar) or hbar <= 0.0:
        raise ValidationError(f"hbar must be a positive real number, got {hbar}")
    return hbar


@dataclass(frozen=True)
class MRep:
    """Measurement matrix: L x 2L complex, with the action scale it is expressed in."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[1] != 2 * m.shape[0] or m.shape[0] < 1:
            raise DimensionMismatchError(
                f"measurement matrix must be L x 2L, got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise ValidationError("measurement matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "hbar", _check_hbar(self.hbar))

    @property
    def channels(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class TRep:
    """Stacked real/imaginary form of a measurement matrix: 2L x 2L real."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        t = np.array(self.matrix, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] % 2 or t.shape[0] < 2:
            raise DimensionMismatchError(
                f"stacked measurement matrix must be 2L x 2L, got shape {t.shape}"
            )
        if not np.all(np.isfinite(t)):
            raise ValidationError("stacked measurement matrix has non-finite entries")
        object.__setattr__(self, "matrix", t)
        object.__setattr__(self, "hbar", _check_hbar(self.hbar))

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
        u = np.array(self.matrix, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % 2 or u.shape[0] < 2:
            raise DimensionMismatchError(
                f"unravelling matrix must be 2L x 2L, got shape {u.shape}"
            )
        if not np.all(np.isfinite(u)):
            raise ValidationError("unravelling matrix has non-finite entries")
        object.__setattr__(self, "matrix", u)
        object.__setattr__(self, "hbar", _check_hbar(self.hbar))

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
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "mixing", s)
        object.__setattr__(self, "theta", theta)

    @property
    def channels(self) -> int:
        return self.eta.shape[0]


def validate_brep(brep: BRep, tol: float = DEFAULT_TOL) -> None:
    """Check efficiency/splitting ranges and unitarity of the mixing matrix."""
    for name, vec in (("eta", brep.eta), ("theta", brep.theta)):
        for k, v in enumerate(vec):
            if not (-tol <= v <= 1.0 + tol):
                raise EfficiencyOutOfRangeError(
                    f"{name}[{k}] = {v} falls outside [0, 1]"
                )
    L = brep.channels
    defect = np.linalg.norm(brep.mixing.conj().T @ brep.mixing - np.eye(L))
    if defect > tol * max(1.0, float(np.linalg.norm(brep.mixing)) ** 2):
        raise ValidationError(f"mixing matrix is not unitary (defect {defect:.3e})")


@dataclass(frozen=True)
class OrthoMatrix:
    """Orthogonal post-processing matrix applied to the current vector."""

    matrix: np.ndarray
    det_sign: int = field(default=0)

    def __post_init__(self):
        o = np.array(self.matrix, dtype=float)
        if o.ndim != 2 or o.shape[0] != o.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {o.shape}")
        object.__setattr__(self, "matrix", o)
        det = float(np.linalg.det(o))
        sign = 1 if det > 0 else -1
        if self.det_sign == 0:
            object.__setattr__(self, "det_sign", sign)
        elif self.det_sign != sign:
            raise ValidationError(
                f"det_sign {self.det_sign} contradicts det = {det:.3e}"
            )

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        o = self.matrix
        defect = np.linalg.norm(o.T @ o - np.eye(o.shape[0]))
        if defect > tol * max(1.0, float(np.linalg.norm(o)) ** 2):
            raise ValidationError(f"matrix is not orthogonal (defect {defect:.3e})")


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
    if m.ndim != 2 or m.shape[1] != 2 * m.shape[0]:
        raise DimensionMismatchError(f"measurement matrix must be L x 2L, got {m.shape}")
    hbar = _check_hbar(hbar)
    gram = m @ m.conj().T / hbar
    atol = tol * max(1.0, float(np.linalg.norm(gram)))
    diag = np.real(np.diagonal(gram)).copy()
    off = gram - np.diag(np.diagonal(gram))
    if off.size and np.max(np.abs(off)) > atol:
        j, k = np.unravel_index(int(np.argmax(np.abs(off))), off.shape)
        raise OffDiagonalError(
            f"channel gram matrix has off-diagonal entry ({j},{k}) = {gram[j, k]:.3e}"
        )
    for k, v in enumerate(diag):
        if not (-atol <= v <= 1.0 + atol):
            raise EfficiencyOutOfRangeError(f"efficiency[{k}] = {v} falls outside [0, 1]")
    return np.clip(diag, 0.0, 1.0)


def validate_urep(matrix: np.ndarray, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate an unravelling matrix and return its efficiency vector.

    Checks positive-semidefiniteness (which presumes symmetry), that the sum
    of the diagonal blocks is diagonal with entries in [0, 1], and that the
    off-diagonal blocks are equal.
    """
    u = np.asarray(matrix, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % 2:
        raise DimensionMismatchError(f"unravelling matrix must be 2L x 2L, got {u.shape}")
    _check_hbar(hbar)
    atol = tol * max(1.0, float(np.linalg.norm(u)))
    if np.linalg.norm(u - u.T) > atol:
        raise NotPSDError("unravelling matrix is not symmetric")
    w = np.linalg.eigvalsh((u + u.T) / 2.0)
    if w[0] < -atol:
        raise NotPSDError(f"unravelling matrix has eigenvalue {w[0]:.3e} below zero")
    L = u.shape[0] // 2
    u11, u12, u21, u22 = u[:L, :L], u[:L, L:], u[L:, :L], u[L:, L:]
    if np.linalg.norm(u12 - u21) > atol:
        raise OffBlockAsymmetricError("off-diagonal blocks of the unravelling matrix differ")
    s = u11 + u22
    off = s - np.diag(np.diagonal(s))
    if off.size and np.max(np.abs(off)) > atol:
        raise SumNotInHError("diagonal-block sum of the unravelling matrix is not diagonal")
    diag = np.diagonal(s).copy()
    for k, v in enumerate(diag):
        if not (-atol <= v <= 1.0 + atol):
            raise SumNotInHError(f"diagonal-block sum entry [{k}] = {v} falls outside [0, 1]")
    return np.clip(diag, 0.0, 1.0)


def validate_trep(matrix: np.ndarray, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a stacked real measurement matrix; returns the efficiency vector."""
    t = np.asarray(matrix, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] % 2:
        raise DimensionMismatchError(f"stacked matrix must be 2L x 2L, got {t.shape}")
    hbar = _check_hbar(hbar)
    L = t.shape[0] // 2
    t1, t2 = t[:L], t[L:]
    atol = tol * max(1.0, float(np.linalg.norm(t)) ** 2 / hbar)
    cross = t1 @ t2.T - t2 @ t1.T
    if cross.size and np.max(np.abs(cross)) > atol * hbar:
        raise OffBlockAsymmetricError("block cross products of the stacked matrix differ")
    return validate_mrep(t1 + 1j * t2, hbar=hbar, tol=tol)


# ---------------------------------------------------------------------------
# conversions


def mrep_to_trep(mrep: MRep) -> TRep:
    """Stack real and imaginary parts; exact (no arithmetic beyond copies)."""
    return TRep(np.vstack([mrep.matrix.real, mrep.matrix.imag]), hbar=mrep.hbar)


def trep_to_mrep(trep: TRep) -> MRep:
    """Recombine the stacked blocks into a complex matrix; exact inverse of stacking."""
    return MRep(trep.real_part + 1j * trep.imag_part, hbar=trep.hbar)


def mrep_trep(rep):
    """Toggle between the complex and the stacked-real measurement matrix forms."""
    if isinstance(rep, MRep):
        return mrep_to_trep(rep)
    if isinstance(rep, TRep):
        return trep_to_mrep(rep)
    raise TypeError(f"expected MRep or TRep, got {type(rep).__name__}")


def trep_to_urep(trep: TRep, tol: float = DEFAULT_TOL) -> URep:
    """Unravelling matrix of a stacked measurement matrix: t @ t.T / hbar."""
    u = trep.matrix @ trep.matrix.T / trep.hbar
    u = (u + u.T) / 2.0
    try:
        validate_urep(u, hbar=trep.hbar, tol=tol)
    except ValidationError as exc:
        raise InternalInconsistencyError(
            f"derived unravelling matrix fails validation: {exc}"
        ) from exc
    return URep(u, hbar=trep.hbar)


def mrep_to_urep(mrep: MRep, tol: float = DEFAULT_TOL) -> URep:
    """Unravelling matrix of a measurement matrix."""
    return trep_to_urep(mrep_to_trep(mrep), tol=tol)


def urep_split(urep: URep, tol: float = DEFAULT_TOL):
    """Split an unravelling matrix into (efficiency diagonal, complex correlation matrix).

    Returns ``(h, y)`` where ``h`` is the unclamped diagonal of the sum of the
    diagonal blocks and ``y`` is complex symmetric; reassembling with
    ``urep_assemble(h, y)`` reproduces the input exactly.
    """
    validate_urep(urep.matrix, hbar=urep.hbar, tol=tol)
    u11, u12, _, u22 = urep.blocks()
    h = np.diagonal(u11 + u22).copy()
    y = (u11 - u22) + 2j * u12
    return h, y


def urep_assemble(h: np.ndarray, y: np.ndarray, hbar: float = 1.0) -> URep:
    """Build the unravelling matrix with efficiency diagonal ``h`` and correlations ``y``."""
    h = np.asarray(h, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=complex)
    hm = np.diag(h)
    u = 0.5 * np.block([[hm + y.real, y.imag], [y.imag, hm - y.real]])
    return URep(u, hbar=hbar)


def trep_polar(trep: TRep, tol: float = DEFAULT_TOL):
    """Factor t = p @ o with p the positive root of t @ t.T and o orthogonal.

    Returns ``(p, ortho, unique)``; the factorization is unique exactly when
    the stacked matrix is invertible.
    """
    p, o, unique = polar_decompose(trep.matrix, tol=tol)
    return p, OrthoMatrix(o), unique


def brep_to_mrep(brep: BRep, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> MRep:
    """Measurement matrix realized by an optical block arrangement.

    The two column blocks carry the measured and conjugate quadrature
    couplings, scaled by the efficiencies and rotated by the mixing unitary.
    """
    validate_brep(brep, tol=tol)
    hbar = _check_hbar(hbar)
    rh = np.sqrt(hbar * np.clip(brep.eta, 0.0, 1.0))
    rq = np.sqrt(np.clip(brep.theta, 0.0, 1.0))
    rqb = np.sqrt(np.clip(1.0 - brep.theta, 0.0, 1.0))
    sd = brep.mixing.conj().T
    left = (rh[:, None] * sd) * rq[None, :]
    right = -1j * (rh[:, None] * sd) * rqb[None, :]
    return MRep(np.hstack([left, right]), hbar=hbar)


def brep_to_urep(brep: BRep, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> URep:
    """Unravelling matrix of an optical realization, from the explicit block formulas."""
    validate_brep(brep, tol=tol)
    hbar = _check_hbar(hbar)
    rh = np.diag(np.sqrt(np.clip(brep.eta, 0.0, 1.0)))
    q = np.diag(np.clip(brep.theta, 0.0, 1.0))
    qb = np.diag(np.clip(1.0 - brep.theta, 0.0, 1.0))
    sr = brep.mixing.real
    si = brep.mixing.imag
    u11 = rh @ (sr.T @ q @ sr + si.T @ qb @ si) @ rh
    u12 = rh @ (-sr.T @ q @ si + si.T @ qb @ sr) @ rh
    u21 = rh @ (-si.T @ q @ sr + sr.T @ qb @ si) @ rh
    u22 = rh @ (si.T @ q @ si + sr.T @ qb @ sr) @ rh
    u = np.block([[u11, u12], [u21, u22]])
    try:
        validate_urep(u, hbar=hbar, tol=max(tol, 1e-12))
    except ValidationError as exc:
        raise InternalInconsistencyError(
            f"unravelling matrix derived from the block realization fails validation: {exc}"
        ) from exc
    return URep(u, hbar=hbar)


def brep_o_to_mrep(
    brep: BRep, ortho: OrthoMatrix, hbar: float = 1.0, tol: float = DEFAULT_TOL
) -> MRep:
    """Measurement matrix of an optical realization followed by current post-processing."""
    base = brep_to_mrep(brep, hbar=hbar, tol=tol)
    if ortho.matrix.shape != (2 * brep.channels, 2 * brep.channels):
        raise DimensionMismatchError(
            f"post-processing matrix must be {2 * brep.channels} x {2 * brep.channels},"
            f" got {ortho.matrix.shape}"
        )
    ortho.validate(tol=tol)
    return MRep(base.matrix @ ortho.matrix, hbar=hbar)


# ---------------------------------------------------------------------------
# standard measurement constructors


def homodyne_mrep(eta: float, phase: float = 0.0, hbar: float = 1.0) -> MRep:
    """Single-channel homodyne detection of one quadrature at the given phase."""
    hbar = _check_hbar(hbar)
    if not (0.0 <= eta <= 1.0):
        raise EfficiencyOutOfRangeError(f"efficiency {eta} falls outside [0, 1]")
    amp = np.sqrt(hbar * eta) * np.exp(-1j * phase)
    return MRep(np.array([[amp, 0.0]]), hbar=hbar)


def heterodyne_mrep(eta: float, hbar: float = 1.0) -> MRep:
    """Single-channel heterodyne detection, realized as a balanced dual homodyne."""
    hbar = _check_hbar(hbar)
    if not (0.0 <= eta <= 1.0):
        raise EfficiencyOutOfRangeError(f"efficiency {eta} falls outside [0, 1]")
    amp = np.sqrt(hbar * eta / 2.0)
    return MRep(np.array([[amp, 1j * amp]]), hbar=hbar)


def custom_efficiency_mrep(
    efficient_part: np.ndarray, eta: np.ndarray, hbar: float = 1.0, tol: float = DEFAULT_TOL
) -> MRep:
    """Scale a unit-efficiency measurement matrix by per-channel efficiencies.

    ``efficient_part`` must satisfy ``m' @ m'^dag = hbar * identity``.
    """
    hbar = _check_hbar(hbar)
    mp = np.asarray(efficient_part, dtype=complex)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if mp.ndim != 2 or mp.shape != (eta.shape[0], 2 * eta.shape[0]):
        raise DimensionMismatchError(
            f"unit-efficiency factor must be L x 2L with L = len(eta), got {mp.shape}"
        )
    for k, v in enumerate(eta):
        if not (0.0 <= v <= 1.0):
            raise EfficiencyOutOfRangeError(f"eta[{k}] = {v} falls outside [0, 1]")
    gram = mp @ mp.conj().T / hbar
    if np.linalg.norm(gram - np.eye(eta.shape[0])) > tol * max(1.0, float(np.linalg.norm(gram))):
        raise InvalidEfficientPartError(
            "the unit-efficiency factor must have orthonormal rows at scale sqrt(hbar)"
        )
    return MRep(np.sqrt(eta)[:, None] * mp, hbar=hbar)


def efficient_decomposition(mrep: MRep, tol: float = DEFAULT_TOL):
    """Factor a measurement matrix into efficiencies times a unit-efficiency part.

    Returns ``(eta, efficient_part, dark)`` with ``sqrt(eta)[:, None] *
    efficient_part == matrix`` on channels with ``eta > tol``.  Channels with
    vanishing efficiency are flagged in ``dark``; their rows carry no signal,
    so the unit-efficiency rows are completed deterministically: the
    single-quadrature row for that channel, orthogonalized against the other
    rows (falling back to the next basis direction if it is not independent).
    """
    eta = validate_mrep(mrep.matrix, hbar=mrep.hbar, tol=tol)
    L = mrep.channels
    hbar = mrep.hbar
    dark = eta <= tol
    mp = np.zeros((L, 2 * L), dtype=complex)
    live = [k for k in range(L) if not dark[k]]
    for k in live:
        mp[k] = mrep.matrix[k] / np.sqrt(eta[k])
    rows = [mp[k] for k in live]
    for k in range(L):
        if not dark[k]:
            continue
        chosen = None
        for j in list(range(k, 2 * L)) + list(range(k)):
            cand = np.zeros(2 * L, dtype=complex)
            cand[j] = np.sqrt(hbar)
            for r in rows:
                cand = cand - r * (np.vdot(r, cand) / np.vdot(r, r))
            if np.linalg.norm(cand) > np.sqrt(hbar) * 1e-6:
                chosen = cand * (np.sqrt(hbar) / np.linalg.norm(cand))
                break
        if chosen is None:
            raise InternalInconsistencyError(
                "could not complete the unit-efficiency rows (should be unreachable)"
            )
        mp[k] = chosen
        rows.append(chosen)
    return eta, mp, dark


# ---------------------------------------------------------------------------
# single-channel factorization into (realization, post-processing)


def factor_theta(r: float, phi: float) -> float:
    """Quadrature splitting consistent with a squared modulus ratio ``r`` at angle ``phi``."""
    c2, s2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    return (r * c2 - s2) / ((r + 1.0) * (c2 - s2))


def factor_phase_gap(r: float, phi: float, det_sign: int = 1) -> float:
    """Phase difference between the two measurement-matrix entries at angle ``phi``.

    ``det_sign`` selects the sign of the post-processing rotation determinant.
    """
    theta = min(max(factor_theta(r, phi), 0.0), 1.0)
    sg = 1.0 if det_sign >= 0 else -1.0
    rt, rtb = np.sqrt(theta), np.sqrt(1.0 - theta)
    top = rt * np.cos(phi) + 1j * sg * rtb * np.sin(phi)
    bot = rt * np.sin(phi) - 1j * sg * rtb * np.cos(phi)
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
        return brep, OrthoMatrix(np.eye(2), 1)
    if abs(m1) <= cut:
        brep = BRep([eta], [[np.exp(-1j * np.angle(m2))]], [1.0])
        return brep, OrthoMatrix(_rotation(np.pi / 2.0), 1)
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
    return brep, OrthoMatrix(o, det_sign)


# ---------------------------------------------------------------------------
# random sampling helpers (used by the self-check suite and the tests)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    qmat, rmat = np.linalg.qr(z)
    ph = np.diagonal(rmat).copy()
    ph = ph / np.abs(ph)
    return qmat * ph[None, :]


def random_orthogonal(rng: np.random.Generator, n: int) -> OrthoMatrix:
    """Haar-distributed real orthogonal matrix (either determinant sign)."""
    z = rng.normal(size=(n, n))
    qmat, rmat = np.linalg.qr(z)
    sgn = np.sign(np.diagonal(rmat))
    sgn[sgn == 0.0] = 1.0
    return OrthoMatrix(qmat * sgn[None, :])


def random_mrep(rng: np.random.Generator, channels: int, hbar: float = 1.0) -> MRep:
    """Random valid measurement matrix: random efficiencies times orthonormal rows."""
    z = rng.normal(size=(channels, 2 * channels)) + 1j * rng.normal(size=(channels, 2 * channels))
    qmat, rmat = np.linalg.qr(z.conj().T)
    ph = np.diagonal(rmat).copy()
    ph = ph / np.abs(ph)
    rows = (qmat * ph[None, :]).conj().T
    eta = rng.uniform(0.0, 1.0, size=channels)
    return MRep(np.sqrt(hbar * eta)[:, None] * rows, hbar=hbar)


def random_brep(rng: np.random.Generator, channels: int) -> BRep:
    """Random optical realization with uniform efficiencies and splittings."""
    return BRep(
        rng.uniform(0.0, 1.0, size=channels),
        haar_unitary(rng, channels),
        rng.uniform(0.0, 1.0, size=channels),
    )
