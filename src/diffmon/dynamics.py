"""Deterministic open-system machinery.

Implements the Lindblad generator and a fixed-step fourth-order integrator
for the master equation, the measurement back-action superoperators, two-time
correlation functions via quantum regression, the predicted current
autocorrelation of a monitored system, and the diffusion-matrix
characterization that identifies equivalent monitorings.

Convention: the generator is scaled so that ``hbar * drho/dt = L rho``; all
propagation routines integrate ``drho/dt``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NoCompatibleTError,
    NonPositiveLagError,
    NotHermitianError,
    StateInvalidError,
    ValidationError,
)
from .linalg import DEFAULT_TOL, positive_sqrt, pseudo_inverse
from .reps import MRep, TRep, URep, urep_split


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus a vector of coupling (Lindblad) operators on one Hilbert space."""

    hamiltonian: np.ndarray
    lindblads: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        ham = np.array(self.hamiltonian, dtype=complex)
        if ham.ndim != 2 or ham.shape[0] != ham.shape[1]:
            raise DimensionMismatchError(f"hamiltonian must be square, got {ham.shape}")
        n = ham.shape[0]
        cs = np.array(self.lindblads, dtype=complex)
        if cs.ndim == 2:
            cs = cs[None]
        if cs.ndim != 3 or cs.shape[0] < 1 or cs.shape[1:] != (n, n):
            raise DimensionMismatchError(
                f"expected at least one {n} x {n} coupling operator, got shape {cs.shape}"
            )
        if np.linalg.norm(ham - ham.conj().T) > DEFAULT_TOL * max(
            1.0, float(np.linalg.norm(ham))
        ):
            raise NotHermitianError("hamiltonian is not Hermitian within tolerance")
        hbar = float(self.hbar)
        if not np.isfinite(hbar) or hbar <= 0.0:
            raise ValidationError(f"hbar must be a positive real number, got {hbar}")
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "lindblads", cs)
        object.__setattr__(self, "hbar", hbar)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def channels(self) -> int:
        return self.lindblads.shape[0]


def check_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Raise unless rho is Hermitian, unit trace, and PSD within tolerance."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"state must be a square matrix, got {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > tol * max(1.0, float(np.linalg.norm(rho))):
        raise NotHermitianError("state is not Hermitian within tolerance")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > max(tol, 1e-12):
        raise ValidationError(f"state trace is {tr}, expected 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w[0] < -max(tol, 1e-12):
        raise StateInvalidError(f"state has eigenvalue {w[0]:.3e} below zero")


def purity(rho: np.ndarray) -> float:
    rho = np.asarray(rho)
    return float(np.real(np.einsum("...ij,...ji->...", rho, rho)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of the (Hermitian) difference."""
    d = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    d = (d + d.conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(d))))


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal Hermitian operator basis (generalized Gell-Mann plus identity).

    Ordered deterministically: identity / sqrt(n), then the diagonal
    generators, then for each pair j < k the symmetric and antisymmetric
    off-diagonal generators.  Tr[e_j e_k] = delta_jk.
    """
    mats = [np.eye(n, dtype=complex) / np.sqrt(n)]
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        for m in range(l):
            d[m, m] = 1.0
        d[l, l] = -l
        mats.append(d / np.sqrt(l * (l + 1)))
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(s)
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = -1j / np.sqrt(2.0)
            a[k, j] = 1j / np.sqrt(2.0)
            mats.append(a)
    return np.array(mats)


def _dissipator_sum(cs: np.ndarray, cdc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum of dissipators applied to a (stack of) matrices x."""
    jump = np.einsum("kab,...bc,kdc->...ad", cs, x, cs.conj())
    return jump - 0.5 * (cdc @ x + x @ cdc)


def liouvillian_apply(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation, drho/dt (Hermitian and traceless).

    Accepts a single matrix or a stack; the same linear map is applied to any
    operator, which is what the regression machinery relies on.
    """
    rho = np.asarray(rho, dtype=complex)
    n = model.dim
    if rho.shape[-2:] != (n, n):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match dimension {n}"
        )
    return _Propagator(model).rhs(rho)


class _Propagator:
    """Precomputed master-equation right-hand side with a classical RK4 step."""

    def __init__(self, model: LindbladModel):
        self.hbar = model.hbar
        self.ham = model.hamiltonian
        self.cs = model.lindblads
        self.cdc = np.einsum("kba,kbc->ac", self.cs.conj(), self.cs)

    def rhs(self, x: np.ndarray) -> np.ndarray:
        out = -1j * (self.ham @ x - x @ self.ham) + _dissipator_sum(self.cs, self.cdc, x)
        return out / self.hbar

    def rk4(self, x: np.ndarray, dt: float) -> np.ndarray:
        k1 = self.rhs(x)
        k2 = self.rhs(x + 0.5 * dt * k1)
        k3 = self.rhs(x + 0.5 * dt * k2)
        k4 = self.rhs(x + dt * k3)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(model: LindbladModel, x: np.ndarray, dt: float) -> np.ndarray:
    """One fourth-order step of the master equation applied to an arbitrary matrix."""
    return _Propagator(model).rk4(np.asarray(x, dtype=complex), dt)


def me_integrate(
    model: LindbladModel,
    rho0: np.ndarray,
    dt: float,
    steps: int,
    positivity_tol: float = 1e-6,
) -> np.ndarray:
    """Integrate the master equation; returns states at all steps+1 grid points.

    Each output state is Hermitized and renormalized; positivity is monitored
    and a violation beyond ``positivity_tol`` raises ``StateInvalidError``
    rather than being silently repaired.
    """
    check_density_matrix(rho0)
    if dt <= 0.0 or steps < 0:
        raise ValidationError("dt must be positive and steps non-negative")
    prop = _Propagator(model)
    out = np.empty((steps + 1, model.dim, model.dim), dtype=complex)
    out[0] = np.asarray(rho0, dtype=complex)
    rho = out[0]
    for m in range(steps):
        rho = prop.rk4(rho, dt)
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / np.real(np.trace(rho))
        wmin = float(np.linalg.eigvalsh(rho)[0])
        if wmin < -positivity_tol:
            raise StateInvalidError(
                f"positivity lost at step {m + 1}: min eigenvalue {wmin:.3e}"
            )
        out[m + 1] = rho
    return out


# ---------------------------------------------------------------------------
# measurement back-action


def _weights_to_complex(weights: np.ndarray, channels: int) -> np.ndarray:
    w = np.asarray(weights)
    if w.shape == (channels,):
        return w.astype(complex)
    if w.shape == (2 * channels,) and np.isrealobj(w):
        return w[:channels] - 1j * w[channels:]
    raise DimensionMismatchError(
        f"weights must be a complex vector of length {channels} or a real vector of"
        f" length {2 * channels}, got shape {w.shape}"
    )


def backaction_apply(
    weights: np.ndarray,
    lindblads: np.ndarray,
    rho: np.ndarray,
    linear: bool = False,
) -> np.ndarray:
    """Measurement back-action update for a weighted combination of couplings.

    With combination A, the linear form returns ``A rho + rho A^dag``; the
    nonlinear form subtracts ``Tr[A rho + rho A^dag] rho`` and is traceless.
    A real weight vector of length 2L addresses the doubled (quadrature)
    direction set; its second half weights the couplings times -i.
    """
    cs = np.asarray(lindblads, dtype=complex)
    if cs.ndim == 2:
        cs = cs[None]
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != cs.shape[1:]:
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match operators {cs.shape[1:]}"
        )
    v = _weights_to_complex(weights, cs.shape[0])
    a = np.tensordot(v, cs, axes=1)
    lin = a @ rho + rho @ a.conj().T
    if linear:
        return lin
    return lin - np.real(np.trace(lin)) * rho


def measurement_ops(mrep: MRep, lindblads: np.ndarray) -> np.ndarray:
    """The 2L weighted coupling combinations addressed by each noise direction."""
    cs = np.asarray(lindblads, dtype=complex)
    if cs.ndim == 2:
        cs = cs[None]
    if cs.shape[0] != mrep.channels:
        raise DimensionMismatchError(
            f"measurement matrix has {mrep.channels} channels, model has {cs.shape[0]}"
        )
    return np.einsum("mj,mab->jab", mrep.matrix.conj(), cs)


# ---------------------------------------------------------------------------
# two-time correlations


def regression_correlation(
    model: LindbladModel,
    a: np.ndarray,
    b: np.ndarray,
    rho_t: np.ndarray,
    tau: float,
    dt: float = 1e-3,
) -> complex:
    """Two-time average <A(t) B(t+tau)> by quantum regression.

    Propagates the (generally non-Hermitian) matrix ``rho_t @ a`` with the
    master-equation stepper for a lag ``tau >= 0`` and traces against ``b``.
    """
    if tau < 0.0:
        raise NonPositiveLagError("regression requires tau >= 0")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rho_t = np.asarray(rho_t, dtype=complex)
    n = model.dim
    for name, op in (("a", a), ("b", b), ("rho_t", rho_t)):
        if op.shape != (n, n):
            raise DimensionMismatchError(f"{name} must be {n} x {n}, got {op.shape}")
    x = rho_t @ a
    if tau > 0.0:
        prop = _Propagator(model)
        steps = max(1, int(round(tau / dt)))
        h = tau / steps
        for _ in range(steps):
            x = prop.rk4(x, h)
    return complex(np.trace(b @ x))


def predicted_autocorrelation(
    model: LindbladModel,
    mrep: MRep,
    rho_t: np.ndarray,
    taus: np.ndarray,
    dt: float = 1e-3,
) -> np.ndarray:
    """Predicted two-time current correlation matrices, scaled by hbar squared.

    For each lag in the strictly increasing, strictly positive grid ``taus``,
    returns the 2L x 2L real matrix whose (a, b) entry is the regression trace
    pairing noise direction ``a`` at the earlier time with direction ``b`` a
    lag tau later.  Dividing by hbar**2 gives the correlation of the measured
    current itself; the singular equal-time term is never evaluated, which is
    why zero lag is rejected.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    if taus.size == 0:
        return np.zeros((0, 2 * mrep.channels, 2 * mrep.channels))
    if np.any(taus <= 0.0):
        raise NonPositiveLagError("all lags must be strictly positive")
    if np.any(np.diff(taus) <= 0.0):
        raise ValidationError("lags must be strictly increasing")
    xops = measurement_ops(mrep, model.lindblads)
    yops = xops + xops.conj().transpose(0, 2, 1)
    rho_t = np.asarray(rho_t, dtype=complex)
    x = xops @ rho_t + rho_t @ xops.conj().transpose(0, 2, 1)
    prop = _Propagator(model)
    out = np.empty((taus.size, yops.shape[0], yops.shape[0]))
    prev = 0.0
    for i, tau in enumerate(taus):
        span = tau - prev
        steps = max(1, int(round(span / dt)))
        h = span / steps
        for _ in range(steps):
            x = prop.rk4(x, h)
        corr = np.einsum("bij,aji->ab", yops, x)
        imag = float(np.max(np.abs(corr.imag), initial=0.0))
        if imag > max(1e-10, 1e-10 * float(np.max(np.abs(corr.real), initial=0.0))):
            raise InternalInconsistencyError(
                f"correlation matrix has imaginary part {imag:.3e}"
            )
        out[i] = corr.real
        prev = tau
    return out


# ---------------------------------------------------------------------------
# diffusion characterization and the correlation-matrix current


def diffusion_matrix(
    model: LindbladModel,
    mrep: MRep,
    rho: np.ndarray,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Diffusion matrix of the vectorized conditioned state.

    The state components are taken in an orthonormal Hermitian operator
    basis; the columns of the noise-coefficient matrix are the back-action
    updates along each of the 2L noise directions.  Equal diffusion matrices
    mean the two measurement matrices generate the same unravelling.
    """
    rho = np.asarray(rho, dtype=complex)
    n = model.dim
    if rho.shape != (n, n):
        raise DimensionMismatchError(f"state must be {n} x {n}, got {rho.shape}")
    if basis is None:
        basis = hermitian_basis(n)
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (n * n, n, n):
        raise DimensionMismatchError(
            f"operator basis must have shape {(n * n, n, n)}, got {basis.shape}"
        )
    xops = measurement_ops(mrep, model.lindblads)
    lin = xops @ rho + rho @ xops.conj().transpose(0, 2, 1)
    traces = np.real(np.einsum("jii->j", lin))
    updates = lin - traces[:, None, None] * rho
    bmat = np.real(np.einsum("kij,aji->ka", basis, updates))
    return bmat @ bmat.T


def urep_current_mean(
    model: LindbladModel,
    urep: URep,
    rho: np.ndarray,
    trep: TRep | None = None,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Mean measured current derived through the correlation-matrix description.

    Builds the complex channel current from the efficiency and correlation
    split, stacks real and imaginary parts, and maps back to the 2L real
    current through the pseudoinverse of a compatible stacked measurement
    matrix (the positive root of hbar times the unravelling matrix unless one
    is supplied).  The result equals the mean current of the measurement
    matrix built from that same factor.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise DimensionMismatchError(
            f"state must be {model.dim} x {model.dim}, got {rho.shape}"
        )
    if model.channels != urep.channels:
        raise DimensionMismatchError(
            f"model has {model.channels} channels, unravelling matrix {urep.channels}"
        )
    h, y = urep_split(urep, tol=tol)
    if trep is None:
        tmat = positive_sqrt(urep.hbar * urep.matrix, tol=tol)
    else:
        tmat = trep.matrix
    defect = np.linalg.norm(tmat @ tmat.T - urep.hbar * urep.matrix)
    if defect > max(tol, tol * urep.hbar * float(np.linalg.norm(urep.matrix))):
        raise NoCompatibleTError(
            f"factor does not reproduce the unravelling matrix (defect {defect:.3e})"
        )
    cbar = np.einsum("kab,ba->k", model.lindblads, rho)
    j = h * cbar + y @ cbar.conj()
    stacked = np.concatenate([j.real, j.imag])
    return pseudo_inverse(tmat, tol=tol) @ stacked
