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
from functools import cached_property

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
from .reps import MRep, TRep, URep, _check_hbar, urep_split


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
        cs = _operator_stack(self.lindblads).copy()
        if cs.ndim != 3 or cs.shape[0] < 1 or cs.shape[1:] != (n, n):
            raise DimensionMismatchError(
                f"expected at least one {n} x {n} coupling operator, got shape {cs.shape}"
            )
        if np.linalg.norm(ham - ham.conj().T) > DEFAULT_TOL * max(
            1.0, float(np.linalg.norm(ham))
        ):
            raise NotHermitianError("hamiltonian is not Hermitian within tolerance")
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "lindblads", cs)
        object.__setattr__(self, "hbar", _check_hbar(self.hbar))

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
        d = np.zeros(n, dtype=complex)
        d[:l], d[l] = 1.0, -l
        mats.append(np.diag(d) / np.sqrt(l * (l + 1)))
    for j in range(n):
        for k in range(j + 1, n):
            pair = np.zeros((2, n, n), dtype=complex)
            pair[0, j, k] = pair[0, k, j] = 1.0 / np.sqrt(2.0)
            pair[1, j, k], pair[1, k, j] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
            mats.extend(pair)
    return np.array(mats)


# Largest dimension at which the engine tabulates superoperators.  On one core
# and one BLAS thread, stepping 16 to 50 trajectories, the tables are 1.5x
# faster than the products at d = 12, even at d = 16 (plus a 20 ms build of the
# RK4 polynomial), and 3x slower at d = 32.
_SUPEROPERATOR_MAX_DIM = 12


def _backaction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a x + x a^dag``, broadcast over stacks of operators ``a`` and matrices ``x``."""
    return a @ x + x @ a.conj().swapaxes(-1, -2)


def _traceless(lin: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The nonlinear update ``lin - Tr[lin] x`` of a (stack of) linear back-actions."""
    return lin - np.real(np.einsum("...ii->...", lin))[..., None, None] * x


def _operator_stack(ops) -> np.ndarray:
    cs = np.asarray(ops, dtype=complex)
    return cs[None] if cs.ndim == 2 else cs


class _Engine:
    """The generator and the back-action along ``ops`` of one model, built once.

    ``generator`` writes ``L x = (K x + x K^dag + sum_k c_k x c_k^dag) / hbar``,
    ``K = -i H - 1/2 sum_k c_k^dag c_k``.  Up to ``_SUPEROPERATOR_MAX_DIM`` both
    maps are tabulated on the d^2 unit matrices (row j holds the image of unit
    j, so row-vectorized stacks map as ``x @ table``) and an RK4 step is its
    exact polynomial ``I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24``.
    """

    def __init__(self, model: LindbladModel, ops: np.ndarray | None = None):
        n = self.dim = model.dim
        self.hbar = model.hbar
        self.cs = model.lindblads
        self.cs_dag = self.cs.conj().swapaxes(-1, -2)
        self.k = -1j * model.hamiltonian - 0.5 * np.sum(self.cs_dag @ self.cs, axis=0)
        self.ops = np.zeros((0, n, n), dtype=complex) if ops is None else ops
        self.tabulated = n <= _SUPEROPERATOR_MAX_DIM
        self._poly = (None, None)

    @cached_property
    def tables(self) -> tuple:
        """(generator, back-action along every op) as d^2 x d^2 and d^2 x J d^2 maps."""
        n2 = self.dim**2
        units = np.eye(n2, dtype=complex).reshape(n2, self.dim, self.dim)
        back = _backaction(self.ops, units[:, None]).reshape(n2, -1)
        return self.generator(units).reshape(n2, n2), back

    def generator(self, x: np.ndarray) -> np.ndarray:
        """drho/dt applied to a (stack of) matrices x."""
        jumps = np.sum(self.cs @ x[..., None, :, :] @ self.cs_dag, axis=-3)
        return (_backaction(self.k, x) + jumps) / self.hbar

    def rk4(self, x: np.ndarray, h: float) -> np.ndarray:
        """One classical fourth-order step of size h for a (stack of) matrices x."""
        if not self.tabulated:
            k1 = self.generator(x)
            k2 = self.generator(x + 0.5 * h * k1)
            k3 = self.generator(x + 0.5 * h * k2)
            k4 = self.generator(x + h * k3)
            return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if self._poly[0] != h:  # callers step many times with one h
            a = h * self.tables[0]
            p = np.eye(self.dim**2) + a / 4.0
            for j in (3.0, 2.0, 1.0):  # Horner form
                p = np.eye(self.dim**2) + (a @ p) / j
            self._poly = (h, p)
        return (x.reshape(-1, self.dim**2) @ self._poly[1]).reshape(x.shape)

    def propagate(self, x: np.ndarray, span: float, dt: float) -> np.ndarray:
        """x carried over ``span`` in equal RK4 steps of about dt."""
        steps = max(1, int(round(span / dt)))
        for _ in range(steps):
            x = self.rk4(x, span / steps)
        return x

    def backaction(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``sum_j w_j (a_j x + x a_j^dag)`` over ``ops`` for real weights w of shape (..., J)."""
        if not self.tabulated:
            return _backaction(np.tensordot(w, self.ops, axes=([-1], [0])), x)
        parts = (x.reshape(-1, self.dim**2) @ self.tables[1]).reshape(*w.shape, -1)
        return np.einsum("...j,...jk->...k", w, parts).reshape(x.shape)


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
    return _Engine(model).generator(rho)


def rk4_step(model: LindbladModel, x: np.ndarray, dt: float) -> np.ndarray:
    """One fourth-order step of the master equation applied to an arbitrary matrix."""
    return _Engine(model).rk4(np.asarray(x, dtype=complex), dt)


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
    engine = _Engine(model)
    out = np.empty((steps + 1, model.dim, model.dim), dtype=complex)
    out[0] = np.asarray(rho0, dtype=complex)
    rho = out[0]
    for m in range(steps):
        rho = engine.rk4(rho, dt)
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
    cs = _operator_stack(lindblads)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != cs.shape[1:]:
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match operators {cs.shape[1:]}"
        )
    v = _weights_to_complex(weights, cs.shape[0])
    a = np.tensordot(v, cs, axes=1)
    lin = _backaction(a, rho)
    return lin if linear else _traceless(lin, rho)


def measurement_ops(mrep: MRep, lindblads: np.ndarray) -> np.ndarray:
    """The 2L weighted coupling combinations addressed by each noise direction."""
    cs = _operator_stack(lindblads)
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
    a, b, rho_t = (np.asarray(op, dtype=complex) for op in (a, b, rho_t))
    n = model.dim
    for name, op in (("a", a), ("b", b), ("rho_t", rho_t)):
        if op.shape != (n, n):
            raise DimensionMismatchError(f"{name} must be {n} x {n}, got {op.shape}")
    x = rho_t @ a
    if tau > 0.0:
        x = _Engine(model).propagate(x, tau, dt)
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
    x = _backaction(xops, rho_t)
    engine = _Engine(model)
    out = np.empty((taus.size, yops.shape[0], yops.shape[0]))
    prev = 0.0
    for i, tau in enumerate(taus):
        x = engine.propagate(x, tau - prev, dt)
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
    updates = _traceless(_backaction(xops, rho), rho)
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
