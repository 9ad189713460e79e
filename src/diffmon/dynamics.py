"""Deterministic open-system machinery.

Implements the Lindblad generator and a fixed-step fourth-order integrator
for the master equation, the measurement back-action tables, two-time
correlation functions via quantum regression, and, on the measured engine's
back-action and mean-current rows, the predicted current autocorrelation of
a monitored system and the diffusion-matrix characterization that identifies
equivalent monitorings.

Convention: the generator is scaled so that ``hbar * drho/dt = L rho``; all
propagation routines integrate ``drho/dt``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoCompatibleTError,
    NonPositiveLagError,
    NotHermitianError,
    StateInvalidError,
    ValidationError,
    check_dt,
    is_integer,
)
from .linalg import DEFAULT_TOL, frobenius, positive_sqrt, pseudo_inverse
from .reps import MRep, TRep, URep, _check_hbar, _overflow_guard, urep_split


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus a vector of coupling (Lindblad) operators on one Hilbert space."""

    hamiltonian: np.ndarray
    lindblads: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        ham = _operator(self.hamiltonian, None, "hamiltonian")
        n = len(ham)
        cs = _operator_stack(self.lindblads)
        cs = _operator(cs, n, "coupling operators", hermitian=False, stack=True)
        if cs.ndim != 3 or not len(cs):
            raise DimensionMismatchError(
                f"expected at least one {n} x {n} coupling operator, got shape {cs.shape}"
            )
        ham, cs = _frozen(ham.copy(), cs.copy())  # read-only: the cached engine must never go stale
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "lindblads", cs)
        object.__setattr__(self, "hbar", _check_hbar(self.hbar))

    @cached_property
    def engine(self) -> _Engine:
        """The model's one engine (generator tables, RK4 polynomial), built at first use."""
        return _Engine(self)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def channels(self) -> int:
        return self.lindblads.shape[0]


def _operator(x, n: int | None, what: str, hermitian=True, tol=DEFAULT_TOL, stack=False):
    """x as a complex array, once it is one n x n matrix (any square one for n None, a stack
    (..., n, n) with ``stack``) of finite entries, Hermitian within ``tol max(1, |x|)`` when
    ``hermitian``: the one check of every state and operator an entry point takes.

    Raises ``DimensionMismatchError``, ``ValidationError`` or ``NotHermitianError``.
    """
    x = np.asarray(x, dtype=complex)
    square = x.ndim >= 2 and x.shape[-1] == x.shape[-2] if n is None else x.shape[-2:] == (n, n)
    if not square or x.ndim > 2 and not stack:
        shape = "a square matrix" if n is None else f"{n} x {n}"
        raise DimensionMismatchError(f"{what} must be {shape}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError(f"non-finite entry in the {what}")
    if hermitian:
        norm = frobenius(x)
        with _overflow_guard(norm):  # huge finite entries overflow the difference
            skew = frobenius(x - x.conj().swapaxes(-1, -2))
        if skew > tol * max(1.0, norm):
            verb = "are" if stack else "is"
            raise NotHermitianError(f"{what} {verb} not Hermitian within tolerance")
    return x


def check_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Raise unless rho is Hermitian, unit trace, and PSD within tolerance."""
    rho = _operator(rho, None, "state", tol=tol)
    with np.errstate(over="ignore"):  # huge finite entries overflow the trace
        tr = complex(np.trace(rho))
    if abs(tr - 1.0) > max(tol, 1e-12):
        raise ValidationError(f"state trace is {tr}, expected 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w[0] < -max(tol, 1e-12):
        raise StateInvalidError(f"state has eigenvalue {w[0]:.3e} below zero")


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) of one state, the real part for a matrix that is not Hermitian."""
    rho = _operator(rho, None, "state", hermitian=False)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or inf - inf
        p = float(np.real(np.einsum("ij,ji->", rho, rho)))
    if not math.isfinite(p):
        raise ValidationError("the state's purity is not finite")
    return p


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of the (Hermitian) difference of two states."""
    a = _operator(a, None, "state", hermitian=False)
    d = a - _operator(b, len(a), "state", hermitian=False)
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


# Largest dimension whose tables are dense arrays, CSR above.  Per SME step of 16
# trajectories (one x86-64 core and BLAS thread), CSR takes 1.1x, 0.4x and 0.2x the dense
# time at d = 8, 12 and 16 for a damped Kerr cavity, 3.7x, 2.7x and 2.1x for a dense model.
_SUPEROPERATOR_MAX_DIM = 12


def _table_kit(n: int) -> tuple:
    """(eye, kron, block) making the tables of dimension n: dense, or CSR above the limit."""
    if n <= _SUPEROPERATOR_MAX_DIM:  # np.kron's products and np.block's copies, faster
        kron = lambda a, b: np.multiply.outer(a, b).swapaxes(1, 2).reshape(n * n, -1)  # noqa: E731
        return np.eye, kron, lambda rows: np.concatenate([np.concatenate(r, axis=1) for r in rows])
    import scipy.sparse as sp  # about 0.25 s, paid by no model at or below the limit

    # A sparse array: sp.kron of two dense operands gives a sparse matrix, whose * multiplies.
    kron = lambda a, b: sp.kron(sp.csr_array(a), b, format="csr")  # noqa: E731
    return partial(sp.eye_array, format="csr"), kron, partial(sp.block_array, format="csr")


def _physical_memory() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return np.inf


def _check_memory(need: float, what: str) -> None:
    """Refuse ``need`` bytes of ``what`` beyond the machine's physical memory."""
    if need > (limit := _physical_memory()):
        raise ValidationError(
            f"{what} need {need / 2**30:.3g} GiB, more than the"
            f" {limit / 2**30:.3g} GiB of physical memory"
        )


def _frozen(*arrays: np.ndarray) -> tuple:
    """The arrays, read-only: cached tables are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _coordinate_slots(n: int) -> tuple:
    """Index tables between coordinates and the flat float view of complex n x n matrices.

    ``slot[k]`` is where coordinate k sits and ``mirror[k]`` its mirror entry,
    of sign ``sign[k]``: ``Re x_ii`` is its own mirror, ``Re x_ij`` mirrors
    ``Re x_ji`` and ``Im x_ij`` mirrors ``-Im x_ji``.  ``source[s]`` is the
    coordinate that float slot s holds, up to the sign ``source_sign[s]``
    (0 on the imaginary parts of the diagonal).
    """
    iu, ju = np.triu_indices(n, 1)
    diag = 2 * np.arange(n) * (n + 1)
    up, low = 2 * (iu * n + ju), 2 * (ju * n + iu)
    slot = np.concatenate([diag, up, up + 1])
    mirror = np.concatenate([diag, low, low + 1])
    sign = np.concatenate([np.ones(n + iu.size), -np.ones(iu.size)])
    source, source_sign = np.zeros(2 * n * n, dtype=np.intp), np.zeros(2 * n * n)
    source[mirror], source_sign[mirror] = np.arange(n * n), sign
    source[slot], source_sign[slot] = np.arange(n * n), 1.0
    return _frozen(slot, mirror, sign, source, source_sign)


def _gather(x: np.ndarray) -> np.ndarray:
    """Real coordinates ``(x_ii ; Re x_ij ; Im x_ij, i < j)`` of the Hermitian part of x.

    Maps stacks (..., d, d) to (..., d^2); on a Hermitian x the coordinates
    are exact copies of its entries.
    """
    n = x.shape[-1]
    flat = np.ascontiguousarray(x, dtype=complex).view(np.float64)
    flat = flat.reshape(*x.shape[:-2], 2 * n * n)
    slot, mirror, sign, _, _ = _coordinate_slots(n)
    g = np.take(flat, slot, axis=-1)
    g += sign * np.take(flat, mirror, axis=-1)
    g *= 0.5
    return g


def _scatter(g: np.ndarray) -> np.ndarray:
    """The Hermitian matrices with real coordinates g, the inverse of ``_gather``.

    For finite g they are exactly Hermitian.
    """
    n = math.isqrt(g.shape[-1])
    _, _, _, source, source_sign = _coordinate_slots(n)
    flat = np.take(g, source, axis=-1)
    flat *= source_sign
    return flat.view(complex).reshape(*g.shape[:-1], n, n)


def _coordinate_table(n: int, maps: list, scale: float = 1.0):
    """Tables of ``vec x -> sum kron(a, b) vec x / scale`` (``kron(a, b^T)`` is ``x -> a x b``),
    one per list of pairs (a, b) in maps, stacked.  Row k is the image of unit k: u_k at flat
    entry p_k, v_k at q_k, read as ``_gather`` does: ``Re(conj(u_k) (y_p + sign_k y_q)) / 2``."""
    # Checked before any is built: a table has at most d^4 entries and four per Kronecker
    # entry, each held twice (again in P_h or the step table), 16 bytes with CSR's index.
    nnz = [sum(np.count_nonzero(a) * np.count_nonzero(b) for a, b in t) for t in maps]
    _check_memory(16 * sum(min(n**4, 4 * e) for e in nnz), "the model's tables")
    kron, block = _table_kit(n)[1:]
    slot, mirror, sign, _, _ = _coordinate_slots(n)
    p, q = slot // 2, mirror // 2
    u = np.where(slot % 2, 1j, 1.0)  # odd float slots are imaginary parts
    v = sign * u * (np.arange(n * n) >= n)  # a diagonal unit is one entry
    at, k = n * n * np.arange(len(maps))[:, None], len(maps)
    with np.errstate(over="ignore", invalid="ignore"):  # built once, and refused if not finite
        m = block([[sum(kron(a, b) for a, b in terms) for terms in maps]])  # side by side
        y = m[:, (at + p).ravel()] * np.tile(u, k) + m[:, (at + q).ravel()] * np.tile(v, k)
        y = y / scale
        z = y[p] * (0.5 * u.conj())[:, None] + y[q] * (0.5 * sign * u.conj())[:, None]
        table = z.real.T.copy()
        if not math.isfinite(table.sum()):
            raise ValidationError("the model's generator or back-action table is not finite")
    return table


@lru_cache(maxsize=None)
def _coordinate_weights(n: int) -> tuple:
    """Weights on coordinates g: ``Tr x = g @ t`` and ``Tr x^2 = g^2 @ p``."""
    t, p = np.zeros(n * n), np.full(n * n, 2.0)
    t[:n] = p[:n] = 1.0
    return _frozen(t, p)


def _trace(g: np.ndarray) -> np.ndarray:
    """Trace of the Hermitian matrices with real coordinates g (..., d^2)."""
    return g @ _coordinate_weights(math.isqrt(g.shape[-1]))[0]


def _purity(g: np.ndarray) -> np.ndarray:
    """Tr x^2 of the Hermitian matrices with real coordinates g (..., d^2)."""
    return np.square(g) @ _coordinate_weights(math.isqrt(g.shape[-1]))[1]


def _operator_stack(ops) -> np.ndarray:
    cs = np.asarray(ops, dtype=complex)
    return cs[None] if cs.ndim == 2 else cs


class _Engine:
    """The generator and the back-action along ``ops`` of one model, built once.

    The generator ``L x = (K x + x K^dag + sum_k c_k x c_k^dag) / hbar``,
    ``K = -i H - 1/2 sum_k c_k^dag c_k``, and the back-action ``a x + x a^dag`` are
    real-linear maps of the d^2 coordinates of ``_gather``, tabulated from their Kronecker
    forms, and an RK4 step is the polynomial ``I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24``.
    Every d steps alike; tables are dense up to ``_SUPEROPERATOR_MAX_DIM``, CSR above.
    SME steps take states as columns (d^2, n).

    A measured engine tabulates the back-action along the ops ``kept`` only, r of the J
    ops, the others being ``a_j = sum_k R_jk a_kept[k]`` with ``rt = R^T`` (r, J): the step
    runs along the increments ``R^T w``, while ``ops``, the mean currents and the records
    keep all J.  The model's engine (no ops) holds the generator table and polynomial.
    """

    def __init__(self, model: LindbladModel, ops: np.ndarray | None = None, kept=None, rt=None):
        self.dim = model.dim
        self.hbar = model.hbar
        self.model = model
        self.ops = ops
        self.kept = kept
        self.rt = rt
        self.base = self if ops is None else model.engine  # holds the generator table and poly
        self._poly = self._sme = (None, None)  # (step size, table) of the last h
        self._measured = (None, None)  # (key, engine) of the last measurement paired

    @cached_property
    def tables(self) -> tuple:
        """(generator, back-action along each kept op stacked) on coordinates: d^2 x d^2,
        r d^2 x d^2."""
        n, one = self.dim, np.eye(self.dim)
        if self.base is not self:
            back = [[(a, one), (one, a.conj())] for a in self.ops[self.kept]]
            return self.base.tables[0], _coordinate_table(n, back)
        cs, norm = self.model.lindblads, frobenius(self.model.lindblads)
        with _overflow_guard(norm * norm):
            rates = np.sum(cs.conj().swapaxes(-1, -2) @ cs, axis=0)
        if not np.isfinite(rates).all():
            raise ValidationError("the model's rates sum_k c_k^dag c_k are not finite")
        k = -1j * self.model.hamiltonian - 0.5 * rates
        generator = [(k, one), (one, k.conj()), *zip(cs, cs.conj())]
        return _coordinate_table(n, [generator], self.hbar), None

    def poly(self, h: float):
        """The RK4 step of size h as a d^2 x d^2 map of coordinates, kept by the model's engine."""
        base = self.base
        hit = base._poly  # read once: threads may step one model at other h
        if hit[0] != h:  # callers step many times with one h
            with np.errstate(over="ignore", invalid="ignore"):  # its users name a non-finite state
                eye, a = _table_kit(self.dim)[0](self.dim**2), h * base.tables[0]
                p = eye + a / 4.0
                for j in (3.0, 2.0, 1.0):  # Horner form
                    p = eye + (a @ p) / j
            hit = base._poly = (h, p)
        return hit[1]

    def sme_table(self, h: float):
        """``[[P_h, c R^T, 0, P_h t], [B / hbar, 0, vec(c), B t / hbar]]^T``, for ``@ [g; w(x)g]``.

        P_h is ``poly(h)``, B stacks the r back-action tables, column k of c maps coordinates to
        ``Tr(a_k rho + rho a_k^dag) / hbar``, the mean current along kept op k, and c R^T gives
        it along all J ops; column J gives ``cur . w`` and the last column the trace t of the
        linear output (see ``sme_step``).
        """
        hit = self._sme
        if hit[0] != h:
            n2, back, block = self.dim**2, self.tables[1], _table_kit(self.dim)[2]
            with np.errstate(over="ignore", invalid="ignore"):  # a step names a non-finite state
                cur = self.currents
                stacked = block([[self.poly(h)], [back / self.hbar]])
                t = stacked @ _coordinate_weights(self.dim)[0]
                heads = np.zeros((len(self.ops) + 2, len(t)))  # mean currents, cur . w, trace
                heads[:-2, :n2], heads[-2, n2:], heads[-1] = cur, cur[self.kept].ravel(), t
                hit = self._sme = (h, block([[stacked.T], [heads]]))
        return hit[1]

    @cached_property
    def currents(self) -> np.ndarray:
        """Rows (J, d^2) of the mean currents ``Tr(a_j rho + rho a_j^dag) / hbar`` on coordinates:
        the trace of each kept op's back-action table, spread to all J ops by R^T."""
        cur = self.tables[1][:, : self.dim].sum(axis=1) / self.hbar
        return self.rt.T @ cur.reshape(len(self.kept), -1)

    def backaction(self, g: np.ndarray) -> np.ndarray:
        """Rows (J, d^2): the coordinates of ``(a_j rho + rho a_j^dag) / hbar`` at the state of
        coordinates g, each kept op's table applied to g and spread to all J ops by R^T."""
        return self.rt.T @ (np.kron(np.eye(len(self.kept)), g) @ self.tables[1]) / self.hbar

    def operand(self, g: np.ndarray) -> np.ndarray:
        """The columns g (d^2, n) with room below them for ``w (x) g``."""
        return np.concatenate([g, np.empty((len(self.kept) * len(g), *g[0].shape))])

    def sme_step(self, x: np.ndarray, w: np.ndarray, h: float, linear: bool = True, out=None):
        """One Ito step of the columns ``g = x[:d^2]`` of an ``operand`` along increments w (r, n),
        ``R^T`` of the increments along the J ops.

        Returns (output, its trace, mean current), views of ``sme_table(h) @ [g ; w (x) g]``,
        written into ``out`` (d^2 + J + 2, n) when given.  A CSR product allocates: then only
        the rows below the output go to ``out``, and the output stays in the product.
        The linear output is the RK4 step plus ``sum_j w_j (a_j rho + rho a_j^dag) / hbar``;
        the nonlinear one subtracts ``(cur . w) g`` and its trace ``cur . w``, the trace
        this adds to a unit-trace g.
        """
        n2, r, g = self.dim**2, len(self.kept), x[: self.dim**2]
        np.multiply(w[:, None], g, out=x[n2:].reshape(r, *g.shape))
        table = self.sme_table(h)
        if out is None:
            out = prod = table @ x
        elif isinstance(table, np.ndarray):
            prod = np.matmul(table, x, out=out)
        else:  # a CSR product allocates
            prod = table @ x
            out[n2:] = prod[n2:]
        step, cur, cur_w, tr = prod[:n2], out[n2:-2], out[-2], out[-1]
        if not linear:
            step -= cur_w * g
            tr -= cur_w
        return step, tr, cur

    def run(self, rows: np.ndarray, table, times: int = 1) -> np.ndarray:
        """The 2-D rows (n, d^2) of coordinates times ``table``, ``times`` times: a 2-D product,
        as numpy's matmul takes a stack.  A non-finite result raises ``StateInvalidError``."""
        with np.errstate(over="ignore", invalid="ignore"):  # named below
            for _ in range(times):
                rows = rows @ table
        if not np.isfinite(rows).all():
            raise StateInvalidError(f"non-finite state after {times} step(s)")
        return rows

    def rk4(self, span: float, dt: float) -> tuple:
        """(``poly(h)``, n): ``span`` in n equal RK4 steps h of about dt."""
        steps = max(1, int(round(span / check_dt(dt))))
        return self.poly(span / steps), steps

    def apply(self, x: np.ndarray, table, times: int = 1) -> np.ndarray:
        """``run`` on (a stack of) complex matrices x = H1 + i H2, on the Hermitian H1 and H2
        apart: the map is real-linear on each."""
        g = _gather(np.stack([x, -1j * x]))
        h1, h2 = _scatter(self.run(g.reshape(-1, g.shape[-1]), table, times).reshape(g.shape))
        return h1 + 1j * h2


def liouvillian_apply(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation, drho/dt (Hermitian and traceless).

    Accepts a single matrix or a stack; the same linear map is applied to any
    operator, which is what the regression machinery relies on.
    """
    rho = _operator(rho, model.dim, "state", hermitian=False, stack=True)
    return model.engine.apply(rho, model.engine.tables[0])


def rk4_step(model: LindbladModel, x: np.ndarray, dt: float) -> np.ndarray:
    """One fourth-order step of the master equation applied to an arbitrary matrix, or a stack."""
    x = _operator(x, model.dim, "operator", hermitian=False, stack=True)
    return model.engine.apply(x, *model.engine.rk4(dt, dt))


def me_integrate(
    model: LindbladModel,
    rho0: np.ndarray,
    dt: float,
    steps: int,
) -> np.ndarray:
    """Integrate the master equation; returns states at all steps+1 grid points.

    Steps the real coordinates of the state, so each output state is exactly
    Hermitian, and renormalizes it; a non-finite state, or an eigenvalue below
    the fixed threshold -1e-6, raises ``StateInvalidError`` rather than being
    silently repaired.
    """
    check_density_matrix(rho0 := _operator(rho0, model.dim, "state"))
    dt = check_dt(dt)
    if not (is_integer(steps) and steps >= 0):
        raise ValidationError(f"steps must be a non-negative integer, got {steps!r}")
    g = np.empty((steps + 1, model.dim**2))
    g[0] = _gather(rho0)
    t = _coordinate_weights(model.dim)[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # named below
        p = model.engine.poly(dt)
        dense = isinstance(p, np.ndarray)
        for m in range(steps):
            x = g[m + 1]
            if dense:
                np.matmul(g[m], p, out=x)
            else:  # a CSR product allocates
                x[...] = g[m] @ p
            x /= x @ t
    finite = np.isfinite(g).all(axis=1)
    if not finite.all():
        raise StateInvalidError(f"non-finite state at step {int(np.argmin(finite))}")
    bad = _first_negative_state(g[1:], _purity(g[1:]), 1e-6)
    if bad is not None:
        raise StateInvalidError(
            f"positivity lost at step {bad[0] + 1}: min eigenvalue {bad[1]:.3e}"
        )
    out = _scatter(g)
    out[0] = rho0
    return out


def _certified_depth(tol: float) -> float:
    """Depth c = tol - m, m = min(tol/2, 1e-9 (1 + tol)), down to which the ceiling certifies:
    a state above -c has ``rho + tol I >= m I``, m far above the rounding of the ceiling and of
    a Cholesky factorization of ``rho + tol I``.  tol = inf (no monitoring) stays inf."""
    return tol - min(0.5 * tol, 1e-9 * (1.0 + tol)) if tol < math.inf else tol


def _purity_ceiling(d: int, tol: float) -> float:
    """Purity under which no unit-trace state of dimension d has an eigenvalue below -c.

    c is ``_certified_depth(tol)``.  By Cauchy-Schwarz on the other d - 1 eigenvalues, a
    unit-trace Hermitian state of purity p has
    ``lambda_min >= (1 - sqrt((d - 1)(d p - 1))) / d``, exact for d = 2, which is >= -c
    exactly when ``p <= (1 + (1 + d c)^2 / (d - 1)) / d``.  The ceiling sits 1e-12 below
    that, far above the rounding of p and of the trace.  A Python float product squares: it
    overflows to inf, where ``**`` raises and a numpy float warns.
    """
    s = 1.0 + d * _certified_depth(float(tol))
    return (1.0 + s * s / max(d - 1, 1)) / d * (1.0 - 1e-12)


def _first_negative_state(g: np.ndarray, p: np.ndarray, tol: float) -> tuple | None:
    """(index, least eigenvalue) of the first unit-trace state (coordinates g, purity p)
    below -tol, or None.

    Only the states above ``_purity_ceiling``, or of NaN purity, are factorized: rho + tol I
    has a Cholesky factor exactly when no eigenvalue is below -tol, and has one for every
    state under the ceiling; eigenvalues only name a failing state.
    """
    idx = np.flatnonzero(~(p <= _purity_ceiling(math.isqrt(g.shape[-1]), tol)))
    if not idx.size:
        return None
    states = _scatter(g[idx])
    try:
        np.linalg.cholesky(states + tol * np.eye(states.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        wmin = np.linalg.eigvalsh(states)[:, 0]
    bad = np.flatnonzero(wmin < -tol)
    return (int(idx[bad[0]]), float(wmin[bad[0]])) if bad.size else None


# ---------------------------------------------------------------------------
# measurement back-action


def measurement_ops(mrep: MRep, lindblads: np.ndarray) -> np.ndarray:
    """The 2L weighted coupling combinations addressed by each noise direction."""
    cs = _operator_stack(lindblads)
    if cs.shape[0] != mrep.channels:
        raise DimensionMismatchError(
            f"measurement matrix has {mrep.channels} channels, model has {cs.shape[0]}"
        )
    return np.einsum("mj,mab->jab", mrep.matrix.conj(), cs)


def _measured_ops(model: LindbladModel, mrep: MRep) -> np.ndarray:
    """The 2L back-action ops of a (model, measurement), checked to match in channels and hbar."""
    ops = measurement_ops(mrep, model.lindblads)
    if abs(model.hbar - mrep.hbar) > 1e-12 * max(model.hbar, mrep.hbar):
        raise ValidationError(
            f"model and measurement matrix carry different scales: {model.hbar} vs {mrep.hbar}"
        )
    return ops


def _measured_directions(mrep: MRep, tol: float = DEFAULT_TOL) -> tuple:
    """(kept, R^T): columns ``kept`` of ``T = [Re M; Im M]`` span the rest, ``T = T[:, kept] R^T``.

    Op j is real-linear in column j, so ``a_j = sum_k R_jk a_kept[k]``.  A column is kept
    when its distance to the span of the kept ones before it exceeds ``tol max(1, |T|)`` in
    units of sqrt(hbar), the scale ``validate_mrep`` allows off the diagonal of ``M M^dag``.
    R^T selects the kept columns exactly, so it is the identity when every column is kept,
    and has exact zeros for a column that is exactly zero.
    """
    t = np.concatenate([mrep.matrix.real, mrep.matrix.imag]) / math.sqrt(mrep.hbar)
    atol, kept, q = tol * max(1.0, float(np.linalg.norm(t))), [], np.zeros((len(t), 0))
    for j, col in enumerate(t.T):
        v = col - q @ (q.T @ col)
        v -= q @ (q.T @ v)  # Gram-Schmidt twice is orthogonal to round-off
        if (size := float(np.linalg.norm(v))) > atol:
            kept.append(j)
            q = np.column_stack([q, v / size])
    if not kept:  # every op is zero within tol: one zero op keeps the tables non-empty
        return [0], *_frozen(np.eye(1, len(t)))
    c = q.T @ t  # the columns in the kept ones' orthonormal basis; c[:, kept] is triangular
    rt = np.zeros_like(c)
    for i in reversed(range(len(kept))):  # back-substitution, no LAPACK call to page in
        rt[i] = (c[i] - c[i, kept[i + 1 :]] @ rt[i + 1 :]) / c[i, kept[i]]
    rt[:, ~t.any(axis=0)], rt[:, kept] = 0.0, np.eye(len(kept))
    return kept, *_frozen(rt)


def _measured_engine(model: LindbladModel, mrep: MRep) -> _Engine:
    """The engine along ``_measured_ops`` and ``_measured_directions``, on the generator table and
    polynomial of ``model.engine``, kept by it for the last measurement paired.

    The key is the bytes of ``MRep.matrix``, which is writable, and its hbar: with the model's
    read-only arrays they fix the ops and the directions, and a key is only stored once
    ``_measured_ops`` has checked its channels and scale against the model.
    """
    base, key = model.engine, (mrep.matrix.tobytes(), mrep.hbar)
    hit = base._measured  # read once: threads may pair one model with other measurements
    if hit[0] != key:
        ops = _frozen(_measured_ops(model, mrep))
        hit = base._measured = (key, _Engine(model, *ops, *_measured_directions(mrep)))
    return hit[1]


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
    if not math.isfinite(tau):
        raise ValidationError(f"lag must be finite, got {tau}")
    if tau < 0.0:
        raise NonPositiveLagError("regression requires tau >= 0")
    a, b, rho_t = (
        _operator(op, model.dim, name, hermitian=False)
        for op, name in ((a, "a"), (b, "b"), (rho_t, "rho_t"))
    )
    with np.errstate(over="ignore", invalid="ignore"):  # huge operators overflow: named below
        x = rho_t @ a
    if not np.isfinite(x).all():
        raise ValidationError("the product rho_t @ a is not finite")
    if tau > 0.0:
        x = model.engine.apply(x, *model.engine.rk4(tau, dt))
    with np.errstate(over="ignore", invalid="ignore"):
        out = complex(np.trace(b @ x))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ValidationError("the regression correlation is not finite")
    return out


def predicted_autocorrelation(
    model: LindbladModel,
    mrep: MRep,
    rho_t: np.ndarray,
    taus: np.ndarray,
    dt: float = 1e-3,
) -> np.ndarray:
    """Predicted two-time current correlation matrices, in current units.

    For each lag in the strictly increasing, strictly positive grid ``taus``,
    returns the 2L x 2L real matrix whose (a, b) entry correlates the current
    along noise direction ``a`` with the current along ``b`` a lag tau later,
    ``Tr[(a_b + a_b^dag) e^(L tau)(a_a rho + rho a_a^dag)] / hbar^2``: the measured
    engine's back-action rows of rho, stepped by the RK4 polynomial, read by its
    mean-current rows, so no hbar^2 is formed.  The singular equal-time term is
    never evaluated, which is why zero lag is rejected; a non-finite step raises
    ``StateInvalidError``.  rho_t must be d x d and Hermitian within ``DEFAULT_TOL``.
    """
    engine, rho_t = _measured_engine(model, mrep), _operator(rho_t, model.dim, "state")
    taus = np.asarray(taus, dtype=float).reshape(-1)
    if not np.isfinite(taus).all():
        raise ValidationError(f"lags must be finite, got {taus}")
    if np.any(taus <= 0.0):
        raise NonPositiveLagError("all lags must be strictly positive")
    if np.any(np.diff(taus) <= 0.0):
        raise ValidationError("lags must be strictly increasing")
    x = engine.backaction(_gather(rho_t))
    out = np.empty((taus.size, len(x), len(x)))
    for i, span in enumerate(np.diff(taus, prepend=0.0)):
        x = engine.run(x, *engine.rk4(span, dt))
        out[i] = x @ engine.currents.T
    return out


# ---------------------------------------------------------------------------
# diffusion characterization and the correlation-matrix current


def diffusion_matrix(model: LindbladModel, mrep: MRep, rho: np.ndarray) -> np.ndarray:
    """Diffusion matrix of the vectorized conditioned state.

    The state components are taken in the orthonormal Hermitian operator basis
    ``hermitian_basis(d)``, each a trace ``Tr(A B) = (g_A * p) @ g_B`` on coordinates; the
    columns of the noise-coefficient matrix are the nonlinear back-action updates along each
    of the 2L noise directions, the measured engine's rows as in the SME step: a step of
    length dt has covariance ``D dt`` at any scale.  Equal diffusion matrices mean the two
    measurement matrices generate the same unravelling.  rho must be d x d and Hermitian.
    """
    n = model.dim
    rho = _operator(rho, n, "state")
    engine, g = _measured_engine(model, mrep), _gather(rho)
    with np.errstate(over="ignore", invalid="ignore"):  # quadratic in rho: huge entries overflow
        updates = engine.backaction(g) - np.outer(engine.currents @ g, g)
        bmat = (_gather(hermitian_basis(n)) * _coordinate_weights(n)[1]) @ updates.T
        out = bmat @ bmat.T
    if not np.isfinite(out).all():
        raise ValidationError("the state's diffusion matrix is not finite")
    return out


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
    matrix built from that same factor.  rho must be d x d and Hermitian within tol.
    """
    rho = _operator(rho, model.dim, "state", tol=tol)
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
