"""Dense matrix primitives: positive square roots, polar factors, pseudoinverses.

All operations are pure functions on small dense arrays (the design envelope
is dimension <= ~64) and use a relative tolerance, by default 1e-9 of the
Frobenius norm of the input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotHermitianError, NotPSDError

DEFAULT_TOL = 1e-9


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a real or complex array, as ``np.linalg.norm(a)`` gives it.

    ``math.hypot`` over the real and imaginary parts scales as it sums, so
    finite entries whose squares overflow still give a finite norm (inf only
    past the largest float); a NaN entry gives NaN, as in numpy.  On the small
    matrices of this package it also skips numpy's per-call wrapper.  Past 256
    floats, where hypot's per-argument cost dominates, numpy's norm of the
    entries scaled by the largest one is as safe and ten times faster.
    """
    flat = a.ravel()
    if flat.dtype.kind == "c":
        flat = flat.astype(complex, copy=False).view(float)
    if flat.size > 256:
        top = float(np.abs(flat).max())  # NaN if an entry is
        return top * float(np.linalg.norm(flat / top)) if 0.0 < top < math.inf else top
    parts = flat.tolist()
    norm = math.hypot(*parts)
    if norm == math.inf and any(p != p for p in parts):  # hypot lets inf win over NaN
        return math.nan
    return norm


def positive_sqrt(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive-semidefinite square root of a Hermitian PSD matrix.

    Uses a Hermitian eigendecomposition; eigenvalues in (-tol*||a||, 0) are
    clamped to zero so that floating-point PSD inputs are accepted.  Raises
    ``NotHermitianError`` / ``NotPSDError`` otherwise.  Real input yields a
    real result.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {a.shape}")
    norm = frobenius(a)
    atol = tol * norm if norm > 0.0 else tol  # relative to ||a||, absolute for a = 0
    if frobenius(a - a.conj().T) > atol:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    if w[0] < -atol:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -tol*||a||")
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)) @ v.conj().T
    root = (root + root.conj().T) / 2.0
    if np.isrealobj(a):
        return root.real
    return root


def polar_decompose(t: np.ndarray, tol: float = DEFAULT_TOL):
    """Polar factorization t = p @ o with p PSD and o orthogonal.

    Returns ``(p, o, unique)``.  ``p`` equals ``positive_sqrt(t @ t.T)``.  For
    rank-deficient ``t`` the orthogonal factor is completed from the singular
    vectors, flipping the sign of a null direction so that det(o) = +1 when a
    sign is free; ``unique`` is False in that case.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise NotHermitianError(f"polar factorization needs a square matrix, got {t.shape}")
    n = t.shape[0]
    w, s, vt = np.linalg.svd(t)
    p = (w * s) @ w.T
    p = (p + p.T) / 2.0
    o = w @ vt
    smax = s[0] if n else 0.0
    unique = bool(n and s[-1] > tol * max(smax, 1.0))
    if not unique and np.linalg.det(o) < 0.0:
        # Flipping a null singular direction changes o but not p @ o.
        w = w.copy()
        w[:, -1] = -w[:, -1]
        o = w @ vt
    return p, o, unique


def pseudo_inverse(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below tol*max(s) are dropped."""
    return np.linalg.pinv(np.asarray(a, dtype=float), rcond=tol)

