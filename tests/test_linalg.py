import warnings

import numpy as np
import pytest

from diffmon import (
    homodyne_mrep,
    mrep_to_trep,
    polar_decompose,
    positive_sqrt,
    pseudo_inverse,
)
from diffmon.errors import (
    DiffmonError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    ValidationError,
)

from conftest import rng


def test_positive_sqrt_identity():
    assert np.allclose(positive_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_positive_sqrt_diagonal():
    assert np.allclose(positive_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_positive_sqrt_random_gram():
    gen = rng(11)
    g = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    a = g @ g.conj().T
    b = positive_sqrt(a)
    assert np.linalg.norm(b @ b - a) <= 1e-10 * np.linalg.norm(a)
    assert np.linalg.norm(b - b.conj().T) <= 1e-12
    assert np.min(np.linalg.eigvalsh(b)) >= -1e-12


def test_positive_sqrt_roundtrip_property():
    gen = rng(12)
    for _ in range(50):
        n = int(gen.integers(2, 6))
        g = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
        b = g @ g.conj().T
        b = (b + b.conj().T) / 2.0
        assert np.linalg.norm(positive_sqrt(b @ b) - b) <= 1e-9 * max(np.linalg.norm(b), 1.0)


def test_positive_sqrt_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        positive_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_positive_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        positive_sqrt(np.diag([1.0, -1.0]))


def test_positive_sqrt_real_in_real_out():
    out = positive_sqrt(np.diag([2.0, 3.0]))
    assert out.dtype.kind == "f"


def test_polar_of_orthogonal():
    c, s = np.cos(0.7), np.sin(0.7)
    t = np.array([[c, s], [-s, c]])
    p, o, unique = polar_decompose(t)
    assert unique
    assert np.allclose(p, np.eye(2), atol=1e-12)
    assert np.allclose(o, t, atol=1e-12)


def test_polar_of_positive_diagonal():
    t = np.diag([2.0, 3.0])
    p, o, unique = polar_decompose(t)
    assert unique
    assert np.allclose(p, t, atol=1e-12)
    assert np.allclose(o, np.eye(2), atol=1e-12)


def test_polar_random_invertible():
    gen = rng(13)
    t = gen.normal(size=(4, 4)) + np.eye(4)
    p, o, unique = polar_decompose(t)
    assert unique
    assert np.linalg.norm(p @ o - t) <= 1e-10 * np.linalg.norm(t)
    assert np.allclose(o.T @ o, np.eye(4), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(p)) >= -1e-12


def test_polar_rank_deficient_flags_and_det():
    # (rank-deficient t, whether the SVD's own orthogonal factor has det -1 and is flipped)
    cases = [
        (np.diag([1.0, 0.0]), False),
        (mrep_to_trep(homodyne_mrep(0.7, phase=2.0)).matrix, True),  # a homodyne T-rep
    ]
    for t, flipped in cases:
        w, _s, vt = np.linalg.svd(t)
        assert (np.linalg.det(w @ vt) < 0.0) == flipped  # the case reaches the flip it names
        p, o, unique = polar_decompose(t)
        assert not unique
        assert abs(np.linalg.det(o) - 1.0) <= 1e-12
        assert np.linalg.norm(p @ o - t) <= 1e-12


def test_polar_recomposition_property():
    gen = rng(14)
    for _ in range(50):
        n = int(gen.integers(2, 7))
        t = gen.normal(size=(n, n))
        p, o, _ = polar_decompose(t)
        assert np.linalg.norm(p @ o - t) <= 1e-9 * max(np.linalg.norm(t), 1.0)


def test_pinv_diagonal():
    assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_invertible_equals_inverse():
    gen = rng(15)
    a = gen.normal(size=(4, 4)) + np.eye(4)
    assert np.allclose(pseudo_inverse(a), np.linalg.inv(a), atol=1e-10)


def test_pinv_rank_one_penrose_identities():
    gen = rng(16)
    u = gen.normal(size=3)
    v = gen.normal(size=3)
    a = np.outer(u, v)
    ap = pseudo_inverse(a)
    assert np.linalg.norm(a @ ap @ a - a) <= 1e-10
    assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-10
    assert np.linalg.norm((a @ ap) - (a @ ap).T) <= 1e-10
    assert np.linalg.norm((ap @ a) - (ap @ a).T) <= 1e-10


def test_pinv_orthogonal_is_transpose():
    c, s = np.cos(1.1), np.sin(1.1)
    o = np.array([[c, s], [-s, c]])
    assert np.allclose(pseudo_inverse(o), o.T, atol=1e-12)


BAD_MATRICES = {
    "nan": [[np.nan]],
    "inf": [[np.inf, 0.0], [0.0, 1.0]],
    "nan entry": [[1.0, np.nan], [np.nan, 1.0]],
    "1-D": [1.0, 2.0],
    "1e200": [[1e200, 0.0], [0.0, 1.0]],
    "1e200 everywhere": [[1e200, 1e200], [1e200, 1e200]],
    "-1e200": [[-1e200, 0.0], [0.0, 1.0]],
    "1e308": [[1e308, 0.0], [0.0, 1.0]],
    "1e308 anti-Hermitian": [[0.0, 1e308], [-1e308, 0.0]],
    "1j": [[1j]],
    "2j": [[2j]],
    "complex Hermitian": [[1.0, 0.5j], [-0.5j, 1.0]],
}


@pytest.mark.parametrize("bad", BAD_MATRICES)
@pytest.mark.parametrize("func", [positive_sqrt, polar_decompose, pseudo_inverse])
def test_linalg_names_bad_input(func, bad):
    # A NaN or inf entry raises ValidationError, and a 1-D array a shape error, never a
    # NaN result, a RuntimeWarning or a bare LinAlgError; entries near overflow give a
    # named error or finite values.  The real-matrix functions refuse complex entries
    # with ValidationError rather than drop their imaginary parts.
    x = np.array(BAD_MATRICES[bad])
    refused = np.iscomplexobj(x) and func is not positive_sqrt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = func(x)
        except DiffmonError as exc:
            if not np.isfinite(x).all() or refused:
                assert type(exc) is ValidationError
            elif x.ndim != 2:
                want = DimensionMismatchError if func is pseudo_inverse else NotHermitianError
                assert type(exc) is want
            return
    assert np.isfinite(x).all() and x.ndim == 2 and not refused, (bad, out)
    for value in out if isinstance(out, tuple) else (out,):
        assert np.isfinite(value).all(), (bad, value)
