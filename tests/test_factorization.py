import numpy as np
import pytest

from diffmon import MRep, brep_o_to_mrep, mrep_to_brep_o
from diffmon.errors import NotL1Error, ZeroMError
from diffmon.reps import (
    factor_phase_gap,
    factor_theta,
    heterodyne_mrep,
    homodyne_mrep,
    random_mrep,
)

from conftest import rng


def _roundtrip_error(m: MRep) -> float:
    brep, ortho = mrep_to_brep_o(m)
    rec = brep_o_to_mrep(brep, ortho, hbar=m.hbar)
    return float(np.max(np.abs(rec.matrix - m.matrix)))


def test_balanced_ratio_spot_values():
    # At equal entry moduli the splitting is balanced and the phase gap is
    # pi/2, independent of the post-processing angle.
    for phi in (0.1, 0.4, 1.0, 1.4):
        assert factor_theta(1.0, phi) == pytest.approx(0.5, abs=1e-12)
        assert factor_phase_gap(1.0, phi) == pytest.approx(np.pi / 2.0, abs=1e-12)


def test_degenerate_second_entry():
    m = MRep(np.array([[0.8 * np.exp(0.3j), 0.0]]))
    brep, ortho = mrep_to_brep_o(m)
    assert brep.theta[0] in (0.0, 1.0)
    assert np.allclose(ortho.matrix, np.eye(2), atol=1e-12)
    assert _roundtrip_error(m) <= 1e-12


def test_degenerate_first_entry():
    m = MRep(np.array([[0.0, 0.5 * np.exp(-1.1j)]]))
    brep, ortho = mrep_to_brep_o(m)
    assert brep.theta[0] in (0.0, 1.0)
    # Post-processing is a quarter-turn rotation.
    assert np.allclose(np.abs(ortho.matrix), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
    assert _roundtrip_error(m) <= 1e-12


def test_positive_gap_uses_plus_determinant():
    m = MRep(0.6 * np.array([[np.exp(2.0j), 1.0]]) / np.sqrt(2.0))
    _, ortho = mrep_to_brep_o(m)
    assert ortho.det_sign == 1
    assert _roundtrip_error(m) <= 1e-10


def test_negative_gap_uses_minus_determinant():
    m = MRep(0.6 * np.array([[np.exp(-2.0j), 1.0]]) / np.sqrt(2.0))
    _, ortho = mrep_to_brep_o(m)
    assert ortho.det_sign == -1
    assert _roundtrip_error(m) <= 1e-10


def test_gap_of_exactly_pi():
    m = MRep(np.array([[-0.5, 0.5]]))
    _, ortho = mrep_to_brep_o(m)
    assert ortho.det_sign == 1
    assert _roundtrip_error(m) <= 1e-10


def test_balanced_moduli_arbitrary_gap():
    for delta in (0.3, 1.0, 2.5, -0.4, -2.8):
        m = MRep(0.7 * np.array([[np.exp(1j * delta), 1.0]]) / np.sqrt(2.0))
        assert _roundtrip_error(m) <= 1e-10


def test_solver_deterministic():
    m = MRep(0.9 * np.array([[0.31 + 0.4j, -0.2 + 0.6j]]) / np.sqrt(0.31**2 + 0.4**2 + 0.4))
    b1, o1 = mrep_to_brep_o(m)
    b2, o2 = mrep_to_brep_o(m)
    assert np.array_equal(b1.mixing, b2.mixing)
    assert np.array_equal(b1.theta, b2.theta)
    assert np.array_equal(o1.matrix, o2.matrix)


def test_random_roundtrip_both_branches():
    gen = rng(41)
    det_signs = set()
    for _ in range(300):
        m = random_mrep(gen, 1)
        if np.linalg.norm(m.matrix) < 1e-6:
            continue
        brep, ortho = mrep_to_brep_o(m)
        det_signs.add(ortho.det_sign)
        rec = brep_o_to_mrep(brep, ortho, hbar=m.hbar)
        assert np.max(np.abs(rec.matrix - m.matrix)) <= 1e-8
        assert 0.0 <= brep.theta[0] <= 1.0
        assert 0.0 <= brep.eta[0] <= 1.0 + 1e-12
    assert det_signs == {1, -1}


def test_roundtrip_with_nonunit_scale():
    gen = rng(42)
    for _ in range(50):
        m = random_mrep(gen, 1, hbar=2.5)
        if np.linalg.norm(m.matrix) < 1e-6:
            continue
        assert _roundtrip_error(m) <= 1e-8


def test_near_linear_roundtrip():
    # Phase gap within 1e-9 of pi: the splitting sits next to 0, where an
    # error of 1e-16 in theta becomes 1e-8 in sqrt(theta).
    for a in np.linspace(0.05, 1.5, 15):
        m = MRep(0.8 * np.array([[np.cos(a), -np.sin(a) * np.exp(1e-9j)]]))
        assert _roundtrip_error(m) <= 1e-12


_S = 0.7071067811865476
_PINNED = [
    # (input, theta, det_sign, post-processing, mixing)
    (
        heterodyne_mrep(0.8),
        0.5,
        -1,
        [[_S, -_S], [-_S, -_S]],
        0.7071067811865476 + 0.7071067811865475j,
    ),
    (
        homodyne_mrep(0.5, 0.3),
        1.0,
        1,
        [[1.0, 0.0], [0.0, 1.0]],
        0.955336489125606 + 0.29552020666133955j,
    ),
    (
        MRep(0.6 * np.array([[np.exp(2.0j), 1.0]]) / np.sqrt(2.0)),
        0.29192658172642594,
        1,
        [[_S, _S], [-_S, _S]],
        0.5403023058681421 - 0.841470984807895j,
    ),
    (
        MRep(0.6 * np.array([[np.exp(-1.2j), 1.0]]) / np.sqrt(2.0)),
        0.3188211227616661,
        -1,
        [[_S, -_S], [-_S, -_S]],
        -0.5646424733950328 + 0.82533561490968j,
    ),
    (
        MRep(np.array([[0.3 + 0.4j, -0.2 + 0.1j]])),
        0.8399346342395194,
        -1,
        [
            [0.9951333266680699, -0.09853761796664538],
            [-0.09853761796664538, -0.9951333266680699],
        ],
        0.6339889056055392 - 0.7733421413379015j,
    ),
]


@pytest.mark.parametrize("m, theta, det_sign, o, mixing", _PINNED)
def test_conventions_pinned(m, theta, det_sign, o, mixing):
    brep, ortho = mrep_to_brep_o(m)
    assert ortho.det_sign == det_sign
    assert abs(brep.theta[0] - theta) <= 1e-12
    assert np.max(np.abs(ortho.matrix - np.array(o))) <= 1e-12
    assert abs(brep.mixing[0, 0] - mixing) <= 1e-12


def test_rejects_multichannel():
    with pytest.raises(NotL1Error):
        mrep_to_brep_o(random_mrep(rng(43), 2))


def test_rejects_zero_matrix():
    with pytest.raises(ZeroMError):
        mrep_to_brep_o(MRep(np.zeros((1, 2))))
