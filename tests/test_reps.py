import numpy as np
import pytest

from diffmon import (
    BRep,
    MRep,
    OrthoMatrix,
    TRep,
    URep,
    brep_o_to_mrep,
    brep_to_mrep,
    brep_to_urep,
    custom_efficiency_mrep,
    efficient_decomposition,
    heterodyne_mrep,
    homodyne_mrep,
    mrep_to_trep,
    mrep_to_urep,
    mrep_trep,
    trep_polar,
    trep_to_mrep,
    trep_to_urep,
    urep_assemble,
    urep_split,
    validate_brep,
    validate_mrep,
    validate_trep,
    validate_urep,
)
from diffmon.errors import (
    DimensionMismatchError,
    EfficiencyOutOfRangeError,
    InvalidEfficientPartError,
    NotPSDError,
    OffBlockAsymmetricError,
    OffDiagonalError,
    SumNotInHError,
    ValidationError,
)
from diffmon.reps import random_brep, random_mrep, random_orthogonal

from conftest import rng


def test_validate_heterodyne_rows():
    for eta in (0.1, 0.5, 1.0, 0.8):
        m = np.sqrt(eta / 2.0) * np.array([[1.0, 1j]])
        got = validate_mrep(m, hbar=1.0)
        assert abs(got[0] - eta) <= 1e-12


def test_validate_ideal_homodyne():
    assert validate_mrep(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-15)


def test_validate_rejects_overweight_row():
    with pytest.raises(EfficiencyOutOfRangeError):
        validate_mrep(np.array([[1.0, 1.0]]))


def test_validate_rejects_cross_channel_correlation():
    m = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]) / np.sqrt(2.0)
    with pytest.raises(OffDiagonalError):
        validate_mrep(m)


def test_validate_urep_heterodyne():
    assert validate_urep(0.5 * np.eye(2))[0] == pytest.approx(1.0, abs=1e-15)


def test_validate_urep_homodyne_quadrature():
    assert validate_urep(np.diag([1.0, 0.0]))[0] == pytest.approx(1.0, abs=1e-15)


def test_validate_urep_rejects_sum_above_one():
    with pytest.raises(SumNotInHError):
        validate_urep(np.diag([1.0, 1.0]))


def test_validate_urep_rejects_indefinite():
    with pytest.raises(NotPSDError):
        validate_urep(np.array([[0.6, 0.59], [0.59, 0.4]]))


def test_validate_urep_rejects_asymmetric_off_blocks():
    block = 0.45 * np.eye(2)
    skew = np.array([[0.0, 0.1], [-0.1, 0.0]])
    u = np.block([[block, skew], [skew.T, block]])
    with pytest.raises(OffBlockAsymmetricError):
        validate_urep(u)


def test_mrep_trep_heterodyne():
    t = mrep_to_trep(heterodyne_mrep(1.0))
    assert np.allclose(t.matrix, np.sqrt(0.5) * np.eye(2), atol=1e-15)


def test_mrep_trep_real_input_has_zero_imag_block():
    t = mrep_to_trep(homodyne_mrep(0.7))
    assert np.all(t.imag_part == 0.0)


def test_mrep_trep_roundtrip_bit_identical():
    m = random_mrep(rng(21), 3)
    back = trep_to_mrep(mrep_to_trep(m))
    assert np.array_equal(back.matrix, m.matrix)
    assert back.hbar == m.hbar


def test_mrep_trep_dispatcher():
    m = heterodyne_mrep(0.5)
    t = mrep_trep(m)
    assert isinstance(t, TRep)
    assert isinstance(mrep_trep(t), MRep)
    with pytest.raises(TypeError):
        mrep_trep(np.eye(2))


def test_trep_to_urep_heterodyne():
    u = trep_to_urep(mrep_to_trep(heterodyne_mrep(1.0)))
    assert np.allclose(u.matrix, 0.5 * np.eye(2), atol=1e-15)


def test_trep_to_urep_zero():
    u = trep_to_urep(TRep(np.zeros((2, 2))))
    assert np.all(u.matrix == 0.0)
    assert validate_urep(u.matrix)[0] == 0.0


def test_trep_to_urep_random_valid():
    gen = rng(22)
    for _ in range(25):
        u = mrep_to_urep(random_mrep(gen, 2))
        validate_urep(u.matrix)
        assert np.array_equal(u.matrix, u.matrix.T)


def test_urep_split_heterodyne():
    h, y = urep_split(URep(0.5 * np.eye(2)))
    assert h[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(y[0, 0]) <= 1e-15


def test_urep_split_homodyne():
    h, y = urep_split(URep(np.diag([1.0, 0.0])))
    assert h[0] == pytest.approx(1.0, abs=1e-15)
    assert y[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_urep_split_symmetry_and_reassembly():
    gen = rng(23)
    for _ in range(20):
        u = mrep_to_urep(random_mrep(gen, 3))
        h, y = urep_split(u)
        assert np.linalg.norm(y - y.T) <= 1e-12
        rebuilt = urep_assemble(h, y, hbar=u.hbar)
        assert np.max(np.abs(rebuilt.matrix - u.matrix)) <= 1e-14


def test_trep_polar_orthogonal_input():
    # An orthogonal stacked matrix is valid at hbar = 2 (efficiencies are then 1).
    c, s = np.cos(0.4), np.sin(0.4)
    t = TRep(np.array([[c, s], [-s, c]]), hbar=2.0)
    p, o, unique = trep_polar(t)
    assert unique
    assert np.allclose(p, np.eye(2), atol=1e-12)
    assert np.allclose(o.matrix, t.matrix, atol=1e-12)


def test_trep_polar_zero_not_unique():
    p, o, unique = trep_polar(TRep(np.zeros((2, 2))))
    assert not unique
    assert np.all(p == 0.0)
    o.validate()


def test_trep_polar_random_invertible():
    gen = rng(24)
    for _ in range(20):
        t = mrep_to_trep(random_mrep(gen, 2))
        if np.abs(np.linalg.det(t.matrix)) < 1e-6:
            continue
        p, o, unique = trep_polar(t)
        assert unique
        assert np.linalg.norm(p @ o.matrix - t.matrix) <= 1e-10 * np.linalg.norm(t.matrix)


def test_brep_to_mrep_x_quadrature():
    m = brep_to_mrep(BRep([1.0], [[1.0]], [1.0]))
    assert np.allclose(m.matrix, np.array([[1.0, 0.0]]), atol=1e-12)


def test_brep_to_mrep_balanced_split():
    m = brep_to_mrep(BRep([1.0], [[1.0]], [0.5]))
    want = np.array([[1.0 / np.sqrt(2.0), -1j / np.sqrt(2.0)]])
    assert np.allclose(m.matrix, want, atol=1e-12)


def test_brep_to_mrep_zero_efficiency():
    m = brep_to_mrep(BRep([0.0], [[np.exp(0.3j)]], [0.7]))
    assert np.all(m.matrix == 0.0)


def test_brep_to_mrep_gram_identity_with_scale():
    gen = rng(25)
    for hbar in (1.0, 3.0):
        b = random_brep(gen, 3)
        m = brep_to_mrep(b, hbar=hbar)
        gram = m.matrix @ m.matrix.conj().T
        assert np.max(np.abs(gram - hbar * np.diag(b.eta))) <= 1e-12 * max(1.0, hbar)


def test_brep_to_urep_single_channel_blocks():
    theta = 0.3
    u = brep_to_urep(BRep([1.0], [[1.0]], [theta]))
    assert np.allclose(u.matrix, np.diag([theta, 1.0 - theta]), atol=1e-14)


def test_brep_to_urep_phase_formula():
    # Off-diagonal block of the single-channel reduction: (1 - 2 theta) cos(phi) sin(phi).
    for theta in (0.2, 0.5, 0.9):
        for phi in (0.0, 0.4, 1.2):
            u = brep_to_urep(BRep([1.0], [[np.exp(1j * phi)]], [theta]))
            want = (1.0 - 2.0 * theta) * np.cos(phi) * np.sin(phi)
            assert u.matrix[0, 1] == pytest.approx(want, abs=1e-12)


def test_brep_to_urep_phase_pair_degeneracy():
    # Realizations with mixing phases phi and phi + pi produce identical correlations.
    phi, theta = 0.7, 0.3
    u1 = brep_to_urep(BRep([1.0], [[np.exp(1j * phi)]], [theta]))
    u2 = brep_to_urep(BRep([1.0], [[np.exp(1j * (phi + np.pi))]], [theta]))
    assert np.max(np.abs(u1.matrix - u2.matrix)) <= 1e-12


def test_brep_to_urep_matches_measurement_route():
    gen = rng(26)
    for _ in range(30):
        channels = int(gen.integers(1, 4))
        b = random_brep(gen, channels)
        direct = brep_to_urep(b).matrix
        via_m = mrep_to_urep(brep_to_mrep(b)).matrix
        assert np.max(np.abs(direct - via_m)) <= 1e-10


def test_brep_o_identity_matches_plain_conversion():
    b = random_brep(rng(27), 2)
    plain = brep_to_mrep(b)
    with_o = brep_o_to_mrep(b, OrthoMatrix(np.eye(4)))
    assert np.array_equal(plain.matrix, with_o.matrix)


def test_brep_o_rotation_single_channel():
    phi = 0.9
    o = OrthoMatrix(np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]))
    m = brep_o_to_mrep(BRep([1.0], [[1.0]], [1.0]), o)
    assert np.allclose(m.matrix, np.array([[np.cos(phi), np.sin(phi)]]), atol=1e-12)


def test_brep_o_random_still_valid():
    gen = rng(28)
    for _ in range(10):
        b = random_brep(gen, 3)
        o = random_orthogonal(gen, 6)
        m = brep_o_to_mrep(b, o)
        eta = validate_mrep(m.matrix, hbar=m.hbar)
        assert np.max(np.abs(eta - np.clip(b.eta, 0, 1))) <= 1e-9


def test_brep_o_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        brep_o_to_mrep(random_brep(rng(29), 2), OrthoMatrix(np.eye(2)))


def test_heterodyne_constructor_formula():
    for eta in (0.3, 1.0):
        m = heterodyne_mrep(eta)
        want = np.sqrt(eta / 2.0) * np.array([[1.0, 1j]])
        assert np.allclose(m.matrix, want, atol=1e-15)


def test_homodyne_constructor():
    assert np.allclose(homodyne_mrep(1.0, 0.0).matrix, np.array([[1.0, 0.0]]), atol=1e-15)
    phased = homodyne_mrep(0.49, 0.8)
    assert phased.matrix[0, 0] == pytest.approx(0.7 * np.exp(-0.8j), abs=1e-14)
    assert phased.matrix[0, 1] == 0.0


def test_standard_constructors_scale_with_hbar():
    for ctor in (lambda: heterodyne_mrep(0.6, hbar=2.5), lambda: homodyne_mrep(0.6, 0.2, hbar=2.5)):
        m = ctor()
        assert abs(validate_mrep(m.matrix, hbar=2.5)[0] - 0.6) <= 1e-12


def test_custom_efficiency_constructor():
    part = np.array([[1.0, 1j]]) / np.sqrt(2.0)
    m = custom_efficiency_mrep(part, [0.5])
    assert abs(validate_mrep(m.matrix)[0] - 0.5) <= 1e-12
    with pytest.raises(EfficiencyOutOfRangeError):
        custom_efficiency_mrep(part, [1.5])
    with pytest.raises(InvalidEfficientPartError):
        custom_efficiency_mrep(np.array([[1.0, 1.0]]), [0.5])


def test_efficiency_constructor_rejects_out_of_range():
    with pytest.raises(EfficiencyOutOfRangeError):
        homodyne_mrep(1.2)
    with pytest.raises(EfficiencyOutOfRangeError):
        heterodyne_mrep(-0.1)


def test_efficient_decomposition_heterodyne():
    m = heterodyne_mrep(0.64)
    eta, part, dark = efficient_decomposition(m)
    assert eta[0] == pytest.approx(0.64, abs=1e-12)
    assert not dark[0]
    assert np.allclose(np.sqrt(eta)[:, None] * part, m.matrix, atol=1e-12)
    assert np.allclose(part @ part.conj().T, np.eye(1), atol=1e-12)


def test_efficient_decomposition_ideal_is_identity_factor():
    m = heterodyne_mrep(1.0)
    eta, part, dark = efficient_decomposition(m)
    assert np.allclose(eta, 1.0, atol=1e-12)
    assert np.allclose(part, m.matrix, atol=1e-15)
    assert not dark.any()


def test_efficient_decomposition_zero_channel():
    m = MRep(np.zeros((1, 2)))
    eta, part, dark = efficient_decomposition(m)
    assert eta[0] == 0.0
    assert dark[0]
    assert np.allclose(part @ part.conj().T, np.eye(1), atol=1e-12)


def test_efficient_decomposition_completion_stays_orthonormal():
    # The dark-channel row must be completed against a live row overlapping the
    # canonical direction, or the unit-efficiency factor would lose orthogonality.
    live = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2.0)
    m = MRep(np.vstack([live, np.zeros(4)]))
    eta, part, dark = efficient_decomposition(m)
    assert list(dark) == [False, True]
    assert np.allclose(part @ part.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(part[0], live, atol=1e-12)


def test_sufficiency_sweep_small():
    gen = rng(30)
    for channels in (1, 2, 3):
        for _ in range(50):
            u = mrep_to_urep(random_mrep(gen, channels))
            validate_urep(u.matrix, hbar=u.hbar, tol=1e-10)


def test_stacked_weight_identity():
    gen = rng(31)
    for _ in range(25):
        channels = int(gen.integers(1, 4))
        m = random_mrep(gen, channels)
        t = mrep_to_trep(m)
        v = gen.normal(size=channels) + 1j * gen.normal(size=channels)
        lhs = m.matrix.conj().T @ v
        rhs = t.matrix.T @ np.concatenate([v, -1j * v])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_hbar_must_be_positive():
    with pytest.raises(ValidationError):
        MRep(np.zeros((1, 2)), hbar=0.0)
    with pytest.raises(ValidationError):
        validate_mrep(np.zeros((1, 2)), hbar=-1.0)


# ---------------------------------------------------------------------------
# validator error parity: every failing branch keeps its error class and message

_R2 = np.sqrt(2.0)
_NAN = np.nan

VALIDATOR_FAILURES = [
    (validate_mrep, np.zeros((2, 3)), DimensionMismatchError,
     "measurement matrix must be L x 2L, got (2, 3)"),
    (validate_mrep, np.array([[1, 0, 0, 0], [1, 0, 0, 0]]) / _R2, OffDiagonalError,
     "channel gram matrix has off-diagonal entry (0,1) = 5.000e-01+0.000e+00j"),
    (validate_mrep, np.array([[0.5, 0, 0, 0], [0, 1.5, 0, 0]]), EfficiencyOutOfRangeError,
     "efficiency[1] = 2.25 falls outside [0, 1]"),
    (validate_mrep, np.array([[_NAN, 0]]), EfficiencyOutOfRangeError,
     "efficiency[0] = nan falls outside [0, 1]"),
    (validate_mrep, np.array([[0.5, 0, 0, 0], [0, _NAN, 0, 0]]), EfficiencyOutOfRangeError,
     "efficiency[1] = nan falls outside [0, 1]"),
    (validate_urep, np.zeros((3, 3)), DimensionMismatchError,
     "unravelling matrix must be 2L x 2L, got (3, 3)"),
    (validate_urep, np.array([[0.5, 0.1], [0.0, 0.5]]), NotPSDError,
     "unravelling matrix is not symmetric"),
    (validate_urep, np.array([[0.6, 0.59], [0.59, 0.4]]), NotPSDError,
     "unravelling matrix has eigenvalue -9.841e-02 below zero"),
    (validate_urep,
     np.block([[0.45 * np.eye(2), np.array([[0, 0.1], [-0.1, 0]])],
               [np.array([[0, -0.1], [0.1, 0]]), 0.45 * np.eye(2)]]),
     OffBlockAsymmetricError, "off-diagonal blocks of the unravelling matrix differ"),
    (validate_urep, 0.25 * np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]]),
     SumNotInHError, "diagonal-block sum of the unravelling matrix is not diagonal"),
    (validate_urep, np.diag([0.25, 0.75, 0.25, 0.5]), SumNotInHError,
     "diagonal-block sum entry [1] = 1.25 falls outside [0, 1]"),
    (validate_urep, np.array([[_NAN, 0], [0, 0.5]]), SumNotInHError,
     "diagonal-block sum entry [0] = nan falls outside [0, 1]"),
    (validate_urep, np.full((2, 2), _NAN), SumNotInHError,
     "diagonal-block sum entry [0] = nan falls outside [0, 1]"),
    (validate_trep, np.zeros((2, 4)), DimensionMismatchError,
     "stacked matrix must be 2L x 2L, got (2, 4)"),
    (validate_trep, 0.5 * np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0.0]]),
     OffBlockAsymmetricError, "block cross products of the stacked matrix differ"),
    (validate_trep, np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) / _R2,
     OffDiagonalError, "channel gram matrix has off-diagonal entry (0,1) = 5.000e-01+0.000e+00j"),
    (validate_trep, np.array([[0.5, 0, 0, 0], [0, 1.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
     EfficiencyOutOfRangeError, "efficiency[1] = 2.25 falls outside [0, 1]"),
    (validate_trep, np.array([[0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, _NAN], [0, 0, 0, 0]]),
     EfficiencyOutOfRangeError, "efficiency[0] = nan falls outside [0, 1]"),
    (lambda b: validate_brep(BRep(*b)), ([0.5, 1.5], np.eye(2), [0.5, 0.5]),
     EfficiencyOutOfRangeError, "eta[1] = 1.5 falls outside [0, 1]"),
    (lambda b: validate_brep(BRep(*b)), ([0.5, 0.5], np.eye(2), [0.2, -0.5]),
     EfficiencyOutOfRangeError, "theta[1] = -0.5 falls outside [0, 1]"),
    (lambda b: validate_brep(BRep(*b)), ([0.5, 0.5], [[1.0, 1.0], [0, 1.0]], [0.5, 0.5]),
     ValidationError, "mixing matrix is not unitary (defect 1.732e+00)"),
    (lambda o: OrthoMatrix(o).validate(), [[1.0, 0.5], [0.0, 1.0]],
     ValidationError, "matrix is not orthogonal (defect 7.500e-01)"),
]


@pytest.mark.parametrize("validator, arg, cls, message", VALIDATOR_FAILURES)
def test_validator_failures_keep_class_and_message(validator, arg, cls, message):
    with pytest.raises(ValidationError) as info:
        validator(arg)
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("validator", [validate_mrep, validate_urep, validate_trep])
def test_validators_reject_nan_hbar(validator):
    arg = np.zeros((1, 2)) if validator is validate_mrep else np.zeros((2, 2))
    with pytest.raises(ValidationError, match=r"^hbar must be a positive real number, got nan$"):
        validator(arg, hbar=np.nan)


def test_validator_efficiencies_are_the_clamped_diagonals_bitwise():
    gen = rng(32)
    for channels in (1, 2, 3, 4):
        for hbar in (0.5, 2.0):
            for _ in range(10):
                m = random_mrep(gen, channels, hbar=hbar)
                u = mrep_to_urep(m).matrix
                t = mrep_to_trep(m).matrix
                gram = m.matrix @ m.matrix.conj().T / hbar
                want_m = np.clip(np.real(np.diagonal(gram)), 0.0, 1.0)
                assert np.array_equal(validate_mrep(m.matrix, hbar=hbar), want_m)
                ell = channels
                want_u = np.clip(np.diagonal(u[:ell, :ell] + u[ell:, ell:]), 0.0, 1.0)
                assert np.array_equal(validate_urep(u, hbar=hbar), want_u)
                tm = t[:ell] + 1j * t[ell:]
                want_t = np.clip(np.real(np.diagonal(tm @ tm.conj().T / hbar)), 0.0, 1.0)
                assert np.array_equal(validate_trep(t, hbar=hbar), want_t)


def _block_formula_urep(brep):
    """The four explicit block formulas of the B -> U relation."""
    rh = np.diag(np.sqrt(np.clip(brep.eta, 0.0, 1.0)))
    q = np.diag(np.clip(brep.theta, 0.0, 1.0))
    qb = np.diag(np.clip(1.0 - brep.theta, 0.0, 1.0))
    sr, si = brep.mixing.real, brep.mixing.imag
    u11 = rh @ (sr.T @ q @ sr + si.T @ qb @ si) @ rh
    u12 = rh @ (-sr.T @ q @ si + si.T @ qb @ sr) @ rh
    u21 = rh @ (-si.T @ q @ sr + sr.T @ qb @ si) @ rh
    u22 = rh @ (si.T @ q @ si + sr.T @ qb @ sr) @ rh
    return np.block([[u11, u12], [u21, u22]])


def test_brep_to_urep_stage_product_matches_block_formulas():
    gen = rng(33)
    for channels in (1, 2, 3, 4):
        for hbar in (0.5, 2.0):
            for _ in range(10):
                b = random_brep(gen, channels)
                u = brep_to_urep(b, hbar=hbar).matrix
                want = _block_formula_urep(b)
                assert np.max(np.abs(u - want)) <= 1e-14 * np.max(np.abs(want))
                assert np.array_equal(u, u.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_brep_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="^efficiency vector has non-finite entries$"):
        BRep([0.5, bad], np.eye(2), [0.5, 0.5])
    with pytest.raises(ValidationError, match="^mixing unitary has non-finite entries$"):
        BRep([0.5], [[bad]], [0.5])
    with pytest.raises(ValidationError, match="^splitting vector has non-finite entries$"):
        BRep([0.5], [[1.0]], [bad])
    with pytest.raises(ValidationError, match="^mixing unitary has non-finite entries$"):
        BRep([0.5], [[complex(0.0, bad)]], [0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ortho_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="^post-processing matrix has non-finite entries$"):
        OrthoMatrix([[bad, 0.0], [0.0, 1.0]])
