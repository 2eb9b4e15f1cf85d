"""Unit tests for the dense operator-algebra kernel."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from timebins.chain import ChainState
from timebins.model import (
    CoarseParams,
    bin_generator,
    dephasing_variant,
    truncated_oscillator,
    two_level_system,
)
from timebins.operators import StateVector, expm, vn_entropy

from oracle import (
    Operator,
    basis_state,
    commutator,
    dagger,
    identity,
    kron,
    partial_trace,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_operator(rng, dims):
    side = math.prod(dims)
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return Operator(m, dims)


def refused(vec, message):
    """``ChainState`` makes every check on a chain's state vector; assert it
    refuses ``vec`` with ``message`` and emits no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=message):
            ChainState(vec, 2, n_bins=1)
    assert caught == []


def test_statevector_validates_length():
    refused(StateVector(np.zeros(3), (2, 2)),
            r"^vector length \(3,\) does not match factor dimensions \(2, 2\)$")
    assert np.linalg.norm(StateVector(basis_state(4, 2), (4,)).data) == 1.0
    refused(StateVector(np.ones(1), ()), "^need at least one tensor factor$")
    refused(StateVector(np.zeros(0), (2, 0)), r"^factor dimensions must be >= 1, got \(2, 0\)$")


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]
)
def test_statevector_rejects_non_finite_amplitudes(bad):
    data = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
    data[2] = bad
    refused(StateVector(data, (2, 2)), "^state vector has non-finite amplitudes$")


def test_statevector_takes_finite_amplitudes_whose_squares_overflow():
    # a plain record: it keeps what it is given, as a flat complex array and
    # a tuple of ints, and reads no amplitude (ChainState refuses this one
    # for its norm)
    vec = StateVector(np.array([[1e200], [1e200j], [0.0]]), [np.int64(3)])
    assert vec.data.shape == (3,) and vec.data.dtype == complex
    assert vec.dims == (3,) and type(vec.dims[0]) is int
    assert np.all(np.isfinite(vec.data))


def test_kron_identities():
    lhs = kron(identity((2,)), identity((3,)))
    np.testing.assert_array_equal(lhs.data, np.eye(6))
    assert lhs.dims == (2, 3)

    lifted = kron(Operator(SIGMA_Z, (2,)), identity((2,)))
    np.testing.assert_array_equal(lifted.data, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_trace_factorizes():
    rng = np.random.default_rng(7)
    a = random_operator(rng, (2,))
    b = random_operator(rng, (2,))
    # independent oracle: explicit four-index expansion
    direct = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    direct[2 * i + k, 2 * j + l] = a.data[i, j] * b.data[k, l]
    np.testing.assert_allclose(kron(a, b).data, direct, atol=0)
    np.testing.assert_allclose(
        np.trace(kron(a, b).data), np.trace(a.data) * np.trace(b.data), rtol=1e-13
    )


def test_kron_associativity():
    rng = np.random.default_rng(11)
    a = random_operator(rng, (2,))
    b = random_operator(rng, (3,))
    c = random_operator(rng, (2,))
    lhs = kron(kron(a, b), c)
    rhs = kron(a, kron(b, c))
    assert lhs.dims == rhs.dims == (2, 3, 2)
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-15)


def test_dagger_involution_and_ladder():
    rng = np.random.default_rng(3)
    a = random_operator(rng, (3,))
    np.testing.assert_array_equal(dagger(dagger(a)).data, a.data)
    np.testing.assert_array_equal(dagger(identity((3,))).data, np.eye(3))

    lower = np.diag(np.sqrt([1.0, 2.0]), 1).astype(complex)
    raised = dagger(Operator(lower, (3,)))
    np.testing.assert_allclose(raised.data, np.diag(np.sqrt([1.0, 2.0]), -1))


def test_dagger_antihomomorphism():
    rng = np.random.default_rng(5)
    a = random_operator(rng, (4,))
    b = random_operator(rng, (4,))
    lhs = dagger(a @ b)
    rhs = dagger(b) @ dagger(a)
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-13)


def test_commutator_cases():
    rng = np.random.default_rng(13)
    a = random_operator(rng, (3,))
    assert np.max(np.abs(commutator(a, a).data)) == 0.0

    sigma = Operator(np.array([[0, 1], [0, 0]], dtype=complex), (2,))
    np.testing.assert_allclose(
        commutator(sigma, dagger(sigma)).data, np.diag([1.0, -1.0])
    )

    with pytest.raises(ValueError):
        commutator(a, random_operator(rng, (2,)))


def test_commutator_truncated_ladder():
    # [dB, dB^dag] on a 4-level truncation: identity except the edge artifact.
    lower = Operator(np.diag(np.sqrt([1.0, 2.0, 3.0]), 1).astype(complex), (4,))
    got = commutator(lower, dagger(lower))
    np.testing.assert_allclose(got.data, np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-14)


def test_expm_zero_and_rotation():
    np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    # closed form: exp(-i theta sigma_x) = cos(theta) I - i sin(theta) sigma_x
    theta = math.pi / 2
    got = expm(-1j * theta * SIGMA_X)
    np.testing.assert_allclose(got, -1j * SIGMA_X, atol=1e-13)


def test_expm_excitation_block_rotation():
    # 0.1 (sigma x dB^dag - sigma^dag x dB) rotates the {|e,0>, |g,1>} pair.
    sigma = np.array([[0, 1], [0, 0]], dtype=complex)
    db = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = 0.1 * (np.kron(sigma, db.conj().T) - np.kron(sigma.conj().T, db))
    u = expm(gen)
    np.testing.assert_allclose(u[2, 2], math.cos(0.1), atol=1e-12)
    np.testing.assert_allclose(u[1, 2], math.sin(0.1), atol=1e-12)


def test_expm_matches_scipy():
    rng = np.random.default_rng(17)
    gens = []
    for n in (2, 3, 6):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = m - m.conj().T
        gens.append(m * (10.0 / np.linalg.norm(m, 1)))
    systems = (
        two_level_system(),
        two_level_system(0.0, 1.0),
        truncated_oscillator(3),
        dephasing_variant(two_level_system()),
    )
    for system in systems:
        for n_max in range(1, 7):
            for dt in (0.01, 0.1):
                gens.append(bin_generator(system, CoarseParams(1.0, dt, n_max)))
    for gen in gens:
        got = expm(gen)
        ref = scipy.linalg.expm(gen)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.linalg.norm(ref, 1)


def test_expm_rejects_a_generator_that_is_not_antihermitian():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match="anti-Hermitian"):
        expm(m)
    gen = m - m.conj().T
    gen[0, 1] += 1e-11
    with pytest.raises(ValueError, match="anti-Hermitian"):
        expm(gen)


def test_expm_unitary_for_antihermitian():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    gen = m - m.conj().T
    u = expm(gen)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)


def test_expm_rejects_nonfinite():
    bad = np.array([[0.0, np.inf], [0.0, 0.0]])
    with pytest.raises(ValueError):
        expm(bad)


def test_partial_trace_product_state():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    joint = Operator(np.kron(a, b), (2, 3))
    got = partial_trace(joint, 0)
    np.testing.assert_allclose(got.data, a * np.trace(b), atol=1e-13)
    assert got.dims == (2,)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rho = Operator(np.outer(bell, bell.conj()), (2, 2))
    np.testing.assert_allclose(partial_trace(rho, 0).data, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_preserves_trace_and_is_linear():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = Operator(m @ m.conj().T, (2, 2))
    reduced = partial_trace(psd, 1)
    # oracle: direct index summation
    direct = np.zeros((2, 2), dtype=complex)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                direct[i, j] += psd.data[2 * k + i, 2 * k + j]
    np.testing.assert_allclose(reduced.data, direct, atol=1e-13)
    assert abs(np.trace(reduced.data) - np.trace(psd.data)) <= 1e-12 * psd.dim

    a = random_operator(rng, (2, 2))
    b = random_operator(rng, (2, 2))
    lhs = partial_trace(a * 0.3 + b * (-2.0), 0)
    rhs = 0.3 * partial_trace(a, 0) + (-2.0) * partial_trace(b, 0)
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-13)


def test_partial_trace_middle_factor_oracle():
    rng = np.random.default_rng(31)
    op = random_operator(rng, (2, 3, 2))
    got = partial_trace(op, (0, 2))
    # oracle: loop over the traced middle index
    tensor = op.data.reshape(2, 3, 2, 2, 3, 2)
    direct = np.zeros((2, 2, 2, 2), dtype=complex)
    for m in range(3):
        direct += tensor[:, m, :, :, m, :]
    np.testing.assert_allclose(got.data, direct.reshape(4, 4), atol=1e-13)
    assert got.dims == (2, 2)


def test_partial_trace_rejects_bad_indices():
    rng = np.random.default_rng(37)
    op = random_operator(rng, (2, 2))
    with pytest.raises(ValueError):
        partial_trace(op, 2)
    with pytest.raises(ValueError):
        partial_trace(op, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(op, ())


def test_vn_entropy_values():
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert vn_entropy(pure) == 0.0

    mixed = np.eye(2, dtype=complex) / 2
    np.testing.assert_allclose(vn_entropy(mixed), math.log(2.0), rtol=1e-13)

    # scalar oracle evaluated in place
    p = math.exp(-1.0)
    rho = np.diag([p, 1.0 - p]).astype(complex)
    expected = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    np.testing.assert_allclose(vn_entropy(rho), expected, rtol=1e-12)
    np.testing.assert_allclose(expected, 0.657817, atol=5e-7)


def test_vn_entropy_bounds_and_errors():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    s = vn_entropy(rho)
    assert -1e-12 <= s <= math.log(4.0) + 1e-12

    with pytest.raises(ValueError):
        vn_entropy(m)


def test_vn_entropy_uses_the_operator_hermiticity_tolerance():
    # a defect of 1e-9 is far above HERMITICITY_TOL = 1e-12
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = 1e-9
    with pytest.raises(ValueError, match="Hermitian matrix \\(defect 1.000e-09\\)"):
        vn_entropy(rho)
    rho[0, 1] = 1e-13
    assert vn_entropy(rho) == pytest.approx(math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_matrix_functions_reject_a_matrix_that_is_not_square(shape):
    # expm takes a (k, n, n) stack, so its three-axis case is a stack of
    # matrices that are not square
    expm_shape = (2, 2, 3) if len(shape) == 3 else shape
    with pytest.raises(ValueError, match="square matrix"):
        expm(np.zeros(expm_shape, dtype=complex))
    with pytest.raises(ValueError, match="square matrix"):
        vn_entropy(np.zeros(shape, dtype=complex))
