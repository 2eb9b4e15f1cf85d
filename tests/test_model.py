"""Unit tests for system models and the coarse-grained one-bin map."""

import math

import numpy as np
import pytest
import scipy.linalg

from timebins.channel import extract_kraus, propagate, step_matrix
from timebins.model import (
    CoarseParams,
    SystemModel,
    bin_generator,
    coarse_map,
    dephasing_variant,
    lowering_matrix,
    ordering_residual,
    truncated_oscillator,
    two_level_system,
)

from oracle import Operator, commutator, dagger, identity, kron


def test_two_level_system_hamiltonians():
    free = two_level_system(0.0, 0.0)
    assert np.max(np.abs(free.hamiltonian)) == 0.0
    np.testing.assert_array_equal(free.lowering, [[0, 1], [0, 0]])

    detuned = two_level_system(1.0, 0.0)
    np.testing.assert_array_equal(detuned.hamiltonian, np.diag([0.0, 1.0]))

    driven = two_level_system(0.0, 0.5)
    np.testing.assert_array_equal(
        driven.hamiltonian, 0.5 * np.array([[0, 1], [1, 0]])
    )


def test_dephasing_variant_coupling():
    deph = dephasing_variant(two_level_system(0.3, 0.0))
    np.testing.assert_array_equal(deph.lowering, np.diag([0.0, 1.0]))
    np.testing.assert_array_equal(
        deph.lowering, dagger(Operator(deph.lowering, (2,))).data
    )
    np.testing.assert_array_equal(
        deph.hamiltonian, two_level_system(0.3, 0.0).hamiltonian
    )


def test_bin_space_ladder():
    db = lowering_matrix(4)
    assert db.shape == (4, 4)
    for m in range(1, 4):
        ket = np.zeros(4)
        ket[m] = 1.0
        out = db @ ket
        expect = np.zeros(4)
        expect[m - 1] = math.sqrt(m)
        np.testing.assert_allclose(out, expect)
    np.testing.assert_array_equal(db @ np.eye(4)[:, 0], np.zeros(4))
    with pytest.raises(ValueError, match="at least two levels"):
        lowering_matrix(1)


def test_system_model_rejects_mis_shaped_operators():
    sigma = lowering_matrix(2)
    h = np.zeros((2, 2))
    for lowering, hamiltonian in [
        (np.zeros((2, 3)), h),
        (sigma, np.zeros((2, 3))),
        (lowering_matrix(3), h),
        (sigma, np.zeros((3, 3))),
        (np.zeros(4), h),
    ]:
        with pytest.raises(ValueError, match="do not match the system dimension"):
            SystemModel(lowering, hamiltonian)


def test_system_model_rejects_a_non_hermitian_hamiltonian():
    sigma = lowering_matrix(2)
    with pytest.raises(ValueError, match="must be Hermitian"):
        SystemModel(sigma, sigma)


def test_coarse_params_validation():
    with pytest.raises(ValueError):
        CoarseParams(-1.0, 0.1, 1)
    with pytest.raises(ValueError):
        CoarseParams(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        CoarseParams(1.0, 0.1, 0)


def test_bin_generator_decoupled_limit():
    system = two_level_system(0.7, 0.2)
    params = CoarseParams(0.0, 0.05, 2)
    gen = bin_generator(system, params)
    expected = (-1j * 0.05) * kron(Operator(system.hamiltonian, (2,)), identity((3,)))
    np.testing.assert_allclose(gen, expected.data, atol=1e-15)


def test_bin_generator_hand_built_matrix():
    # gamma=1, dt=0.01, n_max=1: only |e,0> <-> |g,1> couple, amplitude 0.1.
    system = two_level_system()
    gen = bin_generator(system, CoarseParams(1.0, 0.01, 1))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 0.1  # <g,1| G |e,0>
    expected[2, 1] = -0.1
    np.testing.assert_allclose(gen, expected, atol=1e-15)
    assert gen.shape == (4, 4)


def test_bin_generator_antihermitian():
    rng = np.random.default_rng(2)
    for _ in range(20):
        omega0, drive = rng.uniform(-2, 2, size=2)
        gamma, dt = rng.uniform(0.01, 3.0, size=2)
        gen = bin_generator(
            two_level_system(omega0, drive), CoarseParams(gamma, dt, 3)
        )
        assert np.max(np.abs(gen + gen.conj().T)) <= 1e-12


def test_excitation_conservation_for_diagonal_hamiltonian():
    system = two_level_system(1.3, 0.0)
    params = CoarseParams(0.8, 0.05, 3)
    gen = Operator(bin_generator(system, params), (2, 4))
    lowering = Operator(system.lowering, (2,))
    number_sys = dagger(lowering) @ lowering
    db = Operator(lowering_matrix(4), (4,))
    number_bin = dagger(db) @ db
    total = kron(number_sys, identity((4,))) + kron(identity((2,)), number_bin)
    assert np.max(np.abs(commutator(gen, total).data)) <= 1e-12


def test_coarse_map_identity_and_rotation():
    system = two_level_system()
    u = coarse_map(system, CoarseParams(0.0, 0.1, 1))
    np.testing.assert_array_equal(u, np.eye(4))

    u = coarse_map(system, CoarseParams(1.0, 0.01, 1))
    np.testing.assert_allclose(u[2, 2], math.cos(0.1), atol=1e-12)
    np.testing.assert_allclose(u[1, 2], math.sin(0.1), atol=1e-12)


def test_coarse_map_unitary():
    rng = np.random.default_rng(4)
    for _ in range(10):
        system = two_level_system(rng.uniform(-1, 1), rng.uniform(-1, 1))
        params = CoarseParams(rng.uniform(0.1, 2.0), rng.uniform(0.01, 0.5), 2)
        u = Operator(coarse_map(system, params), (2, 3))
        udu = dagger(u) @ u
        assert np.max(np.abs((udu - identity(u.dims)).data)) <= 1e-12


@pytest.mark.parametrize("name", ["tls", "tls-driven", "oscillator3", "dephasing"])
def test_long_collision_trajectory_matches_a_scipy_built_unitary(name):
    # every collision reapplies the same map, so an error in U compounds over
    # the 10^4 steps; scipy's expm of the same generator is the reference
    system = {
        "tls": two_level_system(),
        "tls-driven": two_level_system(0.0, 1.0),
        "oscillator3": truncated_oscillator(3),
        "dephasing": dephasing_variant(two_level_system()),
    }[name]
    vec = np.zeros(system.dim, dtype=complex)
    vec[-1] = 1.0
    if name == "dephasing":
        vec[:] = 1.0 / math.sqrt(2.0)
    rho0 = np.outer(vec, vec.conj())
    dt = 0.02
    for n_max in (1, 2, 4):
        params = CoarseParams(1.0, dt, n_max)
        gen = bin_generator(system, params)
        ref_u = scipy.linalg.expm(gen)
        got, ref = (
            propagate(step_matrix(extract_kraus(u, system.dim, n_max, dt)), rho0, 10_000)
            for u in (coarse_map(system, params), ref_u)
        )
        assert np.max(np.abs(got - ref)) <= 2e-13


def test_coarse_map_depends_only_on_gamma_dt_product_without_hamiltonian():
    system = two_level_system()
    u1 = coarse_map(system, CoarseParams(2.0, 0.05, 2))
    u2 = coarse_map(system, CoarseParams(0.5, 0.2, 2))
    np.testing.assert_allclose(u1, u2, atol=1e-14)


def test_coarse_map_block_is_planar_rotation():
    system = two_level_system()
    for gamma, dt in [(1.0, 0.01), (0.5, 0.3), (2.0, 0.8)]:
        theta = math.sqrt(gamma * dt)
        u = coarse_map(system, CoarseParams(gamma, dt, 2))
        # n_max=2: states ordered |g0 g1 g2 e0 e1 e2>; block {|e,0>, |g,1>}
        np.testing.assert_allclose(u[3, 3], math.cos(theta), atol=1e-12)
        np.testing.assert_allclose(u[1, 3], math.sin(theta), atol=1e-12)
        np.testing.assert_allclose(u[3, 1], -math.sin(theta), atol=1e-12)
        np.testing.assert_allclose(u[0, 0], 1.0, atol=1e-12)


def test_truncated_oscillator_shape():
    osc = truncated_oscillator(3, 0.4)
    assert osc.dim == 3
    np.testing.assert_allclose(osc.lowering, lowering_matrix(3))
    np.testing.assert_allclose(osc.hamiltonian, np.diag([0.0, 0.4, 0.8]))


def test_ordering_residual_free_system_closed_form():
    # With H = 0 the populations obey pure cosine products, so the residual is
    # cos^(2s)(sqrt(g dt / s)) - cos^2(sqrt(g dt)) exactly.
    system = two_level_system()
    for dt, subs in [(0.1, 8), (0.05, 4)]:
        got = ordering_residual(system, CoarseParams(1.0, dt, 2), subs)
        theta = math.sqrt(dt)
        expected = math.cos(math.sqrt(dt / subs)) ** (2 * subs) - math.cos(theta) ** 2
        np.testing.assert_allclose(got, expected, rtol=1e-9)


def test_ordering_residual_free_system_is_second_order():
    system = two_level_system()
    values = [
        ordering_residual(system, CoarseParams(1.0, dt, 2), 8)
        for dt in (0.1, 0.05, 0.025)
    ]
    for coarse, fine in zip(values, values[1:]):
        assert coarse / fine >= 2.0**1.9


def test_ordering_residual_driven_ratios():
    system = two_level_system(0.0, 1.0)
    values = [
        ordering_residual(system, CoarseParams(1.0, dt, 2), 8)
        for dt in (0.1, 0.05, 0.025)
    ]
    for coarse, fine in zip(values, values[1:]):
        assert coarse / fine >= 2.0**1.4


def test_ordering_residual_converges_in_subdivisions():
    system = two_level_system(0.0, 1.0)
    params = CoarseParams(1.0, 0.05, 2)
    values = [ordering_residual(system, params, s) for s in (2, 4, 8, 16, 32, 64)]
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    # the subdivided reference is a Cauchy sequence: the tail gap is tiny
    assert gaps[-1] <= 0.05 * values[-1]


def test_ordering_residual_rejects_bad_subdivisions():
    with pytest.raises(ValueError):
        ordering_residual(two_level_system(), CoarseParams(1.0, 0.1, 2), 1)
