"""Unit tests for the exact system-plus-bins pure-state chain."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from timebins.chain import (
    ChainState,
    init_chain,
    reduced_system,
    step_chain,
)
from timebins.channel import DensityMatrix, extract_kraus, iterate_channel
from timebins.errors import GuardError, StateError
from timebins.experiments import MARKOV_DEFECT_TOL
from timebins.model import (
    CoarseParams,
    coarse_map,
    dephasing_variant,
    truncated_oscillator,
    two_level_system,
)
from timebins.operators import StateVector

from oracle import (
    basis_state,
    bins_met_vector,
    conj_reduced_system,
    dense_step_chain,
    dense_vector,
    factorization_report,
    feedback_markov_defect,
)


def tls_setup(gamma=1.0, dt=0.01, n_max=1, n_bins=3, dephasing=False, start=None):
    system = two_level_system()
    if dephasing:
        system = dephasing_variant(system)
    u = coarse_map(system, CoarseParams(gamma, dt, n_max))
    family = extract_kraus(u, 2, n_max)
    vec = basis_state(2, 1) if start is None else start
    return u, family, init_chain(vec, n_bins, n_max)


def test_init_chain_product_state():
    _, _, state = tls_setup()
    assert dense_vector(state).shape == (16,)
    nonzero = np.flatnonzero(dense_vector(state))
    assert list(nonzero) == [8]  # |e> (x) |000> sits at index 1*2^3
    assert np.linalg.norm(state.vec.data) == pytest.approx(1.0)
    assert state.cursor == 0

    reduced = reduced_system(state)
    np.testing.assert_allclose(reduced, np.diag([0.0, 1.0]), atol=1e-15)


def test_init_chain_overflow_guard():
    with pytest.raises(GuardError):
        init_chain(basis_state(2, 1), n_bins=12, n_max=3)


def test_init_chain_needs_a_bin_with_a_photon():
    with pytest.raises(ValueError, match="at least one bin"):
        init_chain(basis_state(2, 1), n_bins=0, n_max=1)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        init_chain(basis_state(2, 1), n_bins=1, n_max=0)


def test_init_chain_checks_the_amplitudes_it_is_given():
    with pytest.raises(ValueError, match="state vector has non-finite amplitudes"):
        init_chain(np.array([0.0, np.nan]), n_bins=1, n_max=1)
    with pytest.raises(ValueError, match="factor dimensions must be >= 1"):
        init_chain(np.zeros(0), n_bins=1, n_max=1)
    with pytest.raises(ValueError, match="norm drifted"):
        init_chain(np.ones(2), n_bins=1, n_max=1)


def test_init_chain_caps_the_final_size_without_allocating_it():
    # 2 * 3**13 = 3 188 646 amplitudes fit under the 2**22 cap, 2 * 3**14 do not;
    # both are decided before any collision, and nothing of size 3**n_bins is
    # allocated up front
    tracemalloc.start()
    try:
        state = init_chain(basis_state(2, 1), n_bins=13, n_max=2)
        with pytest.raises(GuardError, match="9565938 amplitudes"):
            init_chain(basis_state(2, 1), n_bins=14, n_max=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (state.cursor, state.n_bins, state.vec.data.size) == (0, 13, 2)
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["tls", "tls-driven", "oscillator3", "dephasing"])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_step_chain_matches_the_full_length_oracle(name, n_max):
    # the product state contracted, amplitude by amplitude, and its reduced
    # state, against the dense chain at every collision; every bin is an
    # isometry and the centre keeps at most s rows
    system = {
        "tls": two_level_system(),
        "tls-driven": two_level_system(omega0=0.4, drive=1.0),
        "oscillator3": truncated_oscillator(3, omega0=0.2),
        "dephasing": dephasing_variant(two_level_system(drive=0.7)),
    }[name]
    s, n_bins = system.dim, 6
    u = coarse_map(system, CoarseParams(1.0, 0.3, n_max))
    start = np.arange(1, s + 1) * np.exp(0.5j * np.arange(s))
    state = init_chain(start / np.linalg.norm(start), n_bins, n_max)
    dense = dense_vector(state)
    for k in range(n_bins):
        dense = dense_step_chain(dense, u, s, n_max + 1, k)
        state = step_chain(state, u)
        np.testing.assert_allclose(dense_vector(state), dense, rtol=0, atol=1e-14)
        v = dense.reshape(s, -1)
        np.testing.assert_allclose(
            reduced_system(state), v @ v.conj().T, rtol=0, atol=1e-14
        )
        q = state.bins[-1].reshape(-1, state.bins[-1].shape[2])
        np.testing.assert_allclose(q.conj().T @ q, np.eye(q.shape[1]), rtol=0, atol=1e-14)
        assert state.vec.data.shape[0] <= s


def test_a_map_that_is_not_unitary_is_refused_for_its_norm():
    # the step never checks U itself: the centre's norm check catches it
    u, _, state = tls_setup(n_bins=3)
    for _ in range(3):
        with pytest.raises(ValueError, match=r"^chain state norm drifted by 1\.000e-06$"):
            step_chain(state, u * (1.0 + 1e-6))
        state = step_chain(state, u)


def test_a_nan_map_is_refused_as_non_finite_without_a_linalg_error():
    # QR passes NaN on to the centre, whose check names it
    u, _, state = tls_setup(n_bins=3)
    bad = u.copy()
    bad[0, 2] = np.nan  # an entry of the excited system's vacuum-input column
    for _ in range(3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^state vector has non-finite amplitudes$") as err:
                step_chain(state, bad)
        assert type(err.value) is ValueError and caught == []
        state = step_chain(state, u)


@pytest.mark.parametrize("name, n_bins", [("tls-driven", 13), ("oscillator3", 10)])
def test_centre_reduction_matches_the_contracted_product(name, n_bins):
    # the reduced state read off the (bond, s) centre alone against
    # v^T conj(v) of the contracted chain, at every collision of the largest
    # chains the exact workload runs (up to 2 * 3**13 = 3 188 646 amplitudes)
    system = {
        "tls-driven": two_level_system(omega0=0.4, drive=1.0),
        "oscillator3": truncated_oscillator(3, omega0=0.2),
    }[name]
    s = system.dim
    u = coarse_map(system, CoarseParams(1.0, 0.1, 2))
    start = np.arange(1, s + 1) * np.exp(0.5j * np.arange(s))
    state = init_chain(start / np.linalg.norm(start), n_bins, 2)
    for k in range(n_bins + 1):
        if k:
            state = step_chain(state, u)
        np.testing.assert_allclose(
            reduced_system(state), conj_reduced_system(state), rtol=0, atol=1e-14
        )
    assert bins_met_vector(state).size == s * 3**n_bins
    assert state.vec.data.size == s * s


def test_step_chain_identity_map_only_moves_cursor():
    u, _, state = tls_setup(gamma=0.0)
    stepped = step_chain(state, u)
    np.testing.assert_array_equal(dense_vector(stepped), dense_vector(state))
    assert stepped.cursor == 1


def test_step_chain_first_collision_amplitudes():
    u, _, state = tls_setup()
    stepped = step_chain(state, u)
    theta = 0.1
    v = dense_vector(stepped).reshape(2, 2, 2, 2)  # (sys, bin0, bin1, bin2)
    np.testing.assert_allclose(v[1, 0, 0, 0], math.cos(theta), atol=1e-12)
    np.testing.assert_allclose(v[0, 1, 0, 0], math.sin(theta), atol=1e-12)
    assert np.linalg.norm(stepped.vec.data) == pytest.approx(1.0, abs=1e-12)


def test_step_chain_two_collisions():
    u, _, state = tls_setup()
    theta = 0.1
    state = step_chain(step_chain(state, u), u)
    v = dense_vector(state).reshape(2, 2, 2, 2)
    np.testing.assert_allclose(v[1, 0, 0, 0], math.cos(theta) ** 2, atol=1e-12)
    np.testing.assert_allclose(v[0, 1, 0, 0], math.sin(theta), atol=1e-12)
    np.testing.assert_allclose(
        v[0, 0, 1, 0], math.cos(theta) * math.sin(theta), atol=1e-12
    )


def test_step_chain_exhausts_bins():
    u, _, state = tls_setup(n_bins=2)
    state = step_chain(step_chain(state, u), u)
    with pytest.raises(GuardError):
        step_chain(state, u)


def test_step_chain_rejects_a_mis_shaped_map():
    u, _, state = tls_setup(n_max=1)
    u3 = coarse_map(two_level_system(), CoarseParams(1.0, 0.01, 2))
    for bad in (u3, u[:, :2], u[0], np.eye(2)):
        with pytest.raises(ValueError, match="does not match"):
            step_chain(state, bad)


def test_bins_ahead_of_cursor_stay_in_vacuum():
    u, _, state = tls_setup(gamma=1.0, dt=0.3, n_bins=5)
    for k in range(5):
        state = step_chain(state, u)
        v = dense_vector(state).reshape(2, *([2] * 5))
        for untouched in range(state.cursor, 5):
            excited_slice = np.take(v, 1, axis=1 + untouched)
            assert np.max(np.abs(excited_slice)) == 0.0


def test_norm_conserved_along_chain():
    u, _, state = tls_setup(dt=0.2, n_bins=12)
    for _ in range(12):
        state = step_chain(state, u)
    assert abs(np.linalg.norm(state.vec.data) - 1.0) <= 1e-11


def test_reduced_dynamics_equals_kraus_iteration():
    # the Markov recursion: tracing the exact chain reproduces the channel
    for dephasing, start in [(False, None), (True, np.array([1.0, 1.0]) / math.sqrt(2))]:
        u, family, state = tls_setup(
            dt=0.1, n_bins=8, dephasing=dephasing, start=start
        )
        rho0 = DensityMatrix(reduced_system(state))
        series = iterate_channel(family, rho0, 8)
        for k in range(1, 9):
            state = step_chain(state, u)
            defect = float(np.max(np.abs(reduced_system(state) - series[k])))
            assert defect <= 1e-10


def test_reduced_state_decays_to_ground():
    u, _, state = tls_setup(dt=0.8, n_bins=12)
    for _ in range(12):
        state = step_chain(state, u)
    reduced = reduced_system(state)
    np.testing.assert_allclose(reduced, np.diag([1.0, 0.0]), atol=2e-2)


def test_reduced_system_checks_the_state_it_returns():
    # a norm off by 0.9e-10 passes the chain's norm check, but the trace of
    # the reduced state is off by twice that, past the state check's 1e-10
    _, _, state = tls_setup(start=np.array([0.6, 0.8j]))
    vec = StateVector(state.vec.data * (1.0 + 0.9e-10))
    scaled = ChainState(vec, state.bin_dim, state.n_bins)
    with pytest.raises(StateError, match=r"^density matrix trace 1\.00000000018\d* is not 1$"):
        reduced_system(scaled)


@pytest.mark.parametrize("start", [[0.0, 1.0], [0.6, 0.8j]])
def test_a_bin_that_returns_breaks_the_markov_recursion(start):
    # negative control for the factorization assumption: with every bin met
    # once the reduced state is the Kraus iteration to roundoff, but a bin
    # that meets the system again carries back what it took, and the defect
    # against the iteration, one step per collision, is of order one
    u, family, _ = tls_setup(dt=0.3, n_max=2)
    start = np.array(start, dtype=complex)
    assert feedback_markov_defect(u, family, start, 8, delay=None) <= 1e-14
    for delay in (1, 2, 3):
        assert feedback_markov_defect(u, family, start, 8, delay) > 1e8 * MARKOV_DEFECT_TOL


def test_factorization_report_initial_state():
    _, family, state = tls_setup()
    rho0 = DensityMatrix.pure([0.0, 1.0])
    report = factorization_report(state, family, rho0)
    assert report.entropy == pytest.approx(0.0, abs=1e-12)
    assert report.markov_defect <= 1e-14


def test_factorization_report_entropy_peak_at_half_decay():
    # dt chosen so that collision six lands at gamma t = ln 2, where the
    # reduced state is closest to maximally mixed
    dt = math.log(2.0) / 6.0
    u, family, state = tls_setup(dt=dt, n_bins=12)
    rho0 = DensityMatrix.pure([0.0, 1.0])
    entropies = []
    for _ in range(12):
        state = step_chain(state, u)
        report = factorization_report(state, family, rho0)
        assert report.markov_defect <= 1e-10
        entropies.append(report.entropy)
    peak = max(entropies)
    assert peak == pytest.approx(math.log(2.0), abs=2e-3)
    assert entropies.index(peak) == 5  # sixth collision

    # Schmidt oracle: the global state is pure, so the entropy is the binary
    # entropy of rho_ee = cos^{2k}(theta)
    theta = math.sqrt(dt)
    for k, got in enumerate(entropies, start=1):
        p = math.cos(theta) ** (2 * k)
        expected = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_factorization_report_dephasing_diagonal_state_stays_product():
    u, family, state = tls_setup(dephasing=True, n_bins=6, dt=0.2)
    rho0 = DensityMatrix.pure([0.0, 1.0])
    for _ in range(6):
        state = step_chain(state, u)
        report = factorization_report(state, family, rho0)
        assert report.entropy <= 1e-12
        assert report.markov_defect <= 1e-12


def test_entanglement_witness_unimodal():
    # entropy rises from 0 and falls back toward 0 as the state purifies
    u, family, state = tls_setup(dt=0.45, n_bins=16)
    rho0 = DensityMatrix.pure([0.0, 1.0])
    entropies = [factorization_report(state, family, rho0).entropy]
    for _ in range(16):
        state = step_chain(state, u)
        entropies.append(factorization_report(state, family, rho0).entropy)
    assert entropies[0] == pytest.approx(0.0, abs=1e-12)
    peak = int(np.argmax(entropies))
    assert 0 < peak < 16
    rising = entropies[: peak + 1]
    falling = entropies[peak:]
    assert all(b >= a - 1e-3 for a, b in zip(rising, rising[1:]))
    assert all(b <= a + 1e-3 for a, b in zip(falling, falling[1:]))
    assert entropies[-1] < 0.02


def test_chain_state_validation():
    # only step_chain hands a state its bins: a state built directly has met
    # none, so its cursor is 0 and its centre's bond is 1
    centre = StateVector(np.ones((2, 2)) / 2.0)
    with pytest.raises(ValueError, match=r"^cursor 0 out of range for -1 bins$"):
        ChainState(StateVector(np.array([[0.6, 0.8]])), 2, n_bins=-1)
    with pytest.raises(ValueError, match="norm"):
        ChainState(StateVector(np.ones((1, 2))), 2, n_bins=2)
    with pytest.raises(ValueError, match=r"needs bond 1, got dimensions \(2, 2\)$"):
        ChainState(centre, 2, n_bins=2)
    # a bin that is not an isometry cannot be handed in: the centre's norm
    # would not be the global norm
    with pytest.raises(TypeError, match="unexpected keyword argument 'bins'"):
        ChainState(centre, 2, n_bins=2, bins=(2 * np.eye(2).reshape(1, 2, 2),))


def test_chain_state_rejects_a_norm_that_overflows():
    # every amplitude is finite, but the squared norm overflows to inf, so
    # the chain's norm check rejects it, with no overflow warning
    vec = StateVector(np.array([[1e200, 0.0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^chain state norm drifted by inf$"):
            ChainState(vec, 2, n_bins=1)
    assert caught == []
