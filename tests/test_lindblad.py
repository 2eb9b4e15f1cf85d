"""Unit tests for the continuum-limit reference integrator and oracles."""

import math
import warnings

import numpy as np
import pytest

from timebins.channel import DensityMatrix, check_states
import timebins.lindblad as lindblad
from timebins.errors import GuardError, StateError
from timebins.lindblad import (
    LindbladModel,
    analytic_oracle,
    integrate_rk4,
    liouvillian_matrix,
)
from timebins.model import (
    SystemModel,
    dephasing_variant,
    truncated_oscillator,
    two_level_system,
)


EXCITED = DensityMatrix.pure([0.0, 1.0])
GROUND = DensityMatrix.pure([1.0, 0.0])
PLUS = DensityMatrix.pure([1.0, 1.0])


def decay_model(gamma=1.0, omega0=0.0, drive=0.0):
    return LindbladModel(two_level_system(omega0, drive), gamma)


def rhs(model, r):
    """-i [H, r] + gamma (L r L^dag - 1/2 {L^dag L, r}) by matrix products."""
    h = model.system.hamiltonian
    c = model.system.lowering
    cdc = c.conj().T @ c
    out = -1j * (h @ r - r @ h)
    out += model.gamma * (c @ r @ c.conj().T - 0.5 * (cdc @ r + r @ cdc))
    return out


def act(model, rho):
    """The Liouvillian matrix applied to a density matrix."""
    r = rho.matrix
    return (liouvillian_matrix(model) @ r.ravel()).reshape(r.shape)


def four_stage_rk4(model, rho0, dt, steps):
    """Classic four-stage RK4 on the matrix ODE, one step at a time, each
    state checked as it is computed."""
    r = rho0.matrix
    series = [r]
    for _ in range(steps):
        k1 = rhs(model, r)
        k2 = rhs(model, r + 0.5 * dt * k1)
        k3 = rhs(model, r + 0.5 * dt * k2)
        k4 = rhs(model, r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        check_states(r[None])
        series.append(r)
    return series


def test_dissipator_dark_state_and_excited_state():
    # at H = 0 the Liouvillian is the dissipator alone
    model = decay_model()
    assert np.max(np.abs(act(model, GROUND))) == 0.0
    np.testing.assert_allclose(act(model, EXCITED), np.diag([1.0, -1.0]), atol=1e-15)


def test_dissipator_traceless_hermitian():
    rng = np.random.default_rng(21)
    model = decay_model(gamma=1.7)
    for _ in range(20):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = act(model, DensityMatrix.pure(v))
        assert abs(np.trace(out)) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


def test_liouvillian_reduces_to_dissipator_at_zero_hamiltonian():
    model = decay_model(gamma=0.6)
    out = act(model, PLUS)
    np.testing.assert_allclose(out, rhs(model, PLUS.matrix), atol=1e-15)


def test_liouvillian_coherence_rotation():
    # H = sigma_z / 2 with diag(+1/2, -1/2): d rho_eg / dt = +i rho_eg
    h = np.diag([0.5, -0.5]).astype(complex)
    model = LindbladModel(SystemModel(two_level_system().lowering, h), 0.0)
    out = act(model, PLUS)
    np.testing.assert_allclose(out[1, 0], 1j * PLUS.matrix[1, 0], atol=1e-15)


def test_liouvillian_of_maximally_mixed_is_zero_without_decay():
    h = np.array([[0.3, 0.2], [0.2, -0.1]], dtype=complex)
    model = LindbladModel(SystemModel(two_level_system().lowering, h), 0.0)
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert np.max(np.abs(act(model, mixed))) == 0.0


def test_lindblad_model_rejects_mis_shaped_operators():
    sigma = two_level_system().lowering
    with pytest.raises(ValueError, match="do not match"):
        LindbladModel(SystemModel(sigma, np.zeros((2, 3))), 1.0)
    with pytest.raises(ValueError, match="do not match"):
        LindbladModel(SystemModel(sigma, np.zeros((3, 3))), 1.0)
    with pytest.raises(ValueError, match="do not match"):
        LindbladModel(SystemModel(sigma[:, :1], np.zeros((2, 2))), 1.0)


def test_lindblad_model_rejects_a_negative_rate():
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        LindbladModel(two_level_system(), -1.0)


def test_liouvillian_fixed_point_ground_state():
    model = decay_model()
    assert np.max(np.abs(act(model, GROUND))) == 0.0


def test_rk4_spontaneous_decay():
    series = integrate_rk4(decay_model(), EXCITED, 0.01, 100)
    got = series[-1][1, 1].real
    np.testing.assert_allclose(got, math.exp(-1.0), atol=1e-9)


def test_rk4_coherence_decay():
    series = integrate_rk4(decay_model(), PLUS, 0.01, 100)
    got = abs(series[-1][1, 0])
    np.testing.assert_allclose(got, 0.5 * math.exp(-0.5), atol=1e-9)


def test_rk4_dephasing():
    model = LindbladModel(dephasing_variant(two_level_system()), 1.0)
    series = integrate_rk4(model, PLUS, 0.01, 100)
    final = series[-1]
    np.testing.assert_allclose(np.diag(final).real, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(abs(final[1, 0]), 0.5 * math.exp(-0.5), atol=1e-9)


def test_rk4_fourth_order_convergence():
    target = math.exp(-1.0)

    def error_at(dt):
        series = integrate_rk4(decay_model(), EXCITED, dt, round(1.0 / dt))
        return abs(series[-1][1, 1].real - target)

    coarse, fine = error_at(0.05), error_at(0.0125)
    assert coarse / fine >= 4.0**3


def test_rk4_keeps_trace_and_hermiticity():
    series = integrate_rk4(decay_model(gamma=0.8, drive=0.4), EXCITED, 0.002, 2000)
    for m in series[::100]:
        assert abs(np.trace(m).real - 1.0) <= 1e-10
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10


def test_rk4_guard_aborts_on_broken_trace():
    rho = DensityMatrix.pure([0.0, 1.0])
    # bypass construction-time validation to emulate numerical corruption
    rho.matrix[1, 1] += 2e-8
    with pytest.raises(StateError) as fast:
        integrate_rk4(decay_model(), rho, 0.01, 5)
    # the same message, at the first step, as the four-stage loop
    with pytest.raises(StateError) as slow:
        four_stage_rk4(decay_model(), rho, 0.01, 5)
    assert str(fast.value) == str(slow.value)
    assert str(fast.value).startswith("density matrix trace 1.00000002")


def test_rk4_refuses_an_unstable_step_before_propagating(monkeypatch):
    def propagate(*args):
        raise AssertionError("an unstable step was propagated")

    monkeypatch.setattr(lindblad, "propagate", propagate)
    # RK4's polynomial 1 + x + x^2/2 + x^3/6 + x^4/24 is 1.375 at x = -gamma dt
    # = -3, past its stability region; at gamma = 1e300 the step overflows
    for gamma, dt, message in (
        (60.0, 0.05, r"^RK4 step unstable at gamma\*dt = 3: spectral radius 1\.375 > 1; "),
        (1e300, 1.0, r"^RK4 step unstable at gamma\*dt = 1e\+300: spectral radius inf > 1; "),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(GuardError, match=message):
                integrate_rk4(decay_model(gamma=gamma), EXCITED, dt, 40)
        assert caught == []


def test_rk4_takes_a_step_just_inside_its_stability_region():
    # the real stability bound is gamma dt = 2.785...; at 2.78 the states of
    # undriven decay stay valid, rho_ee decaying as p(-2.78)^k
    series = integrate_rk4(decay_model(), EXCITED, 2.78, 20)
    p = 1.0 - 2.78 + 2.78**2 / 2 - 2.78**3 / 6 + 2.78**4 / 24
    np.testing.assert_allclose(series[:, 1, 1].real, p ** np.arange(21), rtol=1e-12)


def test_rk4_rejects_bad_steps():
    with pytest.raises(ValueError):
        integrate_rk4(decay_model(), EXCITED, -0.01, 10)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        integrate_rk4(decay_model(), EXCITED, 0.01, -1)


def test_analytic_oracle_identity_and_limits():
    got = analytic_oracle("spontaneous", 1.0, [0.0], PLUS)[0]
    np.testing.assert_allclose(got, PLUS.matrix, atol=1e-15)

    late = analytic_oracle("spontaneous", 1.0, [80.0], EXCITED)[0]
    np.testing.assert_allclose(late, np.diag([1.0, 0.0]), atol=1e-12)

    half = analytic_oracle("spontaneous", 1.0, [math.log(2.0)], EXCITED)[0]
    np.testing.assert_allclose(half[1, 1].real, 0.5, rtol=1e-12)


def test_analytic_oracle_dephasing():
    got = analytic_oracle("dephasing", 1.0, [1.0], PLUS)[0]
    np.testing.assert_allclose(np.diag(got).real, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(abs(got[1, 0]), 0.5 * math.exp(-0.5), rtol=1e-12)


def test_analytic_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        analytic_oracle("squeezed", 1.0, [1.0], PLUS)[0]
    big = DensityMatrix(np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError):
        analytic_oracle("spontaneous", 1.0, [1.0], big)[0]


@pytest.mark.parametrize(
    "system",
    [
        two_level_system(0.0, 0.0),
        two_level_system(0.8, 0.6),
        dephasing_variant(two_level_system(0.3, 0.5)),
        truncated_oscillator(3, 0.9),
    ],
    ids=["decay", "driven", "dephasing", "oscillator3"],
)
def test_rk4_matches_the_four_stage_loop(system):
    model = LindbladModel(system, 1.3)
    rng = np.random.default_rng(system.dim)
    shape = (system.dim, system.dim)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = m @ m.conj().T
    rho0 = DensityMatrix(rho / np.trace(rho).real)
    fast = integrate_rk4(model, rho0, 0.01, 1000)
    slow = four_stage_rk4(model, rho0, 0.01, 1000)
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(fast, slow))
    assert worst <= 1e-12

