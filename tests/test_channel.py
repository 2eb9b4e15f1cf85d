"""Unit tests for Kraus extraction and the collision channel."""

import math
import warnings

import numpy as np
import pytest

import timebins.channel as channel
import timebins.lindblad as lindblad
from timebins.channel import (
    DensityMatrix,
    KrausFamily,
    apply_channel,
    extract_kraus,
    iterate_channel,
    propagate,
    step_matrix,
)
from timebins.errors import GuardError
from timebins.lindblad import LindbladModel, analytic_oracle, liouvillian_matrix
from timebins.model import (
    CoarseParams,
    coarse_map,
    dephasing_variant,
    expansion_report,
    truncated_oscillator,
    two_level_system,
)

from oracle import kraus_completeness, kraus_map, kraus_step_matrix, stepwise_propagate


def tls_family(gamma=1.0, dt=0.01, n_max=2, omega0=0.0, drive=0.0):
    system = two_level_system(omega0, drive)
    u = coarse_map(system, CoarseParams(gamma, dt, n_max))
    return extract_kraus(u, system.dim, n_max, dt)


EXCITED = DensityMatrix.pure([0.0, 1.0])
GROUND = DensityMatrix.pure([1.0, 0.0])
PLUS = DensityMatrix.pure([1.0, 1.0])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    for shape in [(2, 3), (4,), (1, 2, 2)]:
        with pytest.raises(ValueError, match="must be a square matrix"):
            DensityMatrix(np.zeros(shape))
    m = EXCITED.matrix
    assert np.trace(m @ m).real == pytest.approx(1.0)


def test_density_matrix_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite entries"):
        DensityMatrix(np.full((2, 2), np.nan))
    stack = np.stack([EXCITED.matrix] * 6)
    stack[3, 1, 1] = np.nan
    stack[5, 0, 0] = np.inf
    assert channel.first_invalid(stack) == (3, "density matrix has non-finite entries")


def test_extract_kraus_identity_map():
    family = tls_family(gamma=0.0, dt=0.1)
    np.testing.assert_array_equal(family.ops[0], np.eye(2))
    for op in family.ops[1:]:
        assert np.max(np.abs(op)) == 0.0
    assert family.completeness_defect <= 1e-14


def test_extract_kraus_rotation_blocks():
    family = tls_family()
    theta = 0.1
    sigma = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_allclose(
        family.ops[0], np.diag([1.0, math.cos(theta)]), atol=1e-12
    )
    np.testing.assert_allclose(family.ops[1], math.sin(theta) * sigma, atol=1e-12)

    # the O(dt^{3/2}) distance from the leading form sqrt(gamma dt) sigma
    r1 = np.max(np.abs(family.ops[1] - theta * sigma))
    np.testing.assert_allclose(r1, theta - math.sin(theta), rtol=1e-8)
    # and the O(dt^2) distance of K0 from 1 - dt (gamma/2) n
    r0 = np.max(np.abs(family.ops[0] - np.diag([1.0, 1.0 - 0.005])))
    np.testing.assert_allclose(r0, math.cos(theta) - (1.0 - theta**2 / 2), rtol=1e-8)


def test_extract_kraus_dimension_check():
    system = two_level_system()
    u = coarse_map(system, CoarseParams(1.0, 0.01, 2))
    for bad_u, sys_dim, n_max in [(u, 2, 1), (u, 3, 2), (u[:, :4], 2, 2), (u[0], 2, 2)]:
        with pytest.raises(ValueError, match="map has shape"):
            extract_kraus(bad_u, sys_dim, n_max, 0.01)


def test_completeness_for_excitation_conserving_setups():
    for n_max in (1, 2, 3):
        family = tls_family(gamma=1.0, dt=0.05, n_max=n_max, omega0=0.9)
        assert family.completeness_defect <= 1e-12


def test_apply_channel_rotation_and_fixed_point():
    family = tls_family()
    out = apply_channel(family, EXCITED)
    np.testing.assert_allclose(out.matrix[1, 1].real, math.cos(0.1) ** 2, atol=1e-12)

    fixed = apply_channel(family, GROUND)
    assert np.max(np.abs(fixed.matrix - GROUND.matrix)) <= 1e-14
    with pytest.raises(ValueError, match="different system dimensions"):
        apply_channel(family, DensityMatrix(np.eye(3, dtype=complex) / 3))


def test_apply_channel_flags_truncation_loss():
    family = tls_family()
    # drop the one-photon operator: the remaining family leaks trace
    broken = KrausFamily(
        ops=family.ops[[0, 2]],
        dt=family.dt,
        n_max=1,
        completeness_defect=1.0,
    )
    with pytest.raises(GuardError):
        apply_channel(broken, EXCITED)


def test_apply_channel_warns_on_small_trace_leak():
    # dropping K2 from an oscillator family leaks O((gamma dt)^2) of the trace
    # from the doubly excited state: large enough to notice, small enough to run
    system = truncated_oscillator(3)
    dt = 1e-4
    u = coarse_map(system, CoarseParams(1.0, dt, 2))
    family = extract_kraus(u, 3, 2, dt)
    leaky = KrausFamily(
        ops=family.ops[:2], dt=dt, n_max=2, completeness_defect=1e-8
    )
    top = DensityMatrix.pure([0.0, 0.0, 1.0])
    with pytest.warns(RuntimeWarning, match="trace deviation"):
        out = apply_channel(leaky, top)
    loss = 1.0 - float(np.trace(out.matrix).real)
    assert 1e-10 < loss < 1e-6


def test_iterate_channel_matches_cosine_power():
    family = tls_family()
    series = iterate_channel(family, EXCITED, 100)
    assert len(series) == 101
    expected = math.cos(0.1) ** 200  # closed-form cosine power
    np.testing.assert_allclose(series[-1][1, 1].real, expected, atol=1e-12)
    # the same number sits 6.1e-4 from the continuum limit e^-1
    assert abs(expected - math.exp(-1.0)) == pytest.approx(6.143e-4, rel=1e-3)


def test_iterate_channel_zero_steps_returns_input():
    family = tls_family()
    series = iterate_channel(family, EXCITED, 0)
    assert np.array_equal(series, EXCITED.matrix[None])
    with pytest.raises(ValueError, match="steps must be >= 0"):
        iterate_channel(family, EXCITED, -1)


def test_iterate_channel_purity_follows_scalar_recurrence():
    family = tls_family(dt=0.05)
    series = iterate_channel(family, EXCITED, 120)
    # scalar recurrence oracle: rho_ee(k) = cos^{2k}, purity from the diagonal
    c2 = math.cos(math.sqrt(0.05)) ** 2
    purities = [np.trace(m @ m).real for m in series]
    p = 1.0
    for k, dm in enumerate(series):
        np.testing.assert_allclose(dm[1, 1].real, p, atol=1e-12)
        expected_purity = p**2 + (1 - p) ** 2
        np.testing.assert_allclose(purities[k], expected_purity, atol=1e-12)
        p *= c2
    # the recurrence makes purity fall to 1/2 at rho_ee = 1/2, then recover
    # toward 1 as the state settles into |g><g|
    low = int(np.argmin(purities))
    assert all(b <= a + 1e-12 for a, b in zip(purities[:low], purities[1 : low + 1]))
    assert all(b >= a - 1e-12 for a, b in zip(purities[low:], purities[low + 1 :]))
    assert purities[low] == pytest.approx(0.5, abs=1e-3)
    assert purities[-1] > 0.99


def test_dephasing_channel_keeps_populations_and_damps_coherence():
    system = dephasing_variant(two_level_system())
    u = coarse_map(system, CoarseParams(1.0, 0.01, 2))
    family = extract_kraus(u, 2, 2, 0.01)

    rng = np.random.default_rng(11)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rho = DensityMatrix.pure(v)
    series = iterate_channel(family, rho, 50)
    for before, after in zip(series, series[1:]):
        np.testing.assert_allclose(
            np.diag(after), np.diag(before), atol=1e-12
        )
        assert abs(after[1, 0]) <= abs(before[1, 0]) + 1e-15


def test_collision_error_halves_with_dt():
    # distance to the continuum limit over gamma t in [0, 5] is O(dt)
    errors = {}
    for dt in (0.1, 0.05, 0.025):
        family = tls_family(dt=dt)
        steps = round(5.0 / dt)
        series = iterate_channel(family, EXCITED, steps)
        err = 0.0
        for k in range(1, steps + 1):
            ref = analytic_oracle("spontaneous", 1.0, [k * dt], EXCITED)[0]
            err = max(err, float(np.max(np.abs(series[k] - ref))))
        errors[dt] = err
    assert errors[0.1] / errors[0.05] == pytest.approx(2.0, rel=0.15)
    assert errors[0.05] / errors[0.025] == pytest.approx(2.0, rel=0.15)


def test_expansion_report_qubit_r2_vanishes():
    system = two_level_system()
    family = tls_family()
    _, r1, r2 = expansion_report(family, system, 1.0)
    assert r2 <= 1e-14
    np.testing.assert_allclose(r1, 0.1 - math.sin(0.1), rtol=1e-8)


def test_expansion_report_r1_order():
    system = two_level_system()
    r1 = {}
    for dt in (0.04, 0.01):
        family = tls_family(dt=dt)
        _, r1[dt], _ = expansion_report(family, system, 1.0)
    assert r1[0.04] / r1[0.01] >= 4.0**1.4


def test_expansion_report_oscillator_r2_scaling():
    # two-photon amplitude: K2 -> dt (gamma/2) sqrt(2) a^2, max entry gamma dt
    system = truncated_oscillator(3)
    gamma = 1.0
    for dt in (0.01, 0.005, 0.0025):
        u = coarse_map(system, CoarseParams(gamma, dt, 2))
        family = extract_kraus(u, 3, 2, dt)
        _, _, r2 = expansion_report(family, system, gamma)
        np.testing.assert_allclose(r2 / dt, gamma, rtol=2e-2 + 2 * dt)


def test_expansion_report_needs_k2():
    family = tls_family(n_max=1)
    with pytest.raises(ValueError):
        expansion_report(family, two_level_system(), 1.0)


# --- the stacked Liouville-space path against the Kraus form it replaces ---

SYSTEMS = {
    "tls": lambda: two_level_system(0.7, 0.0),
    "tls-driven": lambda: two_level_system(0.4, 1.0),
    "dephasing": lambda: dephasing_variant(two_level_system(0.3, 0.5)),
    "oscillator3": lambda: truncated_oscillator(3, 0.9),
}


def family_of(system, gamma=1.0, dt=0.01, n_max=2):
    u = coarse_map(system, CoarseParams(gamma, dt, n_max))
    return extract_kraus(u, system.dim, n_max, dt)


def random_state(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_kraus_stack_sums_equal_the_per_operator_loops(name):
    system = SYSTEMS[name]()
    rng = np.random.default_rng(61)
    for n_max in (1, 2, 4, 6):
        for dt in (0.001, 0.01, 0.05, 0.1):
            family = family_of(system, dt=dt, n_max=n_max)
            ops = family.ops
            assert isinstance(ops, np.ndarray)
            assert ops.shape == (n_max + 1, system.dim, system.dim)

            rho = random_state(rng, system.dim)
            out = kraus_map(ops, rho.matrix)
            got = apply_channel(family, rho).matrix
            assert np.array_equal(got, 0.5 * (out + out.conj().T))
            # every row but rho_00's is the plain sum bit for bit; that row is
            # completed to exact trace preservation, within two ulps of it
            s, plain = step_matrix(family), kraus_step_matrix(ops)
            assert np.array_equal(s[1:], plain[1:])
            assert np.max(np.abs(s[0] - plain[0])) <= 4.5e-16
            defect = np.max(np.abs(kraus_completeness(ops) - np.eye(system.dim)))
            assert family.completeness_defect == float(defect)


def guard_record(run):
    """Warning texts and the (type, message) of the error a run raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run()
            error = None
        except (GuardError, ValueError) as exc:
            error = (type(exc).__name__, str(exc))
    return [str(w.message) for w in caught], error


def stepwise(family, rho, steps):
    """The Kraus form one step at a time, as the oracle for every guard."""
    for _ in range(steps):
        rho = apply_channel(family, rho)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_iterate_channel_matches_repeated_apply_channel(name):
    system = SYSTEMS[name]()
    family = family_of(system)
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(3):
        rho = random_state(rng, system.dim)
        series = iterate_channel(family, rho, 200)
        slow = rho
        for k in range(1, 201):
            slow = apply_channel(family, slow)
            assert np.max(np.abs(series[k] - slow.matrix)) <= 1e-12


def test_long_driven_qubit_matches_extended_precision_kraus_iteration():
    family = family_of(two_level_system(0.5, 1.0))
    steps = 10_000
    stack = iterate_channel(family, EXCITED, steps)
    ops = [k.astype(np.clongdouble) for k in family.ops]
    rho = EXCITED.matrix.astype(np.clongdouble)
    worst = 0.0
    for k in range(1, steps + 1):
        rho = sum(op @ rho @ op.conj().T for op in ops)
        worst = max(worst, float(np.max(np.abs(stack[k] - rho))))
    assert worst <= 1e-12


BENCH_DEPHASING = (0.7444133524538041, 0.008141657627719808)


@pytest.mark.parametrize(
    "gamma, dt, n_max",
    [
        pytest.param(1.0, 0.01, 2, id="2"),
        pytest.param(1.0, 0.01, 4, id="4"),
        *(pytest.param(*BENCH_DEPHASING, n, id=f"bench-{n}") for n in (1, 2, 4)),
        # the first four draws of default_rng(11) (gamma, dt within 2^(+-1/2)
        # of (1, 0.01), n_max of 1, 2, 4) that one product per step drifted
        pytest.param(1.2455098542517398, 0.01034601557762391, 2, id="draw-8"),
        pytest.param(0.978679349342737, 0.013251304029735365, 2, id="draw-18"),
        pytest.param(0.7899447700260368, 0.014107241123994642, 1, id="draw-20"),
        pytest.param(0.7192604129028499, 0.012649890076125905, 1, id="draw-25"),
    ],
)
def test_undriven_dephasing_keeps_its_trace_over_long_runs(gamma, dt, n_max):
    # sum_m K_m^dag K_m is 1 only to an ulp, so a step matrix that is the
    # plain Kraus sum drifts the trace by 1.1e-12 over these 10^4 steps.  With
    # the trace functional exact, one product per step still drifted by
    # 5.6e-13 at bench-2 and the draw cases: rho_11 lost half an ulp of 0.5
    # a step that rho_00 rounded away.  A block of powers moves rho_00 by many
    # ulps at once and rounds once a block.
    system = dephasing_variant(two_level_system())
    family = family_of(system, gamma=gamma, dt=dt, n_max=n_max)
    stack = iterate_channel(family, PLUS, 10_000)
    trace = np.trace(stack, axis1=1, axis2=2).real
    assert np.max(np.abs(trace - 1.0)) <= 1e-15
    s = step_matrix(family)
    identity = np.eye(system.dim).ravel()
    assert np.max(np.abs(identity @ s - identity)) <= 2.3e-16


def rk4_step_matrix(system, gamma=1.0, dt=0.01):
    """sum_{k<=4} (L dt)^k / k!, power by power."""
    a = liouvillian_matrix(LindbladModel(system, gamma)) * dt
    return sum(np.linalg.matrix_power(a, k) / math.factorial(k) for k in range(5))


@pytest.mark.parametrize("kind", ["collision", "rk4"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_propagate_matches_one_product_per_step(name, kind):
    system = SYSTEMS[name]()
    s = step_matrix(family_of(system)) if kind == "collision" else rk4_step_matrix(system)
    rho = random_state(np.random.default_rng(sum(map(ord, name + kind))), system.dim)
    for steps in (0, 1, 63, 64, 65, 128, 10_000):
        fast = propagate(s, rho.matrix, steps)
        slow = stepwise_propagate(s, rho.matrix, steps)
        assert fast.shape == (steps + 1, system.dim, system.dim)
        assert np.array_equal(fast[0], rho.matrix)
        assert np.max(np.abs(fast - slow)) <= 1e-12


def test_clean_trajectories_are_not_recomputed_step_by_step(monkeypatch):
    blocked = channel._propagate

    def refuse(s, rho0, steps, block):
        if block == 1:
            raise AssertionError("a clean trajectory was recomputed step by step")
        return blocked(s, rho0, steps, block)

    monkeypatch.setattr(channel, "_propagate", refuse)
    monkeypatch.setattr(lindblad, "_propagate", refuse)
    system = SYSTEMS["oscillator3"]()
    rho = DensityMatrix.pure([0.0, 0.0, 1.0])
    assert len(iterate_channel(family_of(system), rho, 500)) == 501
    model = LindbladModel(system, 1.0)
    assert len(lindblad.integrate_rk4(model, rho, 0.01, 500)) == 501


def test_first_step_cross_check_rejects_a_wrong_step_matrix(monkeypatch):
    family = tls_family()
    wrong = step_matrix(family) * (1.0 + 1e-9)
    monkeypatch.setattr(channel, "step_matrix", lambda fam: wrong)
    with pytest.raises(GuardError, match="step matrix differs from the Kraus map"):
        iterate_channel(family, EXCITED, 3)


def test_guard_parity_dropped_kraus_operator_aborts_at_the_same_step():
    # without K1 a driven qubit leaks more trace each step as it is excited,
    # so it warns for a few steps before the abort
    family = family_of(two_level_system(0.0, 0.2))
    broken = KrausFamily(
        ops=family.ops[[0, 2]], dt=0.01, n_max=1, completeness_defect=1.0
    )
    slow = guard_record(lambda: stepwise(broken, GROUND, 50))
    fast = guard_record(lambda: iterate_channel(broken, GROUND, 50))
    assert fast == slow
    assert len(slow[0]) >= 3 and slow[1][0] == "GuardError"


def test_guard_parity_leaky_family_warns_as_often_as_step_by_step():
    # the family of test_apply_channel_warns_on_small_trace_leak
    system = truncated_oscillator(3)
    family = family_of(system, dt=1e-4)
    leaky = KrausFamily(ops=family.ops[:2], dt=1e-4, n_max=2, completeness_defect=1e-8)
    top = DensityMatrix.pure([0.0, 0.0, 1.0])
    slow = guard_record(lambda: stepwise(leaky, top, 60))
    fast = guard_record(lambda: iterate_channel(leaky, top, 60))
    assert fast == slow
    assert len(slow[0]) == 60 and slow[1] is None


def test_guard_parity_accumulated_leak_fails_validation_at_the_same_step():
    # a doubly excited population just above the warning threshold: the steps
    # warn until the per-step leak falls below TRACE_WARN, and the first
    # unwarned state then fails the unit-trace check
    system = truncated_oscillator(3)
    family = family_of(system, dt=1e-3)
    leaky = KrausFamily(ops=family.ops[:2], dt=1e-3, n_max=2, completeness_defect=1e-6)
    p2 = 1.02e-10 / 9.993e-07  # one step leaks 9.993e-07 from |2><2|
    rho = DensityMatrix(np.diag([1.0 - p2, 0.0, p2]).astype(complex))
    slow = guard_record(lambda: stepwise(leaky, rho, 40))
    fast = guard_record(lambda: iterate_channel(leaky, rho, 40))
    assert fast == slow
    assert len(slow[0]) >= 5 and slow[1][0] == "StateError"
    assert "trace" in slow[1][1]


def test_guard_parity_holds_past_one_block_of_powers():
    # the accumulated-leak run above over three blocks of powers: the guards
    # must report on the step-by-step recompute to match apply_channel
    family = family_of(truncated_oscillator(3), dt=1e-3)
    leaky = KrausFamily(ops=family.ops[:2], dt=1e-3, n_max=2, completeness_defect=1e-6)
    p2 = 1.02e-10 / 9.993e-07
    rho = DensityMatrix(np.diag([1.0 - p2, 0.0, p2]).astype(complex))
    steps = 3 * channel.POWER_BLOCK
    slow = guard_record(lambda: stepwise(leaky, rho, steps))
    fast = guard_record(lambda: iterate_channel(leaky, rho, steps))
    assert fast == slow
    assert len(slow[0]) >= 5 and slow[1][0] == "StateError"
