"""Unit tests for Kraus extraction and the collision channel."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import timebins.channel as channel
from timebins.channel import (
    DensityMatrix,
    apply_channel,
    completeness_defect,
    extract_kraus,
    iterate_channel,
    propagate,
    step_matrix,
)
from timebins.errors import GuardError, StateError
from timebins.lindblad import LindbladModel, analytic_oracle, liouvillian_matrix
from timebins.model import (
    CoarseParams,
    coarse_map,
    dephasing_variant,
    expansion_report,
    truncated_oscillator,
    two_level_system,
)

from oracle import (
    kraus_completeness,
    kraus_map,
    kraus_step_matrix,
    plain_check_states,
    stepwise_propagate,
)


def tls_family(gamma=1.0, dt=0.01, n_max=2, omega0=0.0, drive=0.0):
    system = two_level_system(omega0, drive)
    u = coarse_map(system, CoarseParams(gamma, dt, n_max))
    return extract_kraus(u, system.dim, n_max)


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
    # the earliest failing state wins: a Hermiticity defect at 2 before a NaN at 4
    stack = np.stack([EXCITED.matrix] * 6)
    stack[2, 0, 1] = 0.5
    stack[4, 1, 1] = np.nan
    with pytest.raises(StateError, match=r"^density matrix not Hermitian \(defect 5.000e-01\)$"):
        channel.check_states(stack)


@pytest.mark.parametrize("scale", [2.0**-1072, 1e-200, 1e-160, 1e160, 2.0**1020])
def test_pure_state_of_any_finite_nonzero_vector(scale):
    # the plain norm's squares underflow or overflow at these scales (or keep
    # few digits, at 1e-160); the direction is rescaled first, without a
    # warning
    rho = DensityMatrix.pure(scale * np.array([3.0, 4.0j]))
    expected = np.array([[9.0, -12.0j], [12.0j, 16.0]]) / 25.0
    np.testing.assert_allclose(rho.matrix, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "amplitudes, cause",
    [
        ([0.0, 0.0], "zero"),
        ([], "zero"),
        ([np.nan, 1.0], "not finite"),
        ([1.0, np.inf], "not finite"),
    ],
)
def test_pure_state_refuses_a_zero_or_non_finite_vector(amplitudes, cause):
    with pytest.raises(StateError, match=f"^state vector is {cause}$"):
        DensityMatrix.pure(amplitudes)


def eigvalsh_spy(monkeypatch):
    """Record the stacks that np.linalg.eigvalsh is given."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append(np.array(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen


def test_a_positive_state_the_gershgorin_bound_does_not_clear_passes(monkeypatch):
    seen = eigvalsh_spy(monkeypatch)
    # eigenvalues (1 +- sqrt(0.68)) / 2 > 0, but 0.3 - 0.4 < 0
    mixed = np.array([[0.7, 0.4], [0.4, 0.3]], dtype=complex)
    cleared = [EXCITED.matrix, GROUND.matrix, PLUS.matrix]
    channel.check_states(np.stack(cleared + [mixed]))
    assert len(seen) == 1 and np.array_equal(seen[0], mixed[None])


def test_a_negative_eigenvalue_after_cleared_states_is_named(monkeypatch):
    seen = eigvalsh_spy(monkeypatch)
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, -s], [s, c]], dtype=complex)
    negative = rotation @ np.diag([1.0 + 2e-10, -2e-10]) @ rotation.T
    cleared = [EXCITED.matrix, GROUND.matrix]
    stack = np.stack(cleared + [negative, EXCITED.matrix])
    with pytest.raises(StateError, match=r"^density matrix has negative eigenvalue -2.000e-10$"):
        channel.check_states(stack)
    assert len(seen) == 1 and np.array_equal(seen[0], negative[None])


def random_states(rng, n, d):
    """n valid (d, d) states: mixed, pure and diagonal ones in turn, so that
    Gershgorin's bound clears some and not others."""
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rho = a @ a.conj().swapaxes(1, 2)
    rho[1::3] = a[1::3, :, :1] @ a[1::3, :, :1].conj().swapaxes(1, 2)  # pure
    rho[2::3] = np.abs(rho[2::3]) * np.eye(d)  # diagonal
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return 0.5 * (rho + rho.conj().swapaxes(1, 2))


def negative_state(rng, d):
    """A unit-trace Hermitian state with eigenvalues 1 + 2e-10, -2e-10, 0 ..."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    values = np.zeros(d)
    values[:2] = [1.0 + 2e-10, -2e-10]
    return (q * values) @ q.conj().T


def plant(rng, stack, defect):
    """Put one defect into a random state of the stack."""
    k = int(rng.integers(len(stack)))
    d = stack.shape[-1]
    i, j = (d - 1, 0) if d > 1 else (0, 0)
    if defect == "nan":
        stack[k, i, j] = np.nan
    elif defect == "inf":
        stack[k, j, i] = -np.inf
    elif defect == "off-diagonal":
        stack[k, i, j] += 3e-10 - 2e-10j
    elif defect == "imaginary-diagonal":
        stack[k, d - 1, d - 1] += 1e-9j
    elif defect in ("trace-up", "trace-down"):
        stack[k, 0, 0] += 2e-10 if defect == "trace-up" else -2e-10
    elif defect == "negative":
        stack[k] = negative_state(rng, d)


def outcome(check, stack):
    try:
        check(stack)
    except StateError as exc:
        return str(exc)
    return None


DEFECTS = ["nan", "inf", "off-diagonal", "imaginary-diagonal", "trace-up", "trace-down",
           "negative"]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 5, 300])
def test_check_states_matches_the_full_matrix_check(n, d):
    # d = 5: np.trace adds the diagonal pairwise from four entries on, and
    # check_states must name the same trace to the last digit
    rng = np.random.default_rng(100 * n + d)
    several = [DEFECTS[::-1], DEFECTS[2:5], ["negative"] * 3]
    cases = [[]] + [[defect] for defect in DEFECTS] + several
    for defects in cases if n else [[]]:
        if d == 1 and {"off-diagonal", "negative"} & set(defects):
            continue  # a 1 x 1 state has no off-diagonal entry, and trace 1 is its eigenvalue
        stack = random_states(rng, n, d)
        for defect in defects:
            plant(rng, stack, defect)
        expected = outcome(plain_check_states, stack)
        assert outcome(channel.check_states, stack) == expected, defects
        assert (expected is None) == (not defects), defects


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_failure_in_the_second_block_is_named_as_on_full_matrices(defect):
    # 3000 states are checked in blocks of CSV_BLOCK_ROWS: the first block is
    # clean, and the earliest failure lies in the second, before a third-block one
    rng = np.random.default_rng(3000)
    block = channel.CSV_BLOCK_ROWS
    stack = random_states(rng, 3000, 3)
    plant(rng, stack[block : 2 * block], defect)
    plant(rng, stack[2 * block :], "nan" if defect == "negative" else "negative")
    expected = outcome(plain_check_states, stack)
    assert expected is not None
    assert outcome(channel.check_states, stack) == expected


def test_check_states_peak_memory_does_not_grow_with_the_stack():
    # its copies are one block's, so 10**5 states (14 MB) peak as one block does
    block = channel.CSV_BLOCK_ROWS
    states = random_states(np.random.default_rng(5), block, 3)
    channel.check_states(states)  # builds the cached index tables
    peaks = []
    for n in (block, 10**5):
        stack = np.resize(states, (n, 3, 3))
        tracemalloc.start()
        try:
            channel.check_states(stack)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_an_imaginary_diagonal_is_a_hermiticity_defect():
    # eigvalsh reads only the real part of the diagonal, so only the
    # Hermiticity check sees Im rho_ii
    rho = EXCITED.matrix + np.diag([0.0, 1e-9j])
    assert np.linalg.eigvalsh(rho)[0] == 0.0
    with pytest.raises(StateError, match=r"^density matrix not Hermitian \(defect 2.000e-09\)$"):
        channel.check_states(rho[None])


def test_extract_kraus_identity_map():
    family = tls_family(gamma=0.0, dt=0.1)
    np.testing.assert_array_equal(family[0], np.eye(2))
    for op in family[1:]:
        assert np.max(np.abs(op)) == 0.0
    assert completeness_defect(family) <= 1e-14


def test_extract_kraus_rotation_blocks():
    family = tls_family()
    theta = 0.1
    sigma = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_allclose(
        family[0], np.diag([1.0, math.cos(theta)]), atol=1e-12
    )
    np.testing.assert_allclose(family[1], math.sin(theta) * sigma, atol=1e-12)

    # the O(dt^{3/2}) distance from the leading form sqrt(gamma dt) sigma
    r1 = np.max(np.abs(family[1] - theta * sigma))
    np.testing.assert_allclose(r1, theta - math.sin(theta), rtol=1e-8)
    # and the O(dt^2) distance of K0 from 1 - dt (gamma/2) n
    r0 = np.max(np.abs(family[0] - np.diag([1.0, 1.0 - 0.005])))
    np.testing.assert_allclose(r0, math.cos(theta) - (1.0 - theta**2 / 2), rtol=1e-8)


def test_extract_kraus_dimension_check():
    system = two_level_system()
    u = coarse_map(system, CoarseParams(1.0, 0.01, 2))
    for bad_u, sys_dim, n_max in [(u, 2, 1), (u, 3, 2), (u[:, :4], 2, 2), (u[0], 2, 2)]:
        with pytest.raises(ValueError, match="map has shape"):
            extract_kraus(bad_u, sys_dim, n_max)


def test_completeness_for_excitation_conserving_setups():
    for n_max in (1, 2, 3):
        family = tls_family(gamma=1.0, dt=0.05, n_max=n_max, omega0=0.9)
        assert completeness_defect(family) <= 1e-12


def test_apply_channel_rotation_and_fixed_point():
    family = tls_family()
    out = apply_channel(family, EXCITED.matrix)
    np.testing.assert_allclose(out[1, 1].real, math.cos(0.1) ** 2, atol=1e-12)

    fixed = apply_channel(family, GROUND.matrix)
    assert np.max(np.abs(fixed - GROUND.matrix)) <= 1e-14
    for bad in (np.eye(3, dtype=complex) / 3, np.ones(2), EXCITED):
        with pytest.raises(ValueError, match="different system dimensions"):
            apply_channel(family, bad)


def test_apply_channel_checks_the_state_it_returns():
    # the identity family leaks no trace, so its output is checked, and an
    # input that is not a state comes out as one that is not
    identity = tls_family(gamma=0.0, dt=0.1)
    with pytest.raises(StateError, match="negative eigenvalue"):
        apply_channel(identity, np.diag([1.5, -0.5]).astype(complex))


def test_apply_channel_flags_truncation_loss():
    family = tls_family()
    # drop the one-photon operator: the remaining family misses sin^2(0.1)
    broken = family[[0, 2]]
    with pytest.raises(GuardError) as refused:
        apply_channel(broken, EXCITED.matrix)
    assert str(refused.value) == (
        "incomplete Kraus family: completeness defect 9.967e-03 exceeds 1e-10"
    )


def test_apply_channel_refuses_a_small_trace_leak():
    # dropping K2 from an oscillator family leaks O((gamma dt)^2) of the trace
    # from the doubly excited state: a small leak, refused all the same before
    # any state is computed
    system = truncated_oscillator(3)
    dt = 1e-4
    u = coarse_map(system, CoarseParams(1.0, dt, 2))
    leaky = extract_kraus(u, 3, 2)[:2]
    assert 1e-10 < completeness_defect(leaky) < 1e-6
    top = DensityMatrix.pure([0.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GuardError, match="incomplete Kraus family"):
            apply_channel(leaky, top.matrix)


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
    family = extract_kraus(u, 2, 2)

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
    _, r1, r2 = expansion_report(family, system, 1.0, 0.01)
    assert r2 <= 1e-14
    np.testing.assert_allclose(r1, 0.1 - math.sin(0.1), rtol=1e-8)


def test_expansion_report_r1_order():
    system = two_level_system()
    r1 = {}
    for dt in (0.04, 0.01):
        family = tls_family(dt=dt)
        _, r1[dt], _ = expansion_report(family, system, 1.0, dt)
    assert r1[0.04] / r1[0.01] >= 4.0**1.4


def test_expansion_report_oscillator_r2_scaling():
    # two-photon amplitude: K2 -> dt (gamma/2) sqrt(2) a^2, max entry gamma dt
    system = truncated_oscillator(3)
    gamma = 1.0
    for dt in (0.01, 0.005, 0.0025):
        u = coarse_map(system, CoarseParams(gamma, dt, 2))
        family = extract_kraus(u, 3, 2)
        _, _, r2 = expansion_report(family, system, gamma, dt)
        np.testing.assert_allclose(r2 / dt, gamma, rtol=2e-2 + 2 * dt)


def test_expansion_report_needs_k2():
    family = tls_family(n_max=1)
    with pytest.raises(ValueError):
        expansion_report(family, two_level_system(), 1.0, 0.01)


# --- the stacked Liouville-space path against the Kraus form it replaces ---

SYSTEMS = {
    "tls": lambda: two_level_system(0.7, 0.0),
    "tls-driven": lambda: two_level_system(0.4, 1.0),
    "dephasing": lambda: dephasing_variant(two_level_system(0.3, 0.5)),
    "oscillator3": lambda: truncated_oscillator(3, 0.9),
}


def family_of(system, gamma=1.0, dt=0.01, n_max=2):
    u = coarse_map(system, CoarseParams(gamma, dt, n_max))
    return extract_kraus(u, system.dim, n_max)


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
            ops = family
            assert isinstance(ops, np.ndarray)
            assert ops.shape == (n_max + 1, system.dim, system.dim)

            rho = random_state(rng, system.dim)
            out = kraus_map(ops, rho.matrix)
            got = apply_channel(family, rho.matrix)
            assert np.array_equal(got, 0.5 * (out + out.conj().T))
            # every row but rho_00's is the plain sum bit for bit; that row is
            # completed to exact trace preservation, within two ulps of it
            s, plain = step_matrix(family), kraus_step_matrix(ops)
            assert np.array_equal(s[1:], plain[1:])
            assert np.max(np.abs(s[0] - plain[0])) <= 4.5e-16
            defect = np.max(np.abs(kraus_completeness(ops) - np.eye(system.dim)))
            assert completeness_defect(family) == float(defect)


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
    r = rho.matrix
    for _ in range(steps):
        r = apply_channel(family, r)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_iterate_channel_matches_repeated_apply_channel(name):
    system = SYSTEMS[name]()
    family = family_of(system)
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(3):
        rho = random_state(rng, system.dim)
        series = iterate_channel(family, rho, 200)
        slow = rho.matrix
        for k in range(1, 201):
            slow = apply_channel(family, slow)
            assert np.max(np.abs(series[k] - slow)) <= 1e-12


def test_long_driven_qubit_matches_extended_precision_kraus_iteration():
    family = family_of(two_level_system(0.5, 1.0))
    steps = 10_000
    stack = iterate_channel(family, EXCITED, steps)
    ops = [k.astype(np.clongdouble) for k in family]
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
    # a step that rho_00 rounded away.  Doubling reaches each state from an
    # earlier one through one power of S, which moves rho_00 by many ulps at
    # once and rounds once.
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
    for steps in (0, 1, 63, 64, 65, 127, 128, 255, 256, 257, 10_000):
        fast = propagate(s, rho.matrix, steps)
        slow = stepwise_propagate(s, rho.matrix, steps)
        assert fast.shape == (steps + 1, system.dim, system.dim)
        assert np.array_equal(fast[0], rho.matrix)
        assert np.max(np.abs(fast - slow)) <= 1e-12


def test_propagate_runs_a_stack_of_step_matrices():
    # one (k, d^2, d^2) stack: each chain is its own matrix's stepwise run
    system = SYSTEMS["oscillator3"]()
    s = step_matrix(np.stack([family_of(system, dt=dt) for dt in (0.005, 0.01, 0.02)]))
    rho = random_state(np.random.default_rng(3), system.dim)
    for steps in (0, 1, 30, 257):
        fast = propagate(s, rho.matrix, steps)
        assert fast.shape == (3, steps + 1, system.dim, system.dim)
        for chain, matrix in zip(fast, s):
            assert np.max(np.abs(chain - stepwise_propagate(matrix, rho.matrix, steps))) <= 1e-12


class CountedMatrix(np.ndarray):
    """An ndarray that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountedMatrix.products += 1
        inputs = tuple(np.asarray(x) for x in inputs)
        if "out" in kwargs:
            return getattr(ufunc, method)(*inputs, **kwargs)
        return getattr(ufunc, method)(*inputs, **kwargs).view(CountedMatrix)


@pytest.mark.parametrize("steps", [1, 30, 10_000])
def test_propagate_doubles_its_run(steps):
    # one product fills states m .. 2m-1 and one squaring makes S^2m, so a
    # run takes about 2 log2(steps) products
    s = step_matrix(tls_family(drive=0.3))
    CountedMatrix.products = 0
    stack = propagate(s.view(CountedMatrix), EXCITED.matrix, steps)
    assert 0 < CountedMatrix.products <= 2 * math.ceil(math.log2(steps + 1))
    assert np.array_equal(stack, propagate(s, EXCITED.matrix, steps))


def test_first_step_cross_check_rejects_a_wrong_step_matrix(monkeypatch):
    family = tls_family()
    wrong = step_matrix(family) * (1.0 + 1e-9)
    monkeypatch.setattr(channel, "step_matrix", lambda fam: wrong)
    with pytest.raises(GuardError, match="step matrix differs from the Kraus map"):
        iterate_channel(family, EXCITED, 3)


def test_guard_parity_dropped_kraus_operator_aborts_at_the_same_step():
    # without K1 a driven qubit leaks trace: the family is refused before the
    # first collision, one step at a time or propagated
    family = family_of(two_level_system(0.0, 0.2))
    broken = family[[0, 2]]
    slow = guard_record(lambda: stepwise(broken, GROUND, 50))
    fast = guard_record(lambda: iterate_channel(broken, GROUND, 50))
    assert fast == slow
    assert slow[0] == [] and slow[1][0] == "GuardError"


def test_guard_parity_leaky_family_warns_as_often_as_step_by_step():
    # the family of test_apply_channel_refuses_a_small_trace_leak: no
    # warning, and the same up-front error
    system = truncated_oscillator(3)
    family = family_of(system, dt=1e-4)
    leaky = family[:2]
    top = DensityMatrix.pure([0.0, 0.0, 1.0])
    slow = guard_record(lambda: stepwise(leaky, top, 60))
    fast = guard_record(lambda: iterate_channel(leaky, top, 60))
    assert fast == slow
    assert slow[0] == [] and slow[1][0] == "GuardError"


def test_guard_parity_accumulated_leak_fails_validation_at_the_same_step():
    # a doubly excited population whose per-step leak would stay small: the
    # leak is the family's, so it is refused before any state is validated
    system = truncated_oscillator(3)
    family = family_of(system, dt=1e-3)
    leaky = family[:2]
    p2 = 1.02e-10 / 9.993e-07  # one step leaks 9.993e-07 from |2><2|
    rho = DensityMatrix(np.diag([1.0 - p2, 0.0, p2]).astype(complex))
    slow = guard_record(lambda: stepwise(leaky, rho, 40))
    fast = guard_record(lambda: iterate_channel(leaky, rho, 40))
    assert fast == slow
    assert slow == ([], ("GuardError", "incomplete Kraus family: completeness "
                         "defect 9.993e-07 exceeds 1e-10"))


def test_guard_parity_holds_over_a_long_run():
    # the accumulated-leak run above over 192 steps
    family = family_of(truncated_oscillator(3), dt=1e-3)
    leaky = family[:2]
    p2 = 1.02e-10 / 9.993e-07
    rho = DensityMatrix(np.diag([1.0 - p2, 0.0, p2]).astype(complex))
    steps = 192
    slow = guard_record(lambda: stepwise(leaky, rho, steps))
    fast = guard_record(lambda: iterate_channel(leaky, rho, steps))
    assert fast == slow
    assert slow[0] == [] and slow[1][0] == "GuardError"


def test_a_leaky_family_computes_no_state(monkeypatch):
    def refuse(*args):
        raise AssertionError("a state was computed from an incomplete family")

    monkeypatch.setattr(channel, "propagate", refuse)
    monkeypatch.setattr(channel, "check_states", refuse)
    leaky = tls_family() * (1.0 - 1e-8)
    for run in (
        lambda: apply_channel(leaky, EXCITED.matrix),
        lambda: iterate_channel(leaky, EXCITED, 1),
        lambda: iterate_channel(leaky, EXCITED, 192),
    ):
        with pytest.raises(GuardError, match="completeness defect 2.000e-08 exceeds 1e-10"):
            run()


def test_a_nan_family_is_refused():
    family = tls_family()
    family[1, 0, 1] = np.nan  # every comparison with the NaN defect is False
    for run in (lambda: apply_channel(family, EXCITED.matrix),
                lambda: iterate_channel(family, EXCITED, 5)):
        with pytest.raises(GuardError, match="completeness defect nan exceeds 1e-10"):
            run()


def test_an_inf_family_is_refused_with_warnings_as_errors():
    # inf * 0 in sum_m K_m^dag K_m gives a NaN defect, refused without a warning
    family = tls_family()
    family[1, 0, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(completeness_defect(family))
        with pytest.raises(GuardError, match="completeness defect nan exceeds 1e-10"):
            apply_channel(family, EXCITED.matrix)


@pytest.mark.parametrize("steps", [20, 192])
def test_a_trace_gain_below_the_family_check_fails_at_the_stepwise_step(steps):
    # a family scaled by 1 + 1e-11 passes the family check (defect 2e-11),
    # and its states gain 2e-11 of trace a step until one is off by more
    # than TRACE_TOL: a StateError at the step the Kraus loop gives
    gaining = tls_family(drive=0.3) * (1.0 + 1e-11)
    assert 0.0 < completeness_defect(gaining) <= channel.TRACE_TOL
    r, failed = EXCITED.matrix, None
    for k in range(1, steps + 1):
        try:
            r = apply_channel(gaining, r)
        except StateError:
            failed = k
            break
    assert failed is not None and 3 <= failed <= 8
    assert len(iterate_channel(gaining, EXCITED, failed - 1)) == failed
    with pytest.raises(StateError, match="density matrix trace .* is not 1"):
        iterate_channel(gaining, EXCITED, failed)
    with pytest.raises(StateError, match="density matrix trace .* is not 1"):
        iterate_channel(gaining, EXCITED, steps)
