"""Unit tests for the exact frequency-grid emitter model."""

import math
import tracemalloc

import numpy as np
import pytest

import timebins.microscopic as microscopic
from timebins.errors import GuardError
from timebins.microscopic import (
    FrequencyGrid,
    build_microscopic,
    emitter_spectrum,
    evolve_microscopic,
    fit_decay_rate,
)

from oracle import (
    dense_hamiltonian,
    dense_spectrum,
    dense_survival,
    direct_survival,
    every_root_spectrum,
    full_sum_spectrum,
    grid_frequencies,
)


def test_grid_validation_and_spacing():
    grid = FrequencyGrid(1601, 20.0)
    assert grid.spacing == pytest.approx(0.025)
    freqs = grid_frequencies(grid)
    assert freqs[0] == -20.0 and freqs[-1] == 20.0
    assert freqs[800] == 0.0

    with pytest.raises(ValueError):
        FrequencyGrid(1600, 20.0)
    with pytest.raises(ValueError):
        FrequencyGrid(1601, -1.0)


def test_grid_is_the_integer_ladder_to_one_ulp():
    # the secular solver takes mode j at (j - half) spacing, and the float
    # references at the oracle's grid: 1.0 ulp of half_width apart at most here
    for n_modes in (3, 33, 35, 101, 801, 1601, 6401, 102401):
        for half_width in (1e-3, 1.0, 7.0, 20.0, 40.0, 1e6):
            grid = FrequencyGrid(n_modes, half_width)
            ladder = (np.arange(n_modes) - (n_modes - 1) // 2) * grid.spacing
            assert np.max(np.abs(grid_frequencies(grid) - ladder)) <= np.spacing(half_width)


def test_build_microscopic_structure():
    grid = FrequencyGrid(11, 1.0)
    h = dense_hamiltonian(build_microscopic(grid, 0.0))
    np.testing.assert_array_equal(h, np.diag(np.concatenate([[0.0], grid_frequencies(grid)])))

    gamma = 0.7
    h = dense_hamiltonian(build_microscopic(grid, gamma))
    # golden-rule identity is exact by construction: 2 pi g^2 / spacing = gamma
    g = abs(h[1, 0])
    assert 2.0 * math.pi * g**2 / grid.spacing == pytest.approx(gamma, rel=1e-14)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-15
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        build_microscopic(grid, -1.0)


def test_evolution_starts_at_one_and_conserves_norm():
    grid = FrequencyGrid(401, 10.0)
    arrow = build_microscopic(grid, 1.0)
    times = np.linspace(0.0, 2.0, 101)
    survival = evolve_microscopic(arrow, times)
    assert survival[0] == pytest.approx(1.0, abs=1e-12)

    # independent evolution of the full amplitude vector at a few times
    h = dense_hamiltonian(arrow)
    evals, evecs = np.linalg.eigh(h)
    c0 = np.zeros(h.shape[0], dtype=complex)
    c0[0] = 1.0
    coeff = evecs.conj().T @ c0
    for idx in (10, 50, 100):
        c = evecs @ (np.exp(-1j * evals * times[idx]) * coeff)
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-10
        np.testing.assert_allclose(abs(c[0]) ** 2, survival[idx], atol=1e-12)


@pytest.fixture(scope="module")
def wide_band_run():
    times = np.linspace(0.0, 2.5, 501)
    return times, evolve_microscopic(build_microscopic(FrequencyGrid(1601, 20.0), 1.0), times)


def test_survival_matches_exponential_decay(wide_band_run):
    times, survival = wide_band_run
    at_one = int(np.argmin(np.abs(times - 1.0)))
    assert survival[at_one] == pytest.approx(math.exp(-1.0), abs=0.02)


def test_fitted_rate_within_three_percent(wide_band_run):
    times, survival = wide_band_run
    rate = -fit_decay_rate(times, survival, window=(0.5, 2.5))
    assert rate == pytest.approx(1.0, rel=0.03)


def test_bandwidth_convergence_is_monotone():
    # fixed spacing 0.05, doubling half_width: the fitted rate approaches gamma
    errors = []
    for half_width in (5.0, 10.0, 20.0):
        n_modes = round(2 * half_width / 0.05) + 1
        arrow = build_microscopic(FrequencyGrid(n_modes, half_width), 1.0)
        times = np.linspace(0.0, 2.5, 251)
        survival = evolve_microscopic(arrow, times)
        rate = -fit_decay_rate(times, survival, window=(0.5, 2.5))
        errors.append(abs(rate - 1.0))
    assert errors[0] > errors[1] > errors[2]


def test_recurrence_guard():
    grid = FrequencyGrid(41, 1.0)  # spacing 0.05 -> recurrence at 2 pi / 0.05
    arrow = build_microscopic(grid, 1.0)
    with pytest.raises(GuardError):
        evolve_microscopic(arrow, np.linspace(0.0, 2.0 * math.pi / grid.spacing + 1.0, 11))
    times = np.linspace(0.0, 10.0, 11)
    survival = evolve_microscopic(arrow, times)  # below the guard
    assert times[-1] == 10.0


def test_recurrence_guard_rejects_a_nan_time():
    # nan >= recurrence is False, so the guard asks for t < recurrence instead
    arrow = build_microscopic(FrequencyGrid(41, 1.0), 1.0)
    with pytest.raises(GuardError):
        evolve_microscopic(arrow, np.array([0.0, np.nan, 1.0]))


@pytest.mark.parametrize(
    "n_modes, gamma, t_final, every, samples",
    [
        # the largest grid: the direct sum at every 20th time
        (102401, 1.0, 6.0, 20, 301),
        # 0.95 of the recurrence time, where the far poles' phases reach
        # 1.2e4 rad; at gamma = 0.005 the survival there is still 0.3
        (1601, 1.0, None, 1, 301),
        (1601, 0.005, None, 1, 301),
        # every root within an ulp or less of its pole
        (401, 1e-8, 6.0, 1, 301),
        (401, 1e-30, 6.0, 1, 301),
        # a long series, in 173 blocks of 174 samples; the direct sum at
        # every 150th time
        (1601, 0.005, None, 150, 30001),
    ],
)
def test_survival_matches_the_direct_sum(n_modes, gamma, t_final, every, samples):
    arrow = build_microscopic(FrequencyGrid(n_modes, 20.0), gamma)
    if t_final is None:
        t_final = 0.95 * 2.0 * math.pi / arrow.grid.spacing
    times = np.linspace(0.0, t_final, samples)
    survival = evolve_microscopic(arrow, times)
    reference = direct_survival(arrow, times[::every])
    np.testing.assert_allclose(survival[::every], reference, rtol=0, atol=1e-13)


def test_survival_error_does_not_grow_with_the_samples():
    # every cos(l t) comes from the cosines of its own giant and baby step,
    # so no rounding is carried from sample to sample: 3.2e-15 here, and
    # 4.4e-15 over 301 samples to the same time
    arrow = build_microscopic(FrequencyGrid(1601, 20.0), 0.005)
    times = np.linspace(0.0, 0.95 * 2.0 * math.pi / arrow.grid.spacing, 300001)
    survival = evolve_microscopic(arrow, times)
    reference = direct_survival(arrow, times[::1500])
    np.testing.assert_allclose(survival[::1500], reference, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "times",
    [
        np.array([0.0, 0.1, 0.3]),  # not equally spaced
        np.linspace(0.1, 1.0, 10),  # not from 0
        np.linspace(0.0, 1.0, 10) + 1e-12,
        np.linspace(0.0, 1.0, 10).reshape(2, 5),  # not one-dimensional
        np.array([]),  # no times at all
    ],
)
def test_survival_needs_equally_spaced_times_from_zero(times):
    arrow = build_microscopic(FrequencyGrid(41, 1.0), 1.0)
    with pytest.raises(ValueError, match="equally spaced from 0"):
        evolve_microscopic(arrow, times)


def test_fit_window_needs_samples():
    with pytest.raises(ValueError):
        fit_decay_rate(np.array([0.0, 1.0]), np.array([1.0, 0.4]), window=(0.5, 2.5))


def test_microscopic_matches_collision_model_end_to_end(wide_band_run):
    # the two independent routes to the same physics: the exact grid model and
    # the coarse-grained collision channel agree to finite-bandwidth accuracy
    from timebins.channel import DensityMatrix, extract_kraus, iterate_channel
    from timebins.model import CoarseParams, coarse_map, two_level_system

    times, survival = wide_band_run
    dt = times[1] - times[0]
    system = two_level_system()
    u = coarse_map(system, CoarseParams(1.0, dt, 2))
    family = extract_kraus(u, 2, 2)
    series = iterate_channel(family, DensityMatrix.pure([0.0, 1.0]), len(times) - 1)
    # compare after the bandwidth transient (t ~ 1/half_width decays
    # quadratically, not exponentially), matching the rate-fit window
    gap = max(
        abs(float(dm[1, 1].real) - p)
        for dm, p, t in zip(series, survival, times)
        if t >= 0.5
    )
    assert gap <= 0.02  # dominated by the grid's finite bandwidth, not by dt


@pytest.mark.parametrize(
    "n_modes, half_width, gamma",
    [
        (101, 5.0, 1.0),
        (401, 10.0, 0.3),
        (801, 20.0, 3.0),
        (1601, 40.0, 7.0),
        (101, 1.0, 50.0),
    ],
)
def test_secular_solver_matches_dense_eigh(n_modes, half_width, gamma):
    arrow = build_microscopic(FrequencyGrid(n_modes, half_width), gamma)
    energies, weights = emitter_spectrum(arrow)
    dense = dense_spectrum(arrow)  # one eigh, for the spectrum and the survival
    assert np.all(np.diff(energies) > 0)  # one root per gap, in order
    np.testing.assert_allclose(energies, dense[0], rtol=0, atol=1e-12)
    assert abs(weights.sum() - 1.0) <= 1e-12
    times = np.linspace(0.0, min(3.0, 0.9 * 2.0 * math.pi / arrow.grid.spacing), 301)
    survival = evolve_microscopic(arrow, times)
    np.testing.assert_allclose(survival, dense_survival(*dense, times), rtol=0, atol=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 1e-8, 1e-30])
def test_secular_solver_at_vanishing_coupling(gamma):
    # gamma = 0: the emitter decouples and never decays; tiny gamma: every
    # root lies within an ulp or less of its pole
    arrow = build_microscopic(FrequencyGrid(401, 20.0), gamma)
    energies, weights = emitter_spectrum(arrow)
    assert np.all(np.isfinite(energies)) and np.all(np.isfinite(weights))
    assert abs(weights.sum() - 1.0) <= 1e-12
    times = np.linspace(0.0, 6.0, 121)
    survival = evolve_microscopic(arrow, times)
    assert np.all(np.isfinite(survival))
    reference = dense_survival(*dense_spectrum(arrow), times)
    np.testing.assert_allclose(survival, reference, rtol=0, atol=1e-12)
    if gamma == 0.0:
        assert np.all(survival == 1.0)
    else:
        np.testing.assert_allclose(survival, 1.0, rtol=0, atol=1e-12 + gamma * times[-1])


@pytest.mark.parametrize("half_width", [1.0, 20.0, 40.0])
@pytest.mark.parametrize("gamma", [1e-30, 1e-8, 1.0, 50.0])
@pytest.mark.parametrize("n_modes", [3, 33, 35, 101, 1601])
def test_secular_solver_matches_the_full_sum_oracle(n_modes, half_width, gamma):
    # The solver sums the poles within 16 indices of each root's origin
    # directly and the rest as digamma tails.  At 3 modes there are no tails; at 33 the
    # middle root has none and the edge roots one of 16 poles; at 35 the
    # middle root has two tails of one pole each; 101 and 1601 have long tails
    # on both sides of most roots.
    arrow = build_microscopic(FrequencyGrid(n_modes, half_width), gamma)
    energies, weights = emitter_spectrum(arrow)
    full_energies, full_weights = full_sum_spectrum(arrow)
    np.testing.assert_allclose(energies, full_energies, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, full_weights, rtol=0, atol=1e-14)
    # the two outer roots lie past the grid's edges, and the two next to them
    # in its first and last gaps (on the poles, to rounding, at gamma = 1e-30)
    freqs = grid_frequencies(arrow.grid)
    ends = [0, 1, -2, -1]
    np.testing.assert_allclose(energies[ends], full_energies[ends], rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights[ends], full_weights[ends], rtol=0, atol=1e-14)
    assert energies[0] <= freqs[0] <= energies[1] <= freqs[1]
    assert freqs[-2] <= energies[-2] <= freqs[-1] <= energies[-1]


def test_top_root_without_a_bound_state_matches_the_full_sum_oracle():
    # At a strong coupling, half <= kappa H_{2 half}, no bound state lies next
    # to the top pole: the top root lies some 50 spacings out and starts
    # mid-bracket.  Measured: 3.6e-15 in energy and 1.1e-16 in weight.
    arrow = build_microscopic(FrequencyGrid(801, 20.0), 50.0)
    half, kappa = 400, arrow.coupling**2 / arrow.grid.spacing**2
    assert half <= kappa * math.fsum(1.0 / np.arange(1, 2 * half + 1))
    energies, weights = emitter_spectrum(arrow)
    full_energies, full_weights = full_sum_spectrum(arrow)
    np.testing.assert_allclose(energies, full_energies, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, full_weights, rtol=0, atol=1e-14)
    assert energies[-1] > 20.0 + arrow.grid.spacing


@pytest.mark.parametrize("half_width", [1.0, 20.0, 40.0])
@pytest.mark.parametrize("gamma", [1e-30, 1e-8, 1.0, 50.0])
@pytest.mark.parametrize("n_modes", [3, 33, 35, 101, 1601])
def test_mirrored_half_spectrum_matches_the_every_root_oracle(n_modes, half_width, gamma):
    # The solver finds the roots above the centre pole from a flat-band start
    # and mirrors them; the oracle solves all n + 1 from mid-bracket.
    arrow = build_microscopic(FrequencyGrid(n_modes, half_width), gamma)
    freqs = grid_frequencies(arrow.grid)
    assert np.array_equal(freqs, -freqs[::-1])
    energies, weights = emitter_spectrum(arrow)
    every_energies, every_weights = every_root_spectrum(arrow)
    assert energies.shape == weights.shape == (n_modes + 1,)
    np.testing.assert_allclose(energies, every_energies, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, every_weights, rtol=0, atol=1e-14)
    assert np.array_equal(energies, -energies[::-1])
    assert np.array_equal(weights, weights[::-1])


@pytest.mark.parametrize("n_modes", [101, 401])
def test_dense_spectrum_is_symmetric_and_its_amplitude_real(n_modes):
    # S H S = -H with S = diag(1, -J), J reversing the modes: checked on the
    # dense eigendecomposition, which shares no code with the solver
    arrow = build_microscopic(FrequencyGrid(n_modes, 10.0), 1.0)
    evals, weights = dense_spectrum(arrow)
    np.testing.assert_allclose(evals, -evals[::-1], rtol=0, atol=1e-12)
    amplitude = np.exp(-1j * np.outer(np.linspace(0.0, 3.0, 301), evals)) @ weights
    assert np.max(np.abs(amplitude.imag)) <= 1e-12


@pytest.mark.parametrize("n_modes", [3, 33, 35, 1601])
def test_pole_sums_match_the_exact_sum_over_the_ladder(n_modes):
    # Every pole of the integer ladder but the origin, summed by math.fsum,
    # at offsets near 0, about 1/2 and next to the far pole of each gap, and
    # at the outer roots' offsets past 1.  At 3 modes there are no tails, at
    # 33 and 35 tails shorter than NEAR, at 1601 long ones (every origin
    # within NEAR + 2 of an end or 2 of the centre).  Measured: the sum
    # within 1.0 eps sum_j |1/(t - d_j)|, the squares within 2.13 eps.
    half = (n_modes - 1) // 2
    ladder = np.arange(-half, half + 1)
    origins = ladder[(np.abs(ladder) <= 2) | (np.abs(ladder) >= half - microscopic.NEAR - 2)]
    inner = [1e-300, 1e-12, 0.25, 0.5 - 2**-30, 0.5, 0.5 + 2**-30, 1.0 - 2**-30]
    cases = [(o, sign * x) for o in origins for x in inner for sign in (1.0, -1.0)]
    cases += [(half, x) for x in (1.5, 40.0, 1e3)] + [(-half, -x) for x in (1.5, 40.0, 1e3)]
    origin, t = np.array(cases).T
    r_sum, r_squares = microscopic._pole_sums(t, *microscopic._poles(origin.astype(int), half))
    eps = np.finfo(float).eps
    for (o, x), got_sum, got_squares in zip(cases, r_sum, r_squares):
        r = 1.0 / (x - (ladder[ladder != o] - o))
        assert abs(got_sum - math.fsum(r)) <= 2 * eps * math.fsum(np.abs(r))
        assert abs(got_squares - math.fsum(r * r)) <= 4 * eps * math.fsum(r * r)


def pole_sum_calls(monkeypatch, n_modes, gamma) -> list[int]:
    """The number of roots of each ``_pole_sums`` call of one spectrum."""
    calls = []
    pole_sums = microscopic._pole_sums

    def counted(*args):
        calls.append(args[0].size)
        return pole_sums(*args)

    monkeypatch.setattr(microscopic, "_pole_sums", counted)
    emitter_spectrum(build_microscopic(FrequencyGrid(n_modes, 20.0), gamma))
    return calls


@pytest.mark.parametrize("n_modes", [801, 1601])
def test_seeded_solver_keeps_its_evaluation_budget(monkeypatch, n_modes):
    # One block of roots costs the Newton steps and one evaluation for the
    # weights: 7 and 6 from the flat-band start at these sizes, against 10 and
    # 11 when every root starts mid-bracket
    calls = pole_sum_calls(monkeypatch, n_modes, 1.0)
    assert calls[0] == (n_modes + 1) // 2  # the upper half only, in one block
    assert len(calls) <= 7


@pytest.mark.parametrize("gamma", [1e-8, 1e-30])
@pytest.mark.parametrize("n_modes", [801, 1601])
def test_weak_coupling_keeps_the_evaluation_budget(monkeypatch, n_modes, gamma):
    # The root above the centre pole is the emitter split from the centre
    # mode by g.  Started a third of a spacing out, Newton's method only
    # halves its way down to g: 18-103 evaluations here.  Started at g, 4-5.
    calls = pole_sum_calls(monkeypatch, n_modes, gamma)
    assert calls[0] == (n_modes + 1) // 2
    assert len(calls) <= 10


@pytest.mark.parametrize("gamma", [1e-8, 1e-30])
@pytest.mark.parametrize("n_modes", [801, 1601, 3201])
def test_top_root_starts_at_its_bound_state(monkeypatch, n_modes, gamma):
    # The top root lies about kappa / half spacings above the top pole.
    # Started there, a block takes 4-5 evaluations; started mid-bracket, 10
    # to 40 spacings out here, 7-8.
    calls = pole_sum_calls(monkeypatch, n_modes, gamma)
    assert calls[0] == (n_modes + 1) // 2
    assert len(calls) <= 5


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_secular_solver_working_set_is_blocked():
    # the solver keeps a few (2048, 32) float arrays besides the grid: its
    # peak stays under a quarter of one real n x n array (0.85 MB against
    # 5.1 MB here)
    arrow = build_microscopic(FrequencyGrid(1601, 20.0), 1.0)
    assert traced_peak(emitter_spectrum, arrow) < 8 * 1602**2 / 4


def test_survival_sum_is_blocked_like_the_solver():
    # the survival sum keeps a few cos and sin tables of one block of 2048
    # roots against the 18 baby steps and the 17 giant steps of 301 samples,
    # so the evolution's peak is the solve's (2.21 MB here, the solver's few
    # (2048, 32) float arrays and the grid): a whole (times x modes) complex
    # exponential would be 31 MB here
    arrow = build_microscopic(FrequencyGrid(6401, 20.0), 1.0)
    times = np.linspace(0.0, 3.0, 301)
    solve = traced_peak(emitter_spectrum, arrow)
    assert traced_peak(evolve_microscopic, arrow, times) <= 1.5 * solve


def test_secular_solver_memory_grows_linearly():
    # 16 times the modes may take at most 2 x 16 times the memory: a solver
    # that held (n, n) arrays would take 256 times
    small = traced_peak(emitter_spectrum, build_microscopic(FrequencyGrid(1601, 20.0), 1.0))
    large = traced_peak(emitter_spectrum, build_microscopic(FrequencyGrid(25601, 20.0), 1.0))
    assert large <= 2 * 16 * small


def continuum_amplitude(times, gamma, half_width, panels=400, order=20):
    """c_e(t) = integral of rho(w) e^{-i w t} over the flat band [-W, W],
    rho(w) = (gamma/2pi) / ((w - shift(w))^2 + (gamma/2)^2) with the band-edge
    level shift shift(w) = (gamma/2pi) ln|(w + W)/(w - W)|, by Gauss-Legendre
    panels.  No eigensolver and no mode list: the bound states past the band
    edges weigh about e^{-2 pi W/gamma} and are left out."""
    nodes, node_weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-half_width, half_width, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    omega = (half * nodes + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    weight = (half * node_weights).ravel()
    shift = gamma / (2.0 * math.pi) * np.log(np.abs((omega + half_width) / (omega - half_width)))
    density = gamma / (2.0 * math.pi) / ((omega - shift) ** 2 + (gamma / 2.0) ** 2)
    return np.exp(-1j * np.outer(times, omega)) @ (density * weight)


@pytest.fixture(scope="module")
def continuum_band():
    times = np.linspace(0.0, 6.0, 121)
    return times, continuum_amplitude(times, 1.0, 20.0)


@pytest.mark.parametrize("n_modes", [401, 1601, 6401, 25601])
def test_grid_converges_to_the_continuum_band(continuum_band, n_modes):
    # The grid differs from the flat continuum band at first order in the
    # spacing: 1.44e-3 * spacing in the survival and 7.6e-4 * spacing in the
    # amplitude at each of these sizes (1.445e-3 and 7.65e-4 at 25601).
    # 6401 modes is out of reach of a dense eigensolver.
    times, reference = continuum_band
    arrow = build_microscopic(FrequencyGrid(n_modes, 20.0), 1.0)
    energies, weights = emitter_spectrum(arrow)
    amplitude = np.exp(-1j * np.outer(times, energies)) @ weights
    spacing = arrow.grid.spacing
    assert np.max(np.abs(amplitude - reference)) <= 8e-4 * spacing
    survival = evolve_microscopic(arrow, times)
    assert np.max(np.abs(survival - np.abs(reference) ** 2)) <= 1.5e-3 * spacing
