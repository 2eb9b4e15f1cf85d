"""Unit tests for the exact frequency-grid emitter model."""

import math

import numpy as np
import pytest

from timebins.errors import GuardError
from timebins.microscopic import (
    FrequencyGrid,
    build_microscopic,
    evolve_microscopic,
    fit_decay_rate,
)


def test_grid_validation_and_spacing():
    grid = FrequencyGrid(1601, 20.0)
    assert grid.spacing == pytest.approx(0.025)
    freqs = grid.frequencies
    assert freqs[0] == -20.0 and freqs[-1] == 20.0
    assert freqs[800] == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(ValueError):
        FrequencyGrid(1600, 20.0)
    with pytest.raises(ValueError):
        FrequencyGrid(1601, -1.0)


def test_build_microscopic_structure():
    grid = FrequencyGrid(11, 1.0)
    h = build_microscopic(grid, 0.0)
    np.testing.assert_array_equal(h, np.diag(np.concatenate([[0.0], grid.frequencies])))

    gamma = 0.7
    h = build_microscopic(grid, gamma)
    # golden-rule identity is exact by construction: 2 pi g^2 / spacing = gamma
    g = abs(h[1, 0])
    assert 2.0 * math.pi * g**2 / grid.spacing == pytest.approx(gamma, rel=1e-14)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-15


def test_evolution_starts_at_one_and_conserves_norm():
    grid = FrequencyGrid(401, 10.0)
    h = build_microscopic(grid, 1.0)
    times, survival = evolve_microscopic(h, 2.0, 100)
    assert survival[0] == pytest.approx(1.0, abs=1e-12)

    # independent evolution of the full amplitude vector at a few times
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
    h = build_microscopic(FrequencyGrid(1601, 20.0), 1.0)
    return evolve_microscopic(h, 2.5, 500)


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
        h = build_microscopic(FrequencyGrid(n_modes, half_width), 1.0)
        times, survival = evolve_microscopic(h, 2.5, 250)
        rate = -fit_decay_rate(times, survival, window=(0.5, 2.5))
        errors.append(abs(rate - 1.0))
    assert errors[0] > errors[1] > errors[2]


def test_recurrence_guard():
    grid = FrequencyGrid(41, 1.0)  # spacing 0.05 -> recurrence at 2 pi / 0.05
    h = build_microscopic(grid, 1.0)
    with pytest.raises(GuardError):
        evolve_microscopic(h, 2.0 * math.pi / grid.spacing + 1.0, 10)
    times, survival = evolve_microscopic(h, 10.0, 10)  # below the guard
    assert times[-1] == 10.0


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
    family = extract_kraus(u, 2, 2, dt)
    series = iterate_channel(family, DensityMatrix.pure([0.0, 1.0]), len(times) - 1)
    # compare after the bandwidth transient (t ~ 1/half_width decays
    # quadratically, not exponentially), matching the rate-fit window
    gap = max(
        abs(float(dm[1, 1].real) - p)
        for dm, p, t in zip(series, survival, times)
        if t >= 0.5
    )
    assert gap <= 0.02  # dominated by the grid's finite bandwidth, not by dt
