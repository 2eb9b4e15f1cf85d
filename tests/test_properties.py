"""Randomized property checks over the channel and operator kernels.

Each property runs over at least 100 seeded random instances, mirroring the
acceptance battery but with per-property reporting.
"""

import math

import numpy as np

from timebins.channel import DensityMatrix, apply_channel, completeness_defect, extract_kraus
from timebins.model import (
    CoarseParams,
    coarse_map,
    dephasing_variant,
    truncated_oscillator,
    two_level_system,
)
from timebins.operators import expm

from oracle import Operator, dagger, identity, partial_trace

N_INSTANCES = 120


def random_density(rng, dim):
    if rng.random() < 0.5:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return DensityMatrix.pure(v)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho)


def random_system(rng):
    choice = rng.integers(0, 4)
    omega0 = float(rng.uniform(-1.5, 1.5))
    drive = float(rng.uniform(-1.0, 1.0))
    if choice == 0:
        return two_level_system(omega0, 0.0)
    if choice == 1:
        return two_level_system(omega0, drive)
    if choice == 2:
        return dephasing_variant(two_level_system(omega0, drive))
    return truncated_oscillator(3, omega0)


def random_family(rng):
    system = random_system(rng)
    gamma = float(rng.uniform(0.05, 2.0))
    dt = float(rng.uniform(0.002, 0.2))
    n_max = int(rng.integers(2, 4))
    params = CoarseParams(gamma, dt, n_max)
    return system, extract_kraus(coarse_map(system, params), system.dim, n_max)


def test_channel_trace_preservation_positivity_hermiticity():
    rng = np.random.default_rng(2024)
    for _ in range(N_INSTANCES):
        system, family = random_family(rng)
        rho = random_density(rng, system.dim)
        m = apply_channel(family, rho.matrix)

        trace_dev = abs(np.trace(m).real - np.trace(rho.matrix).real)
        assert trace_dev <= completeness_defect(family) + 1e-12

        assert np.max(np.abs(m - m.conj().T)) == 0.0  # symmetrized output

        assert float(np.linalg.eigvalsh(m)[0]) >= -1e-10


def test_expm_unitarity_on_random_antihermitian():
    rng = np.random.default_rng(99)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = Operator(expm(m - m.conj().T), (n,))
        assert np.max(np.abs((dagger(u) @ u - identity((n,))).data)) <= 1e-12


def test_partial_trace_preserves_trace_on_random_operators():
    rng = np.random.default_rng(4242)
    shapes = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)]
    for i in range(N_INSTANCES):
        dims = shapes[i % len(shapes)]
        side = math.prod(dims)
        m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        op = Operator(m, dims)
        keep_count = int(rng.integers(1, len(dims)))
        keep = tuple(sorted(rng.choice(len(dims), size=keep_count, replace=False)))
        reduced = partial_trace(op, keep)
        assert abs(np.trace(reduced.data) - np.trace(op.data)) <= 1e-12 * side


def test_density_matrix_invariants_along_random_iterations():
    rng = np.random.default_rng(7)
    for _ in range(100):
        system, family = random_family(rng)
        m = random_density(rng, system.dim).matrix
        for _ in range(3):
            m = apply_channel(family, m)
        assert abs(np.trace(m).real - 1.0) <= 1e-9
        assert float(np.linalg.eigvalsh(m)[0]) >= -1e-10
