"""System models, the truncated time-bin Fock space, and the coarse bin map.

One collision evolves system (x) bin with the unitary

    U = exp[-i dt H (x) 1 + sqrt(gamma dt) (sigma (x) dB^dag - sigma^dag (x) dB)],

where dB is the annihilation operator of a single time bin of width dt,
truncated at n_max photons.  Replacing the time-ordered evolution over the
bin by this plain exponential is the coarse-graining step; its per-bin error
is probed numerically by ``ordering_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# apply_channel stays bound in model too: perfbench/tracing.py wraps it here
from .channel import DensityMatrix, apply_channel, extract_kraus, iterate_channel
from .operators import HERMITICITY_TOL, expm, kron

__all__ = [
    "SystemModel",
    "CoarseParams",
    "lowering_matrix",
    "two_level_system",
    "truncated_oscillator",
    "dephasing_variant",
    "bin_generator",
    "coarse_map",
    "ordering_residual",
    "expansion_report",
]


def lowering_matrix(dim: int) -> np.ndarray:
    """Ladder operator with sqrt(m) on the superdiagonal (index 0 = ground)."""
    if dim < 2:
        raise ValueError("a ladder needs at least two levels")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


@dataclass(frozen=True)
class SystemModel:
    """A local quantum system: bath-coupling operator plus its Hamiltonian."""

    lowering: np.ndarray
    hamiltonian: np.ndarray

    def __post_init__(self) -> None:
        lowering = np.asarray(self.lowering, dtype=complex)
        h = np.asarray(self.hamiltonian, dtype=complex)
        n = lowering.shape[0] if lowering.ndim else 0
        if lowering.shape != (n, n) or h.shape != (n, n):
            raise ValueError("operator dimensions do not match the system dimension")
        object.__setattr__(self, "lowering", lowering)
        object.__setattr__(self, "hamiltonian", h)
        if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
            raise ValueError("system Hamiltonian must be Hermitian")

    @property
    def dim(self) -> int:
        return self.lowering.shape[0]


def two_level_system(omega0: float = 0.0, drive: float = 0.0) -> SystemModel:
    """Qubit in the {|g>, |e>} basis: sigma = |g><e|,
    H = omega0 |e><e| + drive (sigma + sigma^dag)."""
    sigma = lowering_matrix(2)
    h = omega0 * np.diag([0.0, 1.0]).astype(complex) + drive * (sigma + sigma.conj().T)
    return SystemModel(sigma, h)


def truncated_oscillator(levels: int = 3, omega0: float = 0.0) -> SystemModel:
    """Harmonic oscillator truncated to ``levels`` states, coupling via a."""
    a = lowering_matrix(levels)
    h = omega0 * np.diag(np.arange(levels, dtype=float)).astype(complex)
    return SystemModel(a, h)


def dephasing_variant(base: SystemModel) -> SystemModel:
    """Swap the bath coupling for the excitation number sigma^dag sigma.

    The Hamiltonian is unchanged; the resulting channel leaves populations in
    the number basis fixed and damps coherences.
    """
    sigma = base.lowering
    return SystemModel(sigma.conj().T @ sigma, base.hamiltonian)


@dataclass(frozen=True)
class CoarseParams:
    """Decay rate, bin width (or a 1-D array of them), and bin truncation."""

    gamma: float
    dt: float | np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if np.any(np.asarray(self.dt) <= 0):
            raise ValueError("dt must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


def bin_generator(system: SystemModel, params: CoarseParams) -> np.ndarray:
    """Anti-Hermitian exponent of the one-bin map on system (x) bin, a square
    matrix of side system.dim * (n_max + 1); for k widths, a (k, side, side)
    stack, with the dt-free H (x) 1 and exchange terms built once."""
    d_bin = params.n_max + 1
    db = lowering_matrix(d_bin)
    sigma = system.lowering
    dt = np.asarray(params.dt, dtype=float)[..., None, None]
    free = kron(system.hamiltonian, np.eye(d_bin, dtype=complex))
    exchange = kron(sigma, db.conj().T) - kron(sigma.conj().T, db)
    return (-1j * dt) * free + np.sqrt(params.gamma * dt) * exchange


def coarse_map(system: SystemModel, params: CoarseParams) -> np.ndarray:
    """Unitary one-bin evolution exp(bin_generator(system, params))."""
    return expm(bin_generator(system, params))


def ordering_residual(
    system: SystemModel, params: CoarseParams, subdivisions: int
) -> float | np.ndarray:
    """Per-bin discrepancy between one coarse step and a subdivided reference.

    Applies one bin of width dt, and ``subdivisions`` sequential sub-bins of
    width dt/subdivisions (each starting in vacuum, traced out), to the
    projector onto the most excited system state and returns the max-norm
    difference of the outputs: channels, so no bin-product space is formed.

    For k widths: one coarse_map and one iterate_channel over the 2k families,
    each bin before its sub-bin, so families are refused in width order; a
    bin chain's first collision is compared with a sub-bin chain's last.
    Every state is checked, so a bin family within TRACE_TOL whose trace loss
    compounds past it in ``subdivisions`` collisions is refused (StateError).
    """
    if subdivisions < 2:
        raise ValueError("subdivisions must be >= 2")
    dt = np.asarray(params.dt, dtype=float).ravel()
    widths = np.stack([dt, dt / subdivisions], axis=1).ravel()  # each bin, then its sub-bin
    maps = coarse_map(system, CoarseParams(params.gamma, widths, params.n_max))
    families = extract_kraus(maps, system.dim, params.n_max)

    rho = DensityMatrix.pure(np.eye(system.dim)[-1])  # the most excited state
    chains = iterate_channel(families, rho, subdivisions)
    out = np.max(np.abs(chains[0::2, 1] - chains[1::2, -1]), axis=(-2, -1))
    return out.reshape(np.shape(params.dt))[()]  # a float for a single width


def expansion_report(
    family: np.ndarray, system: SystemModel, gamma: float, dt: float | np.ndarray
) -> tuple[float | np.ndarray, ...]:
    """Distances (r0, r1, r2) of K_0, K_1, K_2 of a family of bin width dt
    from their leading small-dt forms (arrays, for a stack and its widths):

    r0 = ||K0 - (1 + dt(-i H - gamma/2 n))||, r1 = ||K1 - sqrt(gamma dt) sigma||,
    r2 = ||K2||, all in the max norm; n = sigma^dag sigma.
    """
    if family.shape[-3] < 3:
        raise ValueError("expansion_report needs n_max >= 2 so that K_2 exists")
    sigma = system.lowering
    number = sigma.conj().T @ sigma
    dt = np.asarray(dt, dtype=float)[..., None, None]
    k0_ref = np.eye(system.dim) + dt * (-1j * system.hamiltonian - (gamma / 2.0) * number)
    k1_ref = np.sqrt(gamma * dt) * sigma
    k0, k1, k2 = np.moveaxis(family[..., :3, :, :], -3, 0)
    return tuple(np.abs(x).max(axis=(-2, -1)) for x in (k0 - k0_ref, k1 - k1_ref, k2))
