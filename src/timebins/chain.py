"""Exact pure-state evolution of the system plus a finite chain of time bins.

The global state lives on system (x) bin_0 (x) ... (x) bin_{N-1} and a cursor
marks the next bin to collide with.  Each bin is touched exactly once and
never revisited, mirroring the causal input-output structure; this is what
makes the reduced system dynamics reproduce the Kraus iteration exactly while
the global state becomes entangled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DensityMatrix
from .errors import GuardError
from .operators import StateVector

__all__ = ["ChainState", "MAX_AMPLITUDES", "init_chain", "step_chain", "reduced_system"]

MAX_AMPLITUDES = 1 << 22
NORM_TOL = 1e-10


@dataclass(frozen=True)
class ChainState:
    """Normalized state on system (x) N identical bins, plus the collision cursor."""

    vec: StateVector
    cursor: int

    def __post_init__(self) -> None:
        if len(self.vec.dims) < 2:
            raise ValueError("chain state needs a system factor and at least one bin")
        bins = set(self.vec.dims[1:])
        if len(bins) != 1:
            raise ValueError(f"bins must share one dimension, got {self.vec.dims[1:]}")
        if not 0 <= self.cursor <= self.n_bins:
            raise ValueError(f"cursor {self.cursor} out of range for {self.n_bins} bins")
        drift = abs(self.vec.norm() - 1.0)
        if drift > NORM_TOL:
            raise ValueError(f"chain state norm drifted by {drift:.3e}")

    @property
    def sys_dim(self) -> int:
        return self.vec.dims[0]

    @property
    def bin_dim(self) -> int:
        return self.vec.dims[1]

    @property
    def n_bins(self) -> int:
        return len(self.vec.dims) - 1


def init_chain(sys_state: StateVector, n_bins: int, n_max: int) -> ChainState:
    """Product state (system state) (x) |0...0> with the cursor at bin 0."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sys_dim = math.prod(sys_state.dims)
    d_bin = n_max + 1
    # a count past 64 bits is over the cap whatever the sizes, and is named by
    # its formula: forming and printing d_bin**n_bins can take minutes
    bits = math.log2(sys_dim) + n_bins * math.log2(d_bin)
    total = sys_dim * d_bin**n_bins if bits <= 64 else f"{sys_dim}*{d_bin}**{n_bins}"
    if bits > 64 or total > MAX_AMPLITUDES:
        raise GuardError(
            f"chain would need {total} amplitudes (> {MAX_AMPLITUDES}); "
            "reduce n_bins or n_max"
        )
    vacuum = np.zeros(d_bin**n_bins, dtype=complex)
    vacuum[0] = 1.0
    vec = np.kron(sys_state.data, vacuum)
    dims = (sys_dim,) + (d_bin,) * n_bins
    return ChainState(StateVector(vec, dims), 0)


def step_chain(state: ChainState, u: np.ndarray) -> ChainState:
    """Collide the system with the cursor bin: apply the (s d, s d) matrix u
    on that pair, identity elsewhere, and advance the cursor."""
    if state.cursor >= state.n_bins:
        raise GuardError("all bins have already interacted")
    s, d = state.sys_dim, state.bin_dim
    u = np.asarray(u, dtype=complex)
    if u.shape != (s * d, s * d):
        raise ValueError(f"map shape {u.shape} does not match (system, bin) = {(s, d)}")
    before = d**state.cursor
    after = d ** (state.n_bins - state.cursor - 1)
    v4 = state.vec.data.reshape(s, before, d, after)
    u4 = u.reshape(s, d, s, d)
    out = np.einsum("iajb,jpbq->ipaq", u4, v4)
    vec = StateVector(out.reshape(-1), state.vec.dims)
    return ChainState(vec, state.cursor + 1)


def reduced_system(state: ChainState) -> DensityMatrix:
    """Partial trace over every bin, computed directly from the pure state."""
    v = state.vec.data.reshape(state.sys_dim, -1)
    rho = v @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)

