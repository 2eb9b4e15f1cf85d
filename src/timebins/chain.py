"""Exact pure-state evolution of the system plus the time bins it has met.

Each bin arrives in vacuum and meets the system exactly once, mirroring the
causal input-output structure; this is what makes the reduced system
dynamics reproduce the Kraus iteration exactly while the global state becomes
entangled.  So the state holds only the bins met so far, on
bin_0 (x) ... (x) bin_{k-1} (x) system: each collision appends the cursor bin
in vacuum just before the system, and the bins still ahead are never stored.

A state is read once after each collision: its amplitudes, viewed as real
pairs in rows of the system index, give the real Gram matrix of the system's
columns, and the norm and finiteness checks and the reduced system state are
read off that (2 s, 2 s) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import check_states
from .errors import GuardError
from .operators import StateVector

__all__ = ["ChainState", "MAX_AMPLITUDES", "init_chain", "step_chain", "reduced_system"]

# Most amplitudes a chain may reach, and the bound on every size a run config
# sets (steps, microscopic modes, one-bin unitary entries), each refused before
# any array exists: a run at the cap peaks near 2 GB (300-500 bytes a row).
# Numpy may be granted more than the machine holds; the kernel then kills the run.
MAX_AMPLITUDES = 1 << 22
NORM_TOL = 1e-10


@dataclass(frozen=True)
class ChainState:
    """Normalized state on the bins met so far (x) system, in a chain of
    n_bins identical bins of dimension bin_dim.

    ``gram`` is w^T w for the real view w of the amplitudes, one row per
    index of the bins and 2 s columns (the real and imaginary part of each
    system amplitude); its trace is the squared norm.  Every check on a
    chain state is made here; the ``StateVector`` it holds is a plain record.
    """

    vec: StateVector
    bin_dim: int
    n_bins: int
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        data, dims = self.vec.data, self.vec.dims
        if not dims:
            raise ValueError("need at least one tensor factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be >= 1, got {dims}")
        if data.shape != (math.prod(dims),):
            raise ValueError(f"vector length {data.shape} does not match factor dimensions {dims}")
        if any(d != self.bin_dim for d in dims[:-1]):
            raise ValueError(f"bins must share dimension {self.bin_dim}, got {dims[:-1]}")
        if not 0 <= self.cursor <= self.n_bins:
            raise ValueError(f"cursor {self.cursor} out of range for {self.n_bins} bins")
        w = data.view(float).reshape(-1, 2 * self.sys_dim)
        # a NaN or inf amplitude, or a square that overflows, leaves the trace
        # non-finite; only a refusal reads the amplitudes again, to say which
        with np.errstate(over="ignore", invalid="ignore"):
            gram = w.T @ w
            drift = abs(math.sqrt(float(np.trace(gram))) - 1.0)
        object.__setattr__(self, "gram", gram)
        if not drift <= NORM_TOL:
            if not np.isfinite(data).all():
                raise ValueError("state vector has non-finite amplitudes")
            raise ValueError(f"chain state norm drifted by {drift:.3e}")

    @property
    def sys_dim(self) -> int:
        return self.vec.dims[-1]

    @property
    def cursor(self) -> int:
        """The number of bins met, which is the index of the next one."""
        return len(self.vec.dims) - 1


def init_chain(amplitudes, n_bins: int, n_max: int) -> ChainState:
    """The system state vector before its first collision, with the cursor at
    bin 0."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    state = ChainState(StateVector(amplitudes, (np.size(amplitudes),)), n_max + 1, n_bins)
    sys_dim, d_bin = state.sys_dim, state.bin_dim
    # the cap is on the size after the last collision; a count past 64 bits
    # is over it whatever the sizes, and is named by its formula: forming and
    # printing d_bin**n_bins can take minutes
    bits = math.log2(sys_dim) + n_bins * math.log2(d_bin)
    total = sys_dim * d_bin**n_bins if bits <= 64 else f"{sys_dim}*{d_bin}**{n_bins}"
    if bits > 64 or total > MAX_AMPLITUDES:
        raise GuardError(
            f"chain would need {total} amplitudes (> {MAX_AMPLITUDES}); "
            "reduce n_bins or n_max"
        )
    return state


def step_chain(state: ChainState, u: np.ndarray) -> ChainState:
    """Collide the system with the cursor bin, which enters in vacuum: apply
    the (s d, s d) matrix u on (system, bin) and advance the cursor."""
    if state.cursor >= state.n_bins:
        raise GuardError("all bins have already interacted")
    s, d = state.sys_dim, state.bin_dim
    u = np.asarray(u, dtype=complex)
    if u.shape != (s * d, s * d):
        raise ValueError(f"map shape {u.shape} does not match (system, bin) = {(s, d)}")
    # the bin enters in vacuum, so only U's bin-0 input columns act; rows
    # reordered from (system, bin) to (bin, system): the bin lands last among
    # the bins met, just before the system
    from_vacuum = u.reshape(s, d, s, d)[:, :, :, 0].swapaxes(0, 1).reshape(d * s, s)
    out = state.vec.data.reshape(-1, s) @ from_vacuum.T
    vec = StateVector(out.reshape(-1), state.vec.dims[:-1] + (d, s))
    return ChainState(vec, d, state.n_bins)


def reduced_system(state: ChainState) -> np.ndarray:
    """The (s, s) reduced state, symmetrized and checked (``check_states``):
    the partial trace over every bin, rho_ij = sum over the bins of v_i conj(v_j),
    read off the Gram matrix as re_i re_j + im_i im_j + i (im_i re_j - re_i im_j)."""
    g = state.gram
    rho = g[0::2, 0::2] + g[1::2, 1::2] + 1j * (g[1::2, 0::2] - g[0::2, 1::2])
    rho = 0.5 * (rho + rho.conj().T)
    check_states(rho[None])
    return rho
