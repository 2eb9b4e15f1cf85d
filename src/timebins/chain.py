"""Exact pure-state evolution of the system plus the time bins it has met,
as a matrix product state on bin_0 (x) ... (x) bin_{k-1} (x) system.

Each bin arrives in vacuum and meets the system exactly once, mirroring the
causal input-output structure; this is what makes the reduced system
dynamics reproduce the Kraus iteration exactly while the global state becomes
entangled.  It also caps every cut's Schmidt rank at s, so the product is
exact with no truncation: the bins met are left-isometric tensors (bond,
bin, bond'), and the centre holds the amplitudes on (bond, system), the
global norm and the reduced state.  A collision applies U's vacuum-input
columns to the centre and splits (bond, new bin) from the system with one
QR: Q is the new bin, R the new centre.  The centre c is read once, as the
reduced state c^T conj(c); the checks are read off it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .channel import check_states
from .errors import GuardError
from .operators import StateVector

__all__ = ["ChainState", "MAX_AMPLITUDES", "init_chain", "step_chain", "reduced_system"]

# Most amplitudes the dense chain of a run may reach (the product state stays
# small, but the cap keeps every accepted chain within the dense oracle's
# reach), and the bound on every size a run config sets (steps, microscopic
# modes, one-bin unitary entries), each refused before any array exists: a
# run at the cap traces up to about 0.8 GB (106-186 bytes a row at 10**6 steps).
MAX_AMPLITUDES = 1 << 22
NORM_TOL = 1e-10


@dataclass(frozen=True)
class ChainState:
    """Normalized state on the bins met so far (x) system, in a chain of
    n_bins identical bins of dimension bin_dim: the bin tensors ``bins`` and
    the centre ``vec`` on (bond, system).

    ``rho`` is the (s, s) reduced state c^T conj(c) of the centre c,
    symmetrized and unchecked; its trace is the squared norm.  Every check on
    a chain state is made here; the ``StateVector`` it holds is a plain record.

    A state built directly has met no bins.  Only ``step_chain`` passes
    ``_bins``, each a Q factor of its QR and so a left isometry: the centre's
    norm is then the global norm, and no bin needs a check of its own.
    """

    vec: StateVector
    bin_dim: int
    n_bins: int
    _bins: InitVar[tuple[np.ndarray, ...]] = ()
    bins: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    rho: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _bins: tuple[np.ndarray, ...]) -> None:
        object.__setattr__(self, "bins", _bins)
        c = self.vec.data
        if c.ndim != 2:
            raise ValueError(f"the centre needs dimensions (bond, system), got {c.shape}")
        if min(c.shape) < 1:
            raise ValueError(f"factor dimensions must be >= 1, got {c.shape}")
        if self.cursor > self.n_bins:
            raise ValueError(f"cursor {self.cursor} out of range for {self.n_bins} bins")
        if not self.bins and c.shape[0] != 1:
            raise ValueError(f"a chain that has met no bins needs bond 1, got dimensions {c.shape}")
        # a NaN or inf amplitude, or a square that overflows, leaves the trace
        # non-finite; only a refusal reads the amplitudes again, to say which
        with np.errstate(over="ignore", invalid="ignore"):
            rho = c.T @ c.conj()
            rho = 0.5 * (rho + rho.conj().T)
            drift = abs(math.sqrt(rho.trace().real) - 1.0)
        object.__setattr__(self, "rho", rho)
        if not drift <= NORM_TOL:
            if not np.isfinite(c).all():
                raise ValueError("state vector has non-finite amplitudes")
            raise ValueError(f"chain state norm drifted by {drift:.3e}")

    @property
    def sys_dim(self) -> int:
        return self.vec.data.shape[1]

    @property
    def cursor(self) -> int:
        """The number of bins met, which is the index of the next one."""
        return len(self.bins)


def init_chain(amplitudes, n_bins: int, n_max: int) -> ChainState:
    """The system state vector before its first collision, with the cursor at
    bin 0."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    state = ChainState(StateVector(np.reshape(amplitudes, (1, -1))), n_max + 1, n_bins)
    sys_dim, d_bin = state.sys_dim, state.bin_dim
    # the cap is on the dense size after the last collision; a count past 64
    # bits is over it whatever the sizes, and is named by its formula: forming
    # and printing d_bin**n_bins can take minutes
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
    # reordered from (system, bin) to (bin, system), so QR splits the bin off
    # with the bond.  NaN passes through QR to the centre's check.
    from_vacuum = u.reshape(s, d, s, d)[:, :, :, 0].swapaxes(0, 1).reshape(d * s, s)
    out = state.vec.data @ from_vacuum.T
    q, r = np.linalg.qr(out.reshape(-1, s))
    bins = state.bins + (q.reshape(-1, d, q.shape[1]),)
    return ChainState(StateVector(r), d, state.n_bins, _bins=bins)


def reduced_system(state: ChainState) -> np.ndarray:
    """The (s, s) reduced state, symmetrized and checked (``check_states``)."""
    check_states(state.rho[None])
    return state.rho.copy()
