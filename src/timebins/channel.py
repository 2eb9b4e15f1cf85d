"""Kraus operators of the one-bin map and the induced system channel.

The one-bin unitary acts on system (x) bin.  Sandwiching it between the bin
vacuum on the right and the bin number states <m| on the left yields one
system-space Kraus operator per bin photon count m, and the reduced dynamics
is the operator-sum map rho -> sum_m K_m rho K_m^dag.

The family is one (n_max+1, d, d) array K[m], a sweep's k families one
(k, n_max+1, d, d) stack, and every sum over m is one broadcast product.
Long trajectories run in Liouville space: with the row-major vec(rho) =
rho.ravel(), one collision is the d^2 x d^2 step matrix S_c = sum_m K_m (x)
conj(K_m).  ``propagate`` fills a whole (steps+1, d, d) stack by doubling:
with states 0 .. m-1 known, states m .. 2m-1 are S^m times them (one
product), and S^2m = S^m S^m (one squaring), so 10^4 steps take 14 products
and 13 squarings, each power trace-exact where S is.  The stack is then
checked block by block (``check_states``) with ``DensityMatrix``'s thresholds.

A collision changes the trace of rho by tr((sum_m K_m^dag K_m - 1) rho), so
trace preservation is a property of the family, not of a state: the family is
checked once, before any state is computed (``apply_channel``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, StateError
from .operators import square_matrix

__all__ = [
    "DensityMatrix",
    "extract_kraus",
    "completeness_defect",
    "apply_channel",
    "iterate_channel",
    "step_matrix",
    "propagate",
    "check_states",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-10

# Largest allowed distance between the step matrix and the Kraus map on the
# first step of a trajectory.
STEP_MATRIX_TOL = 1e-12
# A step matrix whose trace functional is this close to vec(1)^T is
# trace-preserving up to rounding, and ``propagate`` keeps its powers exactly
# so: S_c is off by 3e-15 at worst (the package's systems, n_max <= 8, gamma
# dt <= 5), S_rk4 by 0.0 over the benchmark runs of seeds 1-3 and at dt 1e-6.
TRACE_ROUNDING = 1e-14
# States checked, and CSV rows formatted and written, per block, so neither
# the check's copies nor a CSV table ever grow with a run's length.
CSV_BLOCK_ROWS = 1024


@functools.cache
def _triangles(d: int) -> tuple[np.ndarray, ...]:
    """Rows of (d*d, n) state entries: the strict lower triangle and the diagonal,
    the entries they mirror, and the (d, pairs) incidence of i with pairs (i, j)."""
    i, j = np.tril_indices(d, -1)
    diagonal, index = np.arange(d) * (d + 1), np.arange(d)[:, None]
    incidence = 1.0 * ((index == i) | (index == j))
    return np.append(i * d + j, diagonal), np.append(j * d + i, diagonal), incidence


def check_states(stack: np.ndarray) -> None:
    """Check every state of a (n, d, d) stack as a density matrix (finiteness,
    Hermiticity, unit trace, smallest eigenvalue); StateError names the
    earliest state that fails, with the first check it fails.  Blocks of
    CSV_BLOCK_ROWS states are checked in order, each read once into rows of
    entries; the Hermiticity defect is the largest |rho_ij - conj(rho_ji)| on
    the lower triangle and diagonal, and eigvalsh runs only where Gershgorin's
    bound on the lower triangle (what eigvalsh reads) does not clear a state."""
    if len(stack) > CSV_BLOCK_ROWS:
        for start in range(0, len(stack), CSV_BLOCK_ROWS):
            check_states(stack[start : start + CSV_BLOCK_ROWS])
        return
    n, d = len(stack), stack.shape[-1]
    entries = stack.reshape(n, d * d).T.copy()
    # every comparison with NaN is False, so non-finite states get their own
    # test, and the others run on zeros in their place
    finite = np.isfinite(entries).all(0)
    if not finite.all():
        entries = np.where(finite, entries, 0.0)
    lower, upper, incidence = _triangles(d)
    low = entries[lower]
    herm = np.abs(low - entries[upper].conj()).max(0)
    low, diag = low[: incidence.shape[1]], low[incidence.shape[1] :]
    # in np.trace's order (pairwise from 4 entries), so a failure reads the same
    tr = diag.real.sum(0) if d < 4 else np.ascontiguousarray(diag.T).sum(1).real
    # no eigenvalue is below min_i (rho_ii - sum_j!=i |rho_ij|)
    unclear = np.min(diag.real - incidence @ np.abs(low), axis=0) < 0.0
    lo = np.zeros(n)
    if unclear.any():
        lo[unclear] = np.linalg.eigvalsh(stack[unclear])[:, 0]
    bad = ~finite | (herm > HERMITICITY_TOL) | (abs(tr - 1.0) > TRACE_TOL) | (lo < MIN_EIGENVALUE)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if not finite[k]:
        raise StateError("density matrix has non-finite entries")
    if herm[k] > HERMITICITY_TOL:
        raise StateError(f"density matrix not Hermitian (defect {herm[k]:.3e})")
    if abs(tr[k] - 1.0) > TRACE_TOL:
        raise StateError(f"density matrix trace {float(tr[k])!r} is not 1")
    raise StateError(f"density matrix has negative eigenvalue {lo[k]:.3e}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of the system."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = square_matrix(self.matrix, "density matrix")
        object.__setattr__(self, "matrix", m)
        check_states(m[None])

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        """Projector onto a (normalized copy of the) given state vector; a
        zero or non-finite vector is a StateError."""
        v = np.asarray(amplitudes, dtype=complex).ravel()
        scale = np.max(np.abs(v.view(float)), initial=0.0)
        if not 0.0 < scale < np.inf:
            raise StateError(f"state vector is {'zero' if scale == 0.0 else 'not finite'}")
        if not 1e-150 < scale < 1e150:  # its squares would lose precision or overflow
            v = (v.view(float) / scale).view(complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


def extract_kraus(u: np.ndarray, sys_dim: int, n_max: int) -> np.ndarray:
    """The family K_m = (1 (x) <m|) U (1 (x) |0>) for m = 0 .. n_max, as one
    complex (n_max+1, d, d) array whose entry m is K_m; for a (k, side, side)
    stack of maps, the (k, n_max+1, d, d) stack of their families."""
    d_bin = n_max + 1
    side = sys_dim * d_bin
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (side, side):
        raise ValueError(
            f"map has shape {u.shape}, expected {(side, side)} "
            f"for (system, bin) = {(sys_dim, d_bin)}"
        )
    # u[(i, m), (j, 0)] = K_m[i, j]
    return u.reshape(u.shape[:-2] + (sys_dim, d_bin) * 2)[..., 0].swapaxes(-3, -2).copy()


def completeness_defect(family: np.ndarray) -> float | np.ndarray:
    """||sum_m K_m^dag K_m - 1||_max (one per family of a stack): for a family
    over the whole truncated bin basis it reflects only the accuracy of the
    map it was taken from.  A collision changes a state's trace by
    tr((sum_m K_m^dag K_m - 1) rho), so the family keeps the trace to within
    d times this."""
    with np.errstate(invalid="ignore"):  # inf * 0 = nan: that family is incomplete
        acc = (family.conj().swapaxes(-1, -2) @ family).sum(-3)
        return np.max(np.abs(acc - np.eye(family.shape[-1])), axis=(-2, -1))


def apply_channel(family: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """One collision of the (d, d) matrix rho: rho -> sum_m K_m rho K_m^dag,
    or the (k, d, d) stack of one under each family of a (k, n_max+1, d, d) stack.

    Before any state is computed, every family must be complete: GuardError
    names the first (in stack order) whose completeness defect exceeds
    TRACE_TOL or is not finite.  The accumulated output is symmetrized to
    (rho + rho^dag)/2, so collisions repeated one at a time stay Hermitian bit
    for bit (in the package it makes only a run's first collision, the step
    matrix's reference), and must pass the DensityMatrix checks (StateError).
    """
    r = np.asarray(rho)
    if family.shape[-2:] != r.shape:
        raise ValueError("Kraus family and state have different system dimensions")
    defect = np.ravel(completeness_defect(family))
    incomplete = ~(defect <= TRACE_TOL)  # NaN is incomplete too
    if incomplete.any():
        raise GuardError(
            f"incomplete Kraus family: completeness defect "
            f"{defect[np.argmax(incomplete)]:.3e} exceeds {TRACE_TOL:g}"
        )
    out = (family @ r @ family.conj().swapaxes(-1, -2)).sum(-3)
    result = 0.5 * (out + out.conj().swapaxes(-1, -2))
    check_states(result.reshape((-1,) + r.shape))
    return result


def step_matrix(family: np.ndarray) -> np.ndarray:
    """S_c = sum_m K_m (x) conj(K_m), so that vec(apply_channel) = S_c vec(rho):
    the plain sum, whose trace functional ``propagate`` makes exact."""
    d = family.shape[-1]
    # s[i, j, k, l] = sum_m K_m[i, k] conj(K_m[j, l]) is entry (i d + j, k d + l)
    s = (family[..., :, None, :, None] * family.conj()[..., None, :, None, :]).sum(-5)
    return s.reshape(family.shape[:-3] + (d * d, d * d))


def propagate(s: np.ndarray, rho0: np.ndarray, steps: int) -> np.ndarray:
    """The (steps+1, d, d) stack rho_0, S rho_0, ..., S^steps rho_0 of a
    row-major step matrix S, or one such stack per matrix of a (k, d^2, d^2)
    stack.

    The stack fills by doubling: with P = S^m and states 0 .. m-1 known,
    states m .. 2m-1 are P times them (one product over their rows), and then
    P becomes S^2m = P P.  A run takes about 2 log2(steps) products.

    A trace-preserving S has vec(1)^T S = vec(1)^T only to an ulp, and each
    squaring adds as much, so S^m drifts the trace by about m ulps.  When the
    functional of S (of every S of a stack) is within TRACE_ROUNDING of
    vec(1)^T, the rho_00 row of S and of every power is set to vec(1)^T minus
    the other population rows; otherwise the plain powers are kept, so the
    states show the trace the map changes.
    """
    d = rho0.shape[0]
    one = np.eye(d).ravel()  # vec(1); the population rows are 0, d+1, ..., d^2-1
    exact = np.abs(s[..., :: d + 1, :].sum(-2) - one).max() <= TRACE_ROUNDING
    flat = np.empty(s.shape[:-2] + (steps + 1, d * d), dtype=complex)
    flat[..., 0, :] = rho0.ravel()
    power, m = s.copy(), 1
    while m <= steps:
        if exact:
            power[..., 0, :] = one - power[..., d + 1 :: d + 1, :].sum(-2)
        rows = min(m, steps + 1 - m)
        np.matmul(flat[..., :rows, :], power.swapaxes(-1, -2), out=flat[..., m : m + rows, :])
        m += rows
        if m <= steps:
            power = power @ power
    return flat.reshape(s.shape[:-2] + (steps + 1, d, d))


def iterate_channel(
    family: np.ndarray, rho0: DensityMatrix, steps: int
) -> np.ndarray:
    """The (steps+1, d, d) stack rho_0 .. rho_steps of ``steps`` collisions
    with the same time-independent family; for a (k, n_max+1, d, d) stack, the
    k chains, first collisions first, then chain by chain.

    The first collision goes through ``apply_channel``, which checks every
    family before any state is computed, and the step matrix must reproduce
    it to STEP_MATRIX_TOL.  The rest is propagated with the step matrix, and
    every later state is checked once (StateError at the earliest that fails).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return np.broadcast_to(rho0.matrix, family.shape[:-3] + (1,) + rho0.matrix.shape).copy()
    first = apply_channel(family, rho0.matrix)
    stack = propagate(step_matrix(family), rho0.matrix, steps)
    gap = float(np.max(np.abs(stack[..., 1, :, :] - first)))
    if gap > STEP_MATRIX_TOL:
        raise GuardError(
            f"step matrix differs from the Kraus map by {gap:.3e} on the first step"
        )
    check_states(stack[..., 2:, :, :].reshape((-1,) + first.shape[-2:]))
    return stack
