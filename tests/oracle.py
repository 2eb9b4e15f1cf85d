"""Reference algebra that only the tests use.

``Operator`` is a square matrix tagged with its tensor factors, with the
arithmetic the tests are written in; the package itself works on plain
arrays, so tests hand it ``.data``.  The Kraus loops are the per-operator sums that ``channel`` replaced with one
broadcast product over the (count, d, d) stack, kept as its oracle.  The
dense complex single-excitation Hamiltonian and its ``eigh`` are the oracle
of the secular-equation solver in ``microscopic``.  ``dense_step_chain`` is
the full-length collision on system (x) all N bins that ``chain.step_chain``
replaced, and ``dense_vector`` embeds a chain state in that layout.
``factorization_report`` is criterion 4's comparison of the exact chain
against the Kraus iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from timebins.chain import ChainState, reduced_system
from timebins.channel import DensityMatrix, KrausFamily, iterate_channel
from timebins.operators import StateVector, vn_entropy

_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class Operator:
    """Square complex matrix tagged with the tensor factors it acts on, with
    +, -, @ and scalar *."""

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if data.shape != (math.prod(dims),) * 2:
            raise ValueError(f"matrix shape {data.shape} does not match factors {dims}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def _new(self, data: np.ndarray) -> "Operator":
        return Operator(data, self.dims)

    def __matmul__(self, other) -> "Operator":
        return self._new(self.data @ other.data)

    def __add__(self, other) -> "Operator":
        return self._new(self.data + other.data)

    def __radd__(self, other) -> "Operator":
        return self._new(other.data + self.data)

    def __sub__(self, other) -> "Operator":
        return self._new(self.data - other.data)

    def __mul__(self, scalar) -> "Operator":
        return self._new(self.data * complex(scalar))

    __rmul__ = __mul__


def identity(dims: Iterable[int]) -> Operator:
    dims = tuple(dims)
    return Operator(np.eye(math.prod(dims), dtype=complex), dims)


def basis_state(dim: int, index: int) -> StateVector:
    """Single-factor basis vector |index> on a dim-dimensional factor."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return StateVector(v, (dim,))


def kron(a, b) -> Operator:
    """Kronecker product; the left operand's factors come first."""
    return Operator(np.kron(a.data, b.data), a.dims + b.dims)


def dagger(a) -> Operator:
    """Conjugate transpose."""
    return Operator(a.data.conj().T, a.dims)


def commutator(a, b) -> Operator:
    return Operator(a.data @ b.data - b.data @ a.data, a.dims)


def partial_trace(a, keep: int | Iterable[int]) -> Operator:
    """Trace out every factor not listed in ``keep``.

    Kept factors stay in their original order regardless of the order given,
    and the trace of the result equals the trace of the input.
    """
    keep_req = (keep,) if isinstance(keep, (int, np.integer)) else tuple(keep)
    nfac = len(a.dims)
    kept = tuple(sorted(int(i) for i in keep_req))
    if not kept:
        raise ValueError("keep at least one factor (use np.trace for a full trace)")
    if len(set(kept)) != len(kept):
        raise ValueError(f"duplicate factor indices in {keep_req}")
    if any(i < 0 or i >= nfac for i in kept):
        raise ValueError(f"factor index out of range for {nfac} factors: {keep_req}")
    if 2 * nfac > len(_EINSUM_LETTERS):
        raise ValueError(f"too many tensor factors for partial_trace: {nfac}")

    row = list(_EINSUM_LETTERS[:nfac])
    col = list(_EINSUM_LETTERS[nfac : 2 * nfac])
    for i in range(nfac):
        if i not in kept:
            col[i] = row[i]  # repeated index: this factor is traced
    out = "".join(row[i] for i in kept) + "".join(_EINSUM_LETTERS[nfac + i] for i in kept)
    subscripts = "".join(row) + "".join(col) + "->" + out

    reduced = np.einsum(subscripts, a.data.reshape(a.dims + a.dims))
    new_dims = tuple(a.dims[i] for i in kept)
    side = math.prod(new_dims)
    return Operator(reduced.reshape(side, side), new_dims)


def kraus_map(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_m K_m rho K_m^dag, one operator at a time."""
    out = np.zeros_like(rho)
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


def kraus_step_matrix(ops: np.ndarray) -> np.ndarray:
    """sum_m K_m (x) conj(K_m), one operator at a time."""
    return sum(np.kron(k, k.conj()) for k in ops)


def kraus_completeness(ops: np.ndarray) -> np.ndarray:
    """sum_m K_m^dag K_m, one operator at a time."""
    acc = np.zeros(ops[0].shape, dtype=complex)
    for k in ops:
        acc += k.conj().T @ k
    return acc


def dense_hamiltonian(arrow) -> np.ndarray:
    """The complex single-excitation Hamiltonian of a microscopic Arrowhead in
    the basis (|e,vac>, |g,1_1>, ..., |g,1_n>): diagonal (0, omega_1 ...
    omega_n) and coupling i g from the excited emitter to each mode."""
    n = arrow.grid.n_modes + 1
    h = np.zeros((n, n), dtype=complex)
    h[np.arange(1, n), np.arange(1, n)] = arrow.grid.frequencies
    h[1:, 0] = 1j * arrow.coupling
    h[0, 1:] = -1j * arrow.coupling
    return h


def dense_spectrum(arrow) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the dense Hamiltonian and the emitter weight of each."""
    evals, evecs = np.linalg.eigh(dense_hamiltonian(arrow))
    return evals, np.abs(evecs[0, :]) ** 2


def dense_survival(arrow, times: np.ndarray) -> np.ndarray:
    """|c_e(t)|^2 from one dense Hermitian eigendecomposition."""
    evals, weights = dense_spectrum(arrow)
    return np.abs(np.exp(-1j * np.outer(times, evals)) @ weights) ** 2


def dense_vector(state: ChainState) -> np.ndarray:
    """The chain state on system (x) bin_0 (x) ... (x) bin_{N-1}, with the
    bins not yet met in vacuum."""
    s, d = state.sys_dim, state.bin_dim
    met = state.vec.data.reshape(-1, s)
    full = np.zeros((s, met.shape[0], d ** (state.n_bins - state.cursor)), dtype=complex)
    full[:, :, 0] = met.T
    return full.reshape(-1)


def dense_step_chain(
    vec: np.ndarray, u: np.ndarray, sys_dim: int, bin_dim: int, cursor: int
) -> np.ndarray:
    """Apply the (s d, s d) matrix u on (system, bin cursor) of a vector on
    system (x) bin_0 (x) ... (x) bin_{N-1}, identity elsewhere."""
    s, d = sys_dim, bin_dim
    before = d**cursor
    after = vec.size // (s * before * d)
    v4 = vec.reshape(s, before, d, after)
    u4 = u.reshape(s, d, s, d)
    return np.einsum("iajb,jpbq->ipaq", u4, v4).reshape(-1)


@dataclass(frozen=True)
class FactorizationReport:
    """System-field entanglement entropy next to the Markov-recursion defect.

    entropy > 0 says the global state does not factorize; markov_defect ~ 0
    says the reduced dynamics nevertheless equals the memoryless Kraus
    iteration.
    """

    entropy: float
    markov_defect: float


def factorization_report(
    state: ChainState, family: KrausFamily, rho0: DensityMatrix
) -> FactorizationReport:
    """Compare the chain's reduced state after cursor collisions against the
    Kraus iteration of the same family from rho0."""
    reduced = reduced_system(state)
    reference = iterate_channel(family, rho0, state.cursor)[-1]
    defect = float(np.max(np.abs(reduced.matrix - reference)))
    return FactorizationReport(entropy=vn_entropy(reduced.matrix), markov_defect=defect)
