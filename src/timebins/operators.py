"""Dense complex matrix algebra on tensor-product factor spaces.

Every operator and state vector carries the ordered list of factor dimensions
it lives on.  Composite indices are row-major with the leftmost factor most
significant, which is what keeps ``kron`` and ``partial_trace`` mutually
consistent.  Within each factor, basis index 0 is the ground state / vacuum,
ascending with excitation number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Operator",
    "StateVector",
    "identity",
    "basis_state",
    "kron",
    "dagger",
    "commutator",
    "expm",
    "partial_trace",
    "vn_entropy",
]

# Largest |h - h^dag| entry accepted for a Hamiltonian, and |a + a^dag| for
# the anti-Hermitian generator handed to ``expm``.
HERMITICITY_TOL = 1e-12

_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("need at least one tensor factor")
    if any(d < 1 for d in out):
        raise ValueError(f"factor dimensions must be >= 1, got {out}")
    return out


@dataclass(frozen=True)
class Operator:
    """Square complex matrix tagged with the tensor factors it acts on."""

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        data = np.asarray(self.data, dtype=complex)
        side = math.prod(dims)
        if data.shape != (side, side):
            raise ValueError(
                f"matrix shape {data.shape} does not match factor dimensions {dims}"
            )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def max_abs(self) -> float:
        """Largest entry magnitude (the max norm used throughout)."""
        return float(np.max(np.abs(self.data)))

    def _same_total_dim(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise ValueError(f"total dimension mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_total_dim(other)
        return Operator(self.data @ other.data, self.dims)

    def __add__(self, other: "Operator") -> "Operator":
        self._same_total_dim(other)
        return Operator(self.data + other.data, self.dims)

    def __sub__(self, other: "Operator") -> "Operator":
        self._same_total_dim(other)
        return Operator(self.data - other.data, self.dims)

    def __mul__(self, scalar) -> "Operator":
        if isinstance(scalar, Operator):
            return NotImplemented
        return Operator(self.data * complex(scalar), self.dims)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.data, self.dims)


@dataclass(frozen=True)
class StateVector:
    """Dense complex vector on a tensor product of finite factors."""

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        data = np.asarray(self.data, dtype=complex).ravel()
        if data.shape != (math.prod(dims),):
            raise ValueError(
                f"vector length {data.shape} does not match factor dimensions {dims}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("state vector has non-finite amplitudes")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def identity(dims: Iterable[int]) -> Operator:
    dims = _check_dims(dims)
    return Operator(np.eye(math.prod(dims), dtype=complex), dims)


def basis_state(dim: int, index: int) -> StateVector:
    """Single-factor basis vector |index> on a dim-dimensional factor."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return StateVector(v, (dim,))


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product; the left operand's factors come first."""
    return Operator(np.kron(a.data, b.data), a.dims + b.dims)


def dagger(a: Operator) -> Operator:
    """Conjugate transpose."""
    return Operator(a.data.conj().T, a.dims)


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def expm(a: Operator) -> Operator:
    """Unitary exponential of an anti-Hermitian generator, from one ``eigh``.

    With i a = V diag(lam) V^dag, exp(a) = 1 + V diag(e^{-i lam} - 1) V^dag.
    Writing e^{-i lam} - 1 as -2 sin^2(lam/2) - i sin(lam) keeps the small
    phases of a short bin free of cancellation.
    """
    m = a.data
    if not np.all(np.isfinite(m)):
        raise ValueError("expm requires finite entries")
    defect = float(np.max(np.abs(m + m.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"expm needs an anti-Hermitian generator (defect {defect:.3e})")
    lam, v = np.linalg.eigh(1j * m)
    phase = -2.0 * np.sin(0.5 * lam) ** 2 - 1j * np.sin(lam)
    return Operator(np.eye(m.shape[0]) + (v * phase) @ v.conj().T, a.dims)


def partial_trace(a: Operator, keep: int | Iterable[int]) -> Operator:
    """Trace out every factor not listed in ``keep``.

    Kept factors stay in their original order regardless of the order given,
    and the trace of the result equals the trace of the input.
    """
    keep_req = (keep,) if isinstance(keep, (int, np.integer)) else tuple(keep)
    nfac = len(a.dims)
    kept = tuple(sorted(int(i) for i in keep_req))
    if not kept:
        raise ValueError("keep at least one factor (use .trace() for a full trace)")
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


def vn_entropy(rho: Operator) -> float:
    """Von Neumann entropy -sum(lam ln lam) in nats.

    Eigenvalues below 1e-14 are dropped; small negatives from roundoff are
    clamped to zero so truncation noise cannot produce NaN.
    """
    defect = float(np.max(np.abs(rho.data - rho.data.conj().T)))
    if defect > 1e-8:
        raise ValueError(f"vn_entropy needs a Hermitian matrix (defect {defect:.3e})")
    evals = np.linalg.eigvalsh(rho.data)
    evals = np.where(evals < 0.0, 0.0, evals)
    pos = evals[evals > 1e-14]
    return float(-np.sum(pos * np.log(pos))) + 0.0  # avoid -0.0 for pure states
