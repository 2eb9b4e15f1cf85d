"""State vectors on tensor-product factor spaces, and the matrix functions
the package needs.

Matrices are plain square complex arrays; a state vector carries the ordered
list of factor dimensions it lives on.  Composite indices are row-major with
the leftmost factor most significant, the order of ``np.kron``.  Within each
factor, basis index 0 is the ground state / vacuum, ascending with excitation
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["StateVector", "expm", "vn_entropy"]

# Largest |h - h^dag| entry accepted for a Hamiltonian, and |a + a^dag| for
# the anti-Hermitian generator handed to ``expm``.
HERMITICITY_TOL = 1e-12


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("need at least one tensor factor")
    if any(d < 1 for d in out):
        raise ValueError(f"factor dimensions must be >= 1, got {out}")
    return out


def square_matrix(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a complex array; ValueError unless it is a square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


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
        # one dot product finds any NaN or inf; a sum of finite squares that
        # overflows is told apart from them elementwise
        with np.errstate(over="ignore"):
            squares = data.view(float) @ data.view(float)
        if not math.isfinite(squares) and not np.all(np.isfinite(data)):
            raise ValueError("state vector has non-finite amplitudes")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)


def expm(a: np.ndarray) -> np.ndarray:
    """Unitary exponential of an anti-Hermitian generator, from one ``eigh``.

    With i a = V diag(lam) V^dag, exp(a) = 1 + V diag(e^{-i lam} - 1) V^dag.
    Writing e^{-i lam} - 1 as -2 sin^2(lam/2) - i sin(lam) keeps the small
    phases of a short bin free of cancellation.
    """
    m = square_matrix(a, "generator")
    if not np.all(np.isfinite(m)):
        raise ValueError("expm requires finite entries")
    defect = float(np.max(np.abs(m + m.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"expm needs an anti-Hermitian generator (defect {defect:.3e})")
    lam, v = np.linalg.eigh(1j * m)
    phase = -2.0 * np.sin(0.5 * lam) ** 2 - 1j * np.sin(lam)
    return np.eye(m.shape[0]) + (v * phase) @ v.conj().T


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lam ln lam) in nats.

    Eigenvalues below 1e-14 are dropped; small negatives from roundoff are
    clamped to zero so truncation noise cannot produce NaN.
    """
    rho = square_matrix(rho)
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    if defect > 1e-8:
        raise ValueError(f"vn_entropy needs a Hermitian matrix (defect {defect:.3e})")
    evals = np.linalg.eigvalsh(rho)
    evals = np.where(evals < 0.0, 0.0, evals)
    pos = evals[evals > 1e-14]
    return float(-np.sum(pos * np.log(pos))) + 0.0  # avoid -0.0 for pure states
