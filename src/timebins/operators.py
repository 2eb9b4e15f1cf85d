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

# Largest |h - h^dag| entry accepted for a Hamiltonian and for the matrix
# handed to ``vn_entropy``, and |a + a^dag| for the anti-Hermitian generator
# handed to ``expm``.
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
    """Unitary exponential of an anti-Hermitian generator, or of each matrix of
    a (k, n, n) stack, from one ``eigh``; the checks name the first that fails.

    With i a = V diag(lam) V^dag, exp(a) = 1 + V diag(e^{-i lam} - 1) V^dag.
    Writing e^{-i lam} - 1 as -2 sin^2(lam/2) - i sin(lam) keeps the small
    phases of a short bin free of cancellation.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expm needs a square matrix or a stack of them, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1)).ravel()
    with np.errstate(invalid="ignore"):  # inf - inf: that matrix fails as non-finite
        defect = np.abs(m + m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).ravel()
    k = int(np.argmax(~finite | (defect > HERMITICITY_TOL)))  # 0 if none fails
    if not finite[k]:
        raise ValueError("expm requires finite entries")
    if defect[k] > HERMITICITY_TOL:
        raise ValueError(f"expm needs an anti-Hermitian generator (defect {defect[k]:.3e})")
    lam, v = np.linalg.eigh(1j * m)
    phase = -2.0 * np.sin(0.5 * lam) ** 2 - 1j * np.sin(lam)
    return np.eye(m.shape[-1]) + (v * phase[..., None, :]) @ v.conj().swapaxes(-1, -2)


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lam ln lam) in nats.

    Eigenvalues below 1e-14 are dropped; small negatives from roundoff are
    clamped to zero so truncation noise cannot produce NaN.
    """
    rho = square_matrix(rho)
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"vn_entropy needs a Hermitian matrix (defect {defect:.3e})")
    evals = np.linalg.eigvalsh(rho)
    evals = np.where(evals < 0.0, 0.0, evals)
    pos = evals[evals > 1e-14]
    return float(-np.sum(pos * np.log(pos))) + 0.0  # avoid -0.0 for pure states
