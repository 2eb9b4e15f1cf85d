"""State vectors on tensor-product factor spaces, and the matrix functions
the package needs.

Matrices are plain square complex arrays; a state vector is a plain record of
its amplitudes, an array with one axis per factor it lives on.
Composite indices are row-major with the leftmost factor most significant,
the order of ``np.kron``.  Within each factor, basis index 0 is the ground
state / vacuum, ascending with excitation number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StateVector", "expm", "vn_entropy"]

# Largest |h - h^dag| entry accepted for a Hamiltonian and for the matrix
# handed to ``vn_entropy``, and |a + a^dag| for the anti-Hermitian generator
# handed to ``expm``.
HERMITICITY_TOL = 1e-12


def square_matrix(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a complex array; ValueError unless it is a square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes as an array whose axes are the factors they live on:
    a plain record that checks nothing and reads no amplitude
    (``chain.ChainState``, its only user, holds its centre on (bond, system)
    here and checks it)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", np.asarray(self.data, dtype=complex))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices: the same products, in one broadcast."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


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
    # a non-finite entry or an overflowing sum leaves it non-finite; only a refusal asks which
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(m + m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).ravel()
    bad = ~(defect <= HERMITICITY_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        if not np.isfinite(m.reshape(-1, *m.shape[-2:])[k]).all():
            raise ValueError("expm requires finite entries")
        raise ValueError(f"expm needs an anti-Hermitian generator (defect {defect[k]:.3e})")
    lam, v = np.linalg.eigh(1j * m)
    phase = -2.0 * np.sin(0.5 * lam) ** 2 - 1j * np.sin(lam)
    return np.eye(m.shape[-1]) + (v * phase[..., None, :]) @ v.conj().swapaxes(-1, -2)


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lam ln lam) in nats.  Eigenvalues below 1e-14,
    roundoff negatives among them, are dropped, so noise cannot produce NaN."""
    rho = square_matrix(rho)
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"vn_entropy needs a Hermitian matrix (defect {defect:.3e})")
    return float(vn_entropies(rho))


def vn_entropies(stack: np.ndarray) -> np.ndarray:
    """``vn_entropy`` of each Hermitian matrix of a (..., n, n) stack, unchecked,
    from one ``eigvalsh``; a dropped eigenvalue, first in its ascending row,
    becomes 1, whose term 1 ln 1 is 0, so the kept terms sum in the same order."""
    evals = np.linalg.eigvalsh(stack)
    pos = np.where(evals > 1e-14, evals, 1.0)
    return -np.sum(pos * np.log(pos), axis=-1) + 0.0  # avoid -0.0 for pure states
