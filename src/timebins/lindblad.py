"""Continuum-limit reference dynamics.

The Liouvillian of the master equation

    d rho / dt = -i [H, rho] + gamma (L rho L^dag - 1/2 {L^dag L, rho}),

a fixed-step RK4 integrator on the matrix ODE, and closed-form solutions for
undriven two-level spontaneous emission and pure dephasing used as oracles.
A model is a ``SystemModel`` at rate gamma: the collision model's system and
bath coupling, with the lowering operator as the unscaled collapse operator,
so rate sweeps never rebuild operators.

Everything runs on one row-major Liouvillian matrix L (vec(rho) = rho.ravel()).
For this linear autonomous ODE one classic RK4 step is exactly the matrix
polynomial S_rk4 = sum_{k<=4} (L dt)^k / k!, so a trajectory is one call to
``channel.propagate``, which fills it by doubling (states m .. 2m-1 are
S_rk4^m times states 0 .. m-1) and keeps each power trace-exact as for a
collision, and whose states are checked in one pass (``check_states``).  A
step whose S_rk4 has a spectral radius past 1 is refused before that call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DensityMatrix, check_states, propagate
from .errors import GuardError
from .model import SystemModel
from .operators import kron

__all__ = [
    "LindbladModel",
    "integrate_rk4",
    "analytic_oracle",
    "liouvillian_matrix",
]

# Rounding allowance on the spectral radius 1 of a stable RK4 step matrix.
RK4_RADIUS_TOL = 1e-12


@dataclass(frozen=True)
class LindbladModel:
    """A system's master equation: its Hamiltonian, and its lowering operator
    as the one collapse channel, at rate gamma."""

    system: SystemModel
    gamma: float

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """Row-major matrix of -i [H, rho] + gamma (L rho L^dag - 1/2 {L^dag L, rho})."""
    h = model.system.hamiltonian
    c = model.system.lowering
    one = np.eye(h.shape[0])
    cdc = c.conj().T @ c
    dissipator = kron(c, c.conj()) - 0.5 * (kron(cdc, one) + kron(one, cdc.T))
    return -1j * (kron(h, one) - kron(one, h.T)) + model.gamma * dissipator


def integrate_rk4(
    model: LindbladModel, rho0: DensityMatrix, dt: float, steps: int
) -> np.ndarray:
    """The (steps+1, d, d) stack of ``steps`` classic RK4 steps from rho0.

    S_rk4 has the eigenvalue 1 (its left eigenvector is the trace, which
    ``propagate`` keeps exact in every power), and a larger one grows its
    mode without bound: GuardError, before any state is computed, when S_rk4
    is not finite or its spectral radius exceeds 1 by more than
    RK4_RADIUS_TOL = 1e-12, a rounding allowance (``eigvals`` finds the 1 to
    about 1e-15).  Every computed state must then pass the DensityMatrix
    checks: StateError names the first that fails, which at a stable step
    means a broken input, or a step too coarse for RK4, which is not a
    positive map, to keep the states positive.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        a = liouvillian_matrix(model) * dt
        one = np.eye(a.shape[0])
        step = one  # Horner form of sum_{k<=4} a^k / k!
        for k in (4, 3, 2, 1):
            step = one + (a @ step) / k
    radius = np.abs(np.linalg.eigvals(step)).max() if np.isfinite(step).all() else np.inf
    if not radius <= 1.0 + RK4_RADIUS_TOL:
        # the largest |lambda| dt of L dt says whether gamma or H is too fast
        reach = np.abs(np.linalg.eigvals(a)).max() if np.isfinite(a).all() else np.inf
        raise GuardError(
            f"RK4 step unstable at gamma*dt = {model.gamma * dt:.4g}, max|lambda|*dt = "
            f"{reach:.4g}: spectral radius {radius:.4g} > 1; reduce dt"
        )
    stack = propagate(step, rho0.matrix, steps)
    check_states(stack[1:])
    return stack


def analytic_oracle(
    kind: str, gamma: float, times: np.ndarray, rho0: DensityMatrix
) -> np.ndarray:
    """The (len(times), 2, 2) stack of the closed-form two-level solution at
    H = 0, checked as density matrices.

    spontaneous:  rho_ee(t) = rho_ee(0) e^(-gamma t),
                  rho_eg(t) = rho_eg(0) e^(-gamma t / 2), populations sum to 1.
    dephasing:    populations fixed, rho_eg(t) = rho_eg(0) e^(-gamma t / 2).
    """
    if rho0.matrix.shape != (2, 2):
        raise ValueError("analytic_oracle covers two-level systems only")
    if kind not in ("spontaneous", "dephasing"):
        raise ValueError(f"unknown oracle kind {kind!r}")
    t = np.asarray(times, dtype=float)
    r = rho0.matrix
    ee = float(r[1, 1].real)
    with np.errstate(over="ignore"):  # a gamma t past the largest float decays to 0 all the same
        if kind == "spontaneous":
            ee = ee * np.exp(-gamma * t)
        coherence = complex(r[1, 0]) * np.exp(-gamma * t / 2.0)
    out = np.empty((t.size, 2, 2), dtype=complex)
    out[:, 0, 0] = 1.0 - ee
    out[:, 0, 1] = coherence.conj()
    out[:, 1, 0] = coherence
    out[:, 1, 1] = ee
    check_states(out)
    return out
