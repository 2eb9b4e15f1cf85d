"""Exact single-excitation dynamics of the emitter-plus-continuum model.

A two-level emitter couples to a dense uniform grid of field modes with the
flat (frequency-independent) strength g = sqrt(gamma d_omega / (2 pi)), so the
golden-rule rate 2 pi g^2 / d_omega equals gamma by construction.  Restricted
to the single-excitation sector the Hamiltonian has one amplitude on |e, vac>
and one on each |g, 1_j>, with coupling i g between them.  After the phase
change |g, 1_j> -> i |g, 1_j> it is a real arrowhead matrix: 0 in the corner,
the mode frequencies on the diagonal, and g along the border.  Its exact
evolution is an end-to-end check of the coarse-grained derivation,
independent of time bins, Kraus operators, and master equations alike.

The arrowhead is never formed.  Its eigenvalues are the roots of the secular
equation l = g^2 sum_j 1/(l - w_j), one in each gap of the grid and one past
each edge, and the emitter's weight in eigenvector l is
1/(1 + g^2 sum_j 1/(l - w_j)^2), so the survival amplitude
c_e(t) = sum_l weight_l e^{-i l t} costs O(n^2) instead of a dense O(n^3)
eigendecomposition.

The grid is finite, so the dynamics is quasi-periodic; evolution is guarded
to times below the recurrence time 2 pi / d_omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError

__all__ = [
    "FrequencyGrid",
    "Arrowhead",
    "build_microscopic",
    "emitter_spectrum",
    "evolve_microscopic",
    "fit_decay_rate",
]

# Roots are solved, and summed into the survival amplitude, this many at a
# time, so the working set is a few (ROOT_BLOCK, n_modes) float arrays and
# one (times, ROOT_BLOCK) complex one.
ROOT_BLOCK = 32
# Iterations of safeguarded Newton steps before a block falls back to plain
# bisection, which halves every bracket and so always ends.
NEWTON_ITERATIONS = 40


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric grid of n_modes frequencies on [-half_width, half_width]."""

    n_modes: int
    half_width: float

    def __post_init__(self) -> None:
        if self.n_modes < 3 or self.n_modes % 2 == 0:
            raise ValueError("n_modes must be odd and >= 3 (grid symmetric about 0)")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_modes - 1)

    @property
    def frequencies(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_modes)


@dataclass(frozen=True)
class Arrowhead:
    """Real single-excitation Hamiltonian in the basis (|e,vac>, i|g,1_j>):
    emitter energy 0 in the corner, the grid frequencies on the diagonal,
    and the same coupling g in every entry of the border."""

    grid: FrequencyGrid
    coupling: float


def build_microscopic(grid: FrequencyGrid, gamma: float) -> Arrowhead:
    """The arrowhead with g = sqrt(gamma spacing / (2 pi))."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return Arrowhead(grid, math.sqrt(gamma * grid.spacing / (2.0 * math.pi)))


def emitter_spectrum(arrow: Arrowhead) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the arrowhead in ascending order, and the emitter's
    weight in each eigenvector.

    With g = 0 the emitter decouples, and its own level 0 with weight 1 is
    the whole answer.
    """
    freqs = arrow.grid.frequencies
    c = arrow.coupling**2
    if c == 0.0:
        return np.zeros(1), np.ones(1)
    n = freqs.size
    # every eigenvalue lies within ||diag|| + ||border|| of 0
    bound = float(np.max(np.abs(freqs))) + math.sqrt(n * c) + 1.0
    # root k lies between the poles k-1 and k, or between a pole and the bound
    left = np.concatenate([[-bound], freqs])
    right = np.concatenate([freqs, [bound]])
    energies = np.empty(n + 1)
    weights = np.empty(n + 1)
    for start in range(0, n + 1, ROOT_BLOCK):
        block = slice(start, start + ROOT_BLOCK)
        energies[block], weights[block] = _secular_roots(
            freqs, c, left[block], right[block], start
        )
    return energies, weights


def _secular_roots(
    freqs: np.ndarray, c: float, left: np.ndarray, right: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """Roots first, first+1, ... of h(l) = l - c sum_j 1/(l - w_j), each in
    its bracket (left, right), with the emitter weights 1/h'(l).

    Each root is solved as an offset tau from the pole nearer to it, so
    l - w_j = tau - (w_j - origin) keeps the full relative precision of tau
    however close the root is to that pole (Gu & Eisenstat 1995).  The
    iteration is Newton's method on p(tau) = |tau| h(origin + tau), which has
    no pole at the origin and the sign of h.  Every evaluation shrinks the
    bracket of tau; a step that would leave it bisects instead, and a step
    below one ulp is lengthened to one ulp so that the bracket closes.  A root
    is done when its bracket is one ulp wide.
    """
    n = freqs.size
    k = np.arange(first, first + left.size)
    outer = (k == 0) | (k == n)
    mid = 0.5 * (left + right)
    h_mid = mid - c * (1.0 / (mid[:, None] - freqs)).sum(axis=1)
    # the top root has only its left pole, the bottom root only its right one
    from_left = np.where(outer, k == n, h_mid >= 0.0)
    origin = np.where(from_left, left, right)
    pole = np.where(from_left, k - 1, k)
    sign = np.where(from_left, 1.0, -1.0)
    offsets = freqs - origin[:, None]
    far = np.where(outer, np.where(from_left, right, left), mid) - origin
    lo = np.minimum(far, 0.0)
    hi = np.maximum(far, 0.0)
    # |p| at each end of the bracket; an end never evaluated is a pole or the bound
    p_lo = np.full(k.size, np.inf)
    p_hi = np.full(k.size, np.inf)

    tau = 0.5 * far
    active = np.arange(k.size)
    d = offsets
    iteration = 0
    while active.size:
        iteration += 1
        t = tau[active]
        r = 1.0 / (t[:, None] - d)
        r[np.arange(t.size), pole[active]] = 0.0  # the origin pole is in |tau|
        rest = origin[active] + t - c * r.sum(axis=1)
        s = sign[active]
        p = s * (t * rest - c)
        dp = s * rest + np.abs(t) * (1.0 + c * np.einsum("ij,ij->i", r, r))

        below, above = p <= 0.0, p >= 0.0
        a = np.where(below, t, lo[active])
        b = np.where(above, t, hi[active])
        lo[active], hi[active] = a, b
        p_lo[active] = np.where(below, np.abs(p), p_lo[active])
        p_hi[active] = np.where(above, np.abs(p), p_hi[active])

        step = -p / dp
        ulp = np.abs(np.spacing(t))
        step = np.where(np.abs(step) < ulp, np.copysign(ulp, step), step)
        nxt = t + step
        inside = (nxt > a) & (nxt < b) & (iteration <= NEWTON_ITERATIONS)
        tau[active] = np.where(inside, nxt, 0.5 * (a + b))

        open_ = b - a > np.spacing(np.maximum(np.abs(a), np.abs(b)))
        if not open_.all():
            active = active[open_]
            d = offsets[active]

    tau = np.where(p_lo <= p_hi, lo, hi)
    r = 1.0 / (tau[:, None] - offsets)
    weights = 1.0 / (1.0 + c * np.einsum("ij,ij->i", r, r))
    return origin + tau, weights


def evolve_microscopic(arrow: Arrowhead, times: np.ndarray) -> np.ndarray:
    """Survival probability |c_e(t)|^2 from c_e(0) = 1 at the given times.

    c_e(t) = sum_l weight_l e^{-i l t} over the spectrum of
    ``emitter_spectrum``.  The recurrence guard needs every |t| below
    2 pi / spacing; beyond it the finite grid revives.
    """
    t_final = float(np.max(np.abs(times)))
    recurrence = 2.0 * math.pi / arrow.grid.spacing
    if t_final >= recurrence:
        raise GuardError(
            f"t_final={t_final:g} reaches the grid recurrence time {recurrence:g}; "
            "increase n_modes or shorten the run"
        )
    energies, weights = emitter_spectrum(arrow)
    amplitude = np.zeros(np.shape(times), dtype=complex)
    for start in range(0, energies.size, ROOT_BLOCK):
        block = slice(start, start + ROOT_BLOCK)
        amplitude += np.exp(-1j * np.outer(times, energies[block])) @ weights[block]
    return np.abs(amplitude) ** 2


def fit_decay_rate(
    times: np.ndarray,
    survival: np.ndarray,
    window: tuple[float, float] = (0.5, 2.5),
) -> float:
    """Least-squares slope of ln |c_e|^2 over the given time window.

    For exponential decay the slope is -gamma; the early-time Zeno transient
    is excluded by starting the window away from zero.
    """
    mask = (times >= window[0]) & (times <= window[1])
    if int(np.count_nonzero(mask)) < 3:
        raise ValueError("fit window contains fewer than three samples")
    return float(np.polyfit(times[mask], np.log(survival[mask]), 1)[0])
