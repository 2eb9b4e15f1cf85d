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

The arrowhead is never formed.  In units of the spacing the modes are the
integer ladder j = -half ... half, n = 2 half + 1, and with
kappa = g^2 / spacing^2 its eigenvalues are spacing times the roots of the
secular equation l = kappa sum_j 1/(l - j), one in each gap of the ladder
and one past each end; the emitter's weight in eigenvector l is
1/(1 + kappa sum_j 1/(l - j)^2).  The ladder is symmetric, so with
S = diag(1, -J), J reversing the modes, S H S = -H: only the roots above the
centre pole are solved, and mirrored; the flat band's estimate starts each
inner root and picks the pole it is solved about, the bound state the top
one.  Each root sums the poles within NEAR of its own directly and the two
tails past them as digamma (and trigamma) differences.  So the whole
spectrum costs O(n) time per iteration and a working set of a few
(ROOT_BLOCK, 2 NEAR) arrays, instead of a dense O(n^3) eigendecomposition.

The survival amplitude c_e(t) = sum_l weight_l e^{-i l t} is then real,
2 sum_{l > 0} weight_l cos(l t).  Equally spaced times t = (g B + j) dt, with
B ~ sqrt(count), give cos(l t) = cos(l g B dt) cos(l j dt) - sin(l g B dt)
sin(l j dt): one product of the giant and the baby steps' cos and sin tables
per ROOT_BLOCK of roots, O(n sqrt(count)) cosines and not a times x modes
array of exponentials.  Every entry is its own cosine, so no rounding is
carried from sample to sample.

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

# Poles within NEAR indices of a root's origin pole are summed directly; the
# two tails past them are digamma and trigamma differences at arguments above
# NEAR, where the asymptotic series below are exact to rounding.
NEAR = 16
# Roots are solved this many at a time, so the solver's working set is a few
# (ROOT_BLOCK, 2 NEAR) float arrays besides the grid.
ROOT_BLOCK = 2048
# Iterations of safeguarded Newton steps before a block falls back to plain
# bisection, which halves every bracket and so always ends.
NEWTON_ITERATIONS = 40
# psi(z) - ln z + 1/(2z) and z (psi'(z) - 1/z - 1/(2z^2)) are sums of
# coefficient * z^(-2k), k = 1 ... 6, with the Bernoulli numbers B_2 ... B_12
# (Abramowitz & Stegun 6.3.18 and 6.4.12): -B_2k/(2k) and B_2k, highest
# power first.  At z > NEAR the next terms are below 1e-18.
DIGAMMA_SERIES = (691 / 32760, -1 / 132, 1 / 240, -1 / 252, 1 / 120, -1 / 12)
TRIGAMMA_SERIES = (-691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric grid of n_modes frequencies on [-half_width, half_width],
    mode j at (j - (n_modes - 1)/2) spacing, the integer ladder the solver uses."""

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


@dataclass(frozen=True)
class Arrowhead:
    """Real single-excitation Hamiltonian in the basis (|e,vac>, i|g,1_j>):
    emitter energy 0 in the corner, the grid's modes on the diagonal, and
    the same coupling g in every entry of the border."""

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

    Only the roots above the centre pole are solved; the rest are their
    mirror images.  With g = 0 the emitter decouples, and its own level 0
    with weight 1 is the whole answer.
    """
    grid = arrow.grid
    c = arrow.coupling**2
    if c == 0.0:
        return np.zeros(1), np.ones(1)
    # in units of the spacing the poles are the integers -half ... half; root
    # m of the upper half lies in the gap below m, and the top one, as every
    # eigenvalue lies within ||diag|| + ||border|| of 0, within top of half
    half, kappa = (grid.n_modes - 1) // 2, c / grid.spacing**2
    top = (math.sqrt(grid.n_modes * c) + 1.0) / grid.spacing
    gaps = np.arange(1, half + 2)
    energies, weights = np.empty((2, gaps.size))
    for start in range(0, gaps.size, ROOT_BLOCK):
        block = slice(start, start + ROOT_BLOCK)
        energies[block], weights[block] = _secular_roots(half, kappa, top, gaps[block])
    energies *= grid.spacing
    return np.concatenate([-energies[::-1], energies]), np.concatenate([weights[::-1], weights])


def _secular_roots(
    half: int, kappa: float, top: float, gaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of h(l) = l - kappa sum_j 1/(l - j), j = -half ... half, in the
    gaps (m - 1, m) above the centre pole, the top one, m = half + 1, within
    top past the top pole; with the emitter weights 1/h'(l).

    Each root is solved as an offset x from the integer pole nearer to it,
    so l - j = x - (j - origin) keeps the full relative precision of x
    however close the root is to that pole (Gu & Eisenstat 1995).  The
    iteration is Newton's method on p(x) = |x| h(origin + x), which has no
    pole at the origin and the sign of h.  An inner root starts at the flat
    band's estimate, cot(pi x) = (l - D(l)) / (pi kappa) with the level shift
    D(l) = kappa ln|(l + half)/(l - half)|, x its offset from the pole
    below, or from the pole above when negative: its sign picks the origin,
    and x is bracketed over the whole gap.  The root above the centre pole
    starts no further out than sqrt(kappa).  The top root, the bound state
    above the band, solves x (half + x - kappa sum_{k=1}^{2 half} 1/(x + k))
    = kappa; at x << 1, with H_m ~ ln m + gamma_E + 1/(2m), it starts at
    x = kappa / (half - kappa H_{2 half}), none when half <= kappa H_{2 half}.
    A start outside its bracket is mid-bracket.  Every evaluation shrinks the
    bracket of x; a step that would leave it bisects instead, and a step
    below one ulp is lengthened to one ulp so that the bracket closes.  A
    root is done when its bracket is one ulp wide, wherever it started.  Each
    evaluation costs O(NEAR) per root (``_pole_sums``).
    """
    outer = gaps > half
    mid = gaps - 0.5
    # the estimate as an offset from the nearer pole, l at mid-gap and then at
    # the first estimate
    shift = kappa * np.log((mid + half) / np.abs(mid - half))
    guess = mid
    for _ in range(2):
        cot = guess - shift
        seed = np.copysign(np.arctan2(math.pi * kappa, np.abs(cot)), cot) / math.pi
        guess = np.where(seed > 0.0, gaps - 1, gaps) + seed
    # the root above the centre pole is the emitter split from the centre mode
    # by about sqrt(kappa); at a weak coupling the band puts it a third of a
    # spacing out, and Newton's method would only halve the distance per step
    seed = np.where(gaps == 1, np.minimum(seed, math.sqrt(kappa)), seed)
    # the top root's bound state; top, outside the bracket, when there is none
    harmonic = math.log(2 * half) + np.euler_gamma + 0.25 / half
    seed = np.where(outer, kappa / max(half - kappa * harmonic, kappa / top), seed)

    # the top root has only its left pole
    from_left = outer | (seed > 0.0)
    origin = np.where(from_left, gaps - 1, gaps)
    sign = np.where(from_left, 1.0, -1.0)
    near, tails = _poles(origin, half)
    far = np.where(outer, top, sign)
    lo = np.minimum(far, 0.0)
    hi = np.maximum(far, 0.0)
    # |p| at each end of the bracket; an end never evaluated is a pole or the bound
    p_lo, p_hi = np.full((2, gaps.size), np.inf)
    x = np.where((seed > lo) & (seed < hi), seed, 0.5 * far)
    active = np.arange(gaps.size)
    d, counts = near, tails
    iteration = 0
    while active.size:
        iteration += 1
        t = x[active]
        # every pole but the origin, which is in |x|
        r_sum, r_squares = _pole_sums(t, d, counts)
        rest = origin[active] + t - kappa * r_sum
        s = sign[active]
        p = s * (t * rest - kappa)
        dp = s * rest + np.abs(t) * (1.0 + kappa * r_squares)

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
        x[active] = np.where(inside, nxt, 0.5 * (a + b))

        open_ = b - a > np.spacing(np.maximum(np.abs(a), np.abs(b)))
        if not open_.all():
            active = active[open_]
            d, counts = near[active], tails[active]

    x = np.where(p_lo <= p_hi, lo, hi)
    r_squares = _pole_sums(x, near, tails)[1]
    weights = 1.0 / (1.0 + kappa * (r_squares + 1.0 / x**2))
    return origin + x, weights


def _poles(origin: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """For each integer origin pole: the offsets of the poles within NEAR of
    it, itself left out and inf past the ladder's ends -half and half, and
    the number of poles further out below it and above it."""
    steps = np.delete(np.arange(-NEAR, NEAR + 1), NEAR)
    near = np.where(np.abs(origin[:, None] + steps) <= half, steps, np.inf)
    tails = np.maximum(np.stack([half + origin, half - origin], axis=1) - NEAR, 0)
    return near, tails


def _pole_sums(t: np.ndarray, near: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_j 1/(t - d_j) and sum_j 1/(t - d_j)^2 over every integer pole d_j
    but the origin, for offsets t from it.

    The near poles are summed directly from their offsets.  The i-th pole
    past them contributes 1/(NEAR + 1 + t + i) below the origin and
    -1/(NEAR + 1 - t + i) above it.  |t| stays below 1 except at the outer
    roots, whose offset grows away from the one tail they have, so every
    tail argument is above NEAR; an empty tail's argument is raised to NEAR
    to keep it finite.
    """
    r = 1.0 / (t[:, None] - near)
    start = np.maximum(NEAR + 1.0 + np.stack([t, -t], axis=1), NEAR)
    first, second = _tail_sums(start, tails)
    r_sum = r.sum(axis=1) + first[:, 0] - first[:, 1]
    r_squares = np.einsum("ij,ij->i", r, r) + second[:, 0] + second[:, 1]
    return r_sum, r_squares


def _tail_sums(b: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_i 1/(b + i) and sum_i 1/(b + i)^2 over i = 0 ... count-1, for
    b > NEAR: psi(a) - psi(b) and psi'(b) - psi'(a) with a = b + count.  The
    differences of the leading terms are formed from count, not by
    subtraction, so a short tail keeps its relative precision; an empty tail
    sums to exactly 0."""
    inv_a, inv_b = 1.0 / (b + count), 1.0 / b
    ratio = count * inv_a * inv_b  # 1/b - 1/a
    (digamma_a, trigamma_a), (digamma_b, trigamma_b) = _series(inv_a), _series(inv_b)
    digamma = np.log1p(count * inv_b) + 0.5 * ratio + digamma_a - digamma_b
    trigamma = ratio * (1.0 + 0.5 * (inv_a + inv_b)) + trigamma_b - trigamma_a
    return digamma, trigamma


def _series(inv_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms of psi(z) past ln z - 1/(2z), and of psi'(z) past
    1/z + 1/(2z^2), from their asymptotic series in 1/z."""
    w = inv_z * inv_z
    digamma = np.zeros_like(w)
    trigamma = np.zeros_like(w)
    for d, t in zip(DIGAMMA_SERIES, TRIGAMMA_SERIES):
        digamma = digamma * w + d
        trigamma = trigamma * w + t
    return digamma * w, trigamma * w * inv_z


def evolve_microscopic(arrow: Arrowhead, times: np.ndarray) -> np.ndarray:
    """Survival probability c_e(t)^2 from c_e(0) = 1 at equally spaced
    times t_j = j dt from 0.

    c_e(t) = 2 sum_{l > 0} weight_l cos(l t) over the symmetric spectrum of
    ``emitter_spectrum``, each cos(l t) by angle addition from a giant and a
    baby step of the samples; a decoupled emitter, whose one level 0 has no
    mirror image, survives with exactly 1.0.  The recurrence guard
    needs every |t| below 2 pi / spacing; beyond it the finite grid revives.
    Times that are empty, not one-dimensional, or not equally spaced from 0
    to rounding are a ValueError.
    """
    t_final = float(np.max(np.abs(times), initial=0.0))
    recurrence = 2.0 * math.pi / arrow.grid.spacing
    if not t_final < recurrence:
        raise GuardError(
            f"t_final={t_final:g} reaches the grid recurrence time {recurrence:g}; "
            "increase n_modes or shorten the run"
        )
    times = np.asarray(times, dtype=float)
    uniform = "times must be one-dimensional and equally spaced from 0"
    count = times.size
    if times.ndim != 1 or count == 0:
        raise ValueError(uniform)
    dt = times[-1] / (count - 1) if count > 1 else 0.0
    if np.max(np.abs(times - np.arange(count) * dt)) > 4.0 * np.spacing(t_final):
        raise ValueError(uniform)

    energies, weights = emitter_spectrum(arrow)
    upper = energies.size // 2
    energies, weights = energies[upper:], weights[upper:] * (2.0 if upper else 1.0)
    # sample g B + j is giant step g and baby step j, with G B >= count
    baby = math.isqrt(count - 1) + 1
    giant = -(-count // baby)
    amplitude = np.zeros((giant, baby))
    for start in range(0, energies.size, ROOT_BLOCK):
        e, w = energies[start : start + ROOT_BLOCK], weights[start : start + ROOT_BLOCK, None]
        giants = np.outer(np.arange(giant) * (baby * dt), e)
        babies = np.outer(e, np.arange(baby) * dt)
        amplitude += np.cos(giants) @ (w * np.cos(babies)) - np.sin(giants) @ (w * np.sin(babies))
    return amplitude.ravel()[:count] ** 2


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
