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
1/(1 + g^2 sum_j 1/(l - w_j)^2).  Each root sums the poles within NEAR
indices of its own directly; the two tails past them lie on the uniform grid,
where they are digamma (and trigamma) differences.  So the whole spectrum
costs O(n) time per iteration and a working set of a few (ROOT_BLOCK, 2 NEAR)
arrays, instead of a dense O(n^3) eigendecomposition.

The survival amplitude c_e(t) = sum_l weight_l e^{-i l t} at equally spaced
times is a chirp-z transform (Rabiner, Schafer & Rader 1969): every interior
root lies in its own gap of the grid, within half a spacing of the gap's
midpoint, so a short Taylor series in that offset leaves sums over the
uniform ladder of midpoints, each one FFT convolution (Bluestein 1970).
That is O((n + times) log(n + times)) time per Taylor term instead of
times x modes complex exponentials.

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
# The survival sum keeps the Taylor terms of e^{-i sigma t} up to the first
# whose bound (spacing t_final / 2)^q / q! is below this.
TAYLOR_TOL = 1e-17
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
            freqs, arrow.grid.spacing, c, left[block], right[block], start
        )
    return energies, weights


def _secular_roots(
    freqs: np.ndarray,
    spacing: float,
    c: float,
    left: np.ndarray,
    right: np.ndarray,
    first: int,
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
    is done when its bracket is one ulp wide.  Each evaluation costs O(NEAR)
    per root (``_pole_sums``).
    """
    n = freqs.size
    k = np.arange(first, first + left.size)
    outer = (k == 0) | (k == n)
    mid = 0.5 * (left + right)
    # h at mid, summed about the pole below it (the bottom root: above it)
    ref = np.maximum(k - 1, 0)
    t_mid = mid - freqs[ref]
    h_mid = mid - c * (1.0 / t_mid + _pole_sums(t_mid, *_poles(freqs, ref), spacing)[0])
    # the top root has only its left pole, the bottom root only its right one
    from_left = np.where(outer, k == n, h_mid >= 0.0)
    origin = np.where(from_left, left, right)
    pole = np.where(from_left, k - 1, k)
    sign = np.where(from_left, 1.0, -1.0)
    near, tails = _poles(freqs, pole)
    far = np.where(outer, np.where(from_left, right, left), mid) - origin
    lo = np.minimum(far, 0.0)
    hi = np.maximum(far, 0.0)
    # |p| at each end of the bracket; an end never evaluated is a pole or the bound
    p_lo = np.full(k.size, np.inf)
    p_hi = np.full(k.size, np.inf)

    tau = 0.5 * far
    active = np.arange(k.size)
    d, counts = near, tails
    iteration = 0
    while active.size:
        iteration += 1
        t = tau[active]
        # every pole but the origin, which is in |tau|
        r_sum, r_squares = _pole_sums(t, d, counts, spacing)
        rest = origin[active] + t - c * r_sum
        s = sign[active]
        p = s * (t * rest - c)
        dp = s * rest + np.abs(t) * (1.0 + c * r_squares)

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
            d, counts = near[active], tails[active]

    tau = np.where(p_lo <= p_hi, lo, hi)
    r_squares = _pole_sums(tau, near, tails, spacing)[1]
    weights = 1.0 / (1.0 + c * (r_squares + 1.0 / tau**2))
    return origin + tau, weights


def _poles(freqs: np.ndarray, pole: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each origin pole: the offsets w_j - w_pole of the poles within NEAR
    indices of it, itself left out and inf past the grid's edges, and the
    number of poles further out below it and above it."""
    n = freqs.size
    steps = np.arange(-NEAR, NEAR + 1)
    index = pole[:, None] + steps[steps != 0]
    inside = (index >= 0) & (index < n)
    near = freqs[np.clip(index, 0, n - 1)] - freqs[pole][:, None]
    tails = np.maximum(np.stack([pole, n - 1 - pole], axis=1) - NEAR, 0)
    return np.where(inside, near, np.inf), tails


def _pole_sums(
    t: np.ndarray, near: np.ndarray, tails: np.ndarray, spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """sum_j 1/(t - d_j) and sum_j 1/(t - d_j)^2 over every pole d_j but the
    origin, for offsets t from it.

    The near poles are summed directly from their offsets.  The tails lie on
    the uniform grid: with x = t / spacing, the i-th pole past the near ones
    contributes 1/(spacing (NEAR + 1 + x + i)) below the origin and
    -1/(spacing (NEAR + 1 - x + i)) above it.  |x| stays below 1 except at
    the outer roots, whose offset grows away from the one tail they have, so
    every tail argument is above NEAR; an empty tail's argument is raised to
    NEAR to keep it finite.
    """
    r = 1.0 / (t[:, None] - near)
    x = t / spacing
    start = np.maximum(NEAR + 1.0 + np.stack([x, -x], axis=1), NEAR)
    first, second = _tail_sums(start, tails)
    r_sum = r.sum(axis=1) + (first[:, 0] - first[:, 1]) / spacing
    r_squares = np.einsum("ij,ij->i", r, r) + (second[:, 0] + second[:, 1]) / spacing**2
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
    """Survival probability |c_e(t)|^2 from c_e(0) = 1 at equally spaced
    times t_j = j dt from 0.

    c_e(t) = sum_l weight_l e^{-i l t} over the spectrum of
    ``emitter_spectrum``.  The recurrence guard needs every |t| below
    2 pi / spacing; beyond it the finite grid revives.  Times that are not
    one-dimensional, equally spaced from 0 to rounding, are a ValueError.

    The two outer roots, and the emitter's own level when it decouples, are
    summed directly.  Interior root k = 1 ... n-1 lies between poles k-1 and
    k, so l_k = u_k spacing + sigma_k with u_k = k - n/2 and |sigma_k| <
    spacing / 2; with x = spacing t / 2 and s_k = 2 sigma_k / spacing

        sum_k weight_k e^{-i l_k t} = sum_q (-i x)^q / q! sum_k weight_k s_k^q e^{-i u_k spacing t},

    for q below Q, the first power whose bound (spacing t_final / 2)^Q / Q!
    is below TAYLOR_TOL.  With theta = spacing dt and u_k j = (u_k^2 + j^2 -
    (j - u_k)^2) / 2, each sum over k is the convolution of weight_k s_k^q
    e^{-i theta u_k^2/2} with e^{i theta (m + n/2)^2/2} at m = j - k, one FFT
    product of a size past n + len(times), times e^{-i theta j^2/2}.  The
    midpoints are counted from the middle of the grid, so the largest chirp
    phases go with the far poles, whose weights are smallest.
    """
    t_final = float(np.max(np.abs(times)))
    spacing = arrow.grid.spacing
    recurrence = 2.0 * math.pi / spacing
    if not t_final < recurrence:
        raise GuardError(
            f"t_final={t_final:g} reaches the grid recurrence time {recurrence:g}; "
            "increase n_modes or shorten the run"
        )
    times = np.asarray(times, dtype=float)
    uniform = "times must be one-dimensional and equally spaced from 0"
    if times.ndim != 1:
        raise ValueError(uniform)
    count = times.size
    dt = times[-1] / (count - 1) if count > 1 else 0.0
    j = np.arange(count)
    if np.max(np.abs(times - j * dt)) > 4.0 * np.spacing(t_final):
        raise ValueError(uniform)

    energies, weights = emitter_spectrum(arrow)
    # the two outer roots, or the decoupled emitter's own level, directly
    outer = [0, -1] if energies.size > 1 else [0]
    amplitude = np.exp(-1j * np.outer(times, energies[outer])) @ weights[outer]
    if energies.size == 1:
        return np.abs(amplitude) ** 2

    n = arrow.grid.n_modes
    u = np.arange(1, n) - 0.5 * n
    scaled = (energies[1:-1] - u * spacing) / (0.5 * spacing)

    x = 0.5 * spacing * t_final
    terms, bound = 1, x
    while bound >= TAYLOR_TOL:
        terms += 1
        bound *= x / terms

    theta = spacing * dt
    size = 1 << (n + count - 2).bit_length()
    pre = np.exp(-0.5j * theta * (u * u))
    m = np.arange(1 - n, count - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[m] = np.exp(0.5j * theta * (m + 0.5 * n) ** 2)
    kernel = np.fft.fft(kernel)
    sums = np.empty((terms, count), dtype=complex)
    padded = np.zeros(size, dtype=complex)
    power = weights[1:-1]
    for q in range(terms):
        padded[1:n] = power * pre
        sums[q] = np.fft.ifft(np.fft.fft(padded) * kernel)[:count]
        power = power * scaled
    # Horner in z = -i x_j over the Taylor terms
    z = -0.5j * spacing * times
    series = sums[-1]
    for q in range(terms - 1, 0, -1):
        series = sums[q - 1] + series * z / q
    amplitude += np.exp(-0.5j * theta * (j * j)) * series
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
