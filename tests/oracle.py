"""Reference algebra that only the tests use.

``Operator`` is a square matrix tagged with its tensor factors, with the
arithmetic the tests are written in; the package itself works on plain
arrays, so tests hand it ``.data``.  The Kraus loops are the per-operator sums that ``channel`` replaced with one
broadcast product over the (count, d, d) stack, kept as its oracle.  The
dense complex single-excitation Hamiltonian and its ``eigh`` are the oracle
of the secular-equation solver in ``microscopic``, ``full_sum_spectrum``
is that solver with every pole summed directly, the slow path it replaced,
and ``every_root_spectrum`` is that solver over all n + 1 roots, each started
mid-bracket about the pole that an evaluation at mid-gap picks, the solve
that its mirrored half spectrum and seeded start replaced.  The first two
take the float grid of ``grid_frequencies``, which the package, working on
the integer ladder, never forms.
``direct_survival`` is ``microscopic.evolve_microscopic`` summing
weight_l e^{-i l t} directly over blocks of roots, at any times, the oracle
of its sum by angle addition over blocks of samples.
``dense_step_chain`` is the full-length collision on system (x) all N bins,
the dense layout that the matrix product state of ``chain.step_chain``
replaced; ``bins_met_vector`` contracts a chain state to the dense vector on
the bins met, ``dense_vector`` embeds that in the full-length layout, and
``conj_reduced_system`` is the reduced state formed as v^T conj(v) from the
contracted amplitudes, which ``chain.reduced_system`` reads off the centre
alone.
``fuzz_config`` draws the seeded random configs of the CLI fuzz test, and
``fuzz_rows`` counts the table rows an accepted one writes.
``factorization_report`` is criterion 4's comparison of the exact chain
against the Kraus iteration, and ``feedback_markov_defect`` its negative
control: a dense chain in which a bin meets the system a second time.
``stepwise_propagate`` is ``channel.propagate``
with one matrix-vector product per step, the loop that its blocked powers,
and then its doubling, replaced, and ``csv_text`` is the text that
``experiments._csv`` writes, formatted one row at a time with
``str.format``.  ``plain_check_states`` is ``channel.check_states`` on full matrices, with ``eigvalsh`` on every state, the check that its single
read of the lower triangle and its Gershgorin screen replaced.
``expm_per_matrix``, ``coarse_maps_per_width`` and
``ordering_residual_per_width`` are the one-width-at-a-time loops that the
stacked ``expm``, ``coarse_map`` and ``ordering_residual`` replaced: each
width builds its own generator and exponential, and each ordering residual
runs its own one-collision coarse chain and its own sub-bin chain (or, with
``kraus_sum``, takes the coarse collision from the Kraus sum, as the stacked
probe once did).
``kron_bin_generator`` and ``kron_liouvillian_matrix`` build the generator
and the Liouvillian with ``np.kron``, which ``operators.kron``'s single
broadcast replaced; ``filtered_vn_entropy`` is the entropy of one matrix from
its kept eigenvalues alone, which the stacked ``operators.vn_entropies``
replaced; ``two_pass_expm_refusal`` is ``expm``'s guard with its separate
finiteness pass, which the single defect pass replaced.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

import timebins.microscopic as microscopic
import timebins.model as model
from timebins.chain import ChainState, reduced_system
from timebins.channel import (
    HERMITICITY_TOL,
    MIN_EIGENVALUE,
    TRACE_TOL,
    DensityMatrix,
    apply_channel,
    extract_kraus,
    iterate_channel,
)
from timebins.config import EXPERIMENTS, SYSTEMS, RunConfig
from timebins.errors import StateError
from timebins.experiments import SWEEP_SCALES
from timebins.microscopic import emitter_spectrum
from timebins.operators import expm, vn_entropy

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


def basis_state(dim: int, index: int) -> np.ndarray:
    """Basis vector |index> of a dim-dimensional factor."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


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


def stepwise_propagate(s: np.ndarray, rho0: np.ndarray, steps: int) -> np.ndarray:
    """The (steps+1, d, d) stack rho_0 .. S^steps rho_0, one product per step."""
    d = rho0.shape[0]
    flat = np.empty((steps + 1, d * d), dtype=complex)
    flat[0] = rho0.ravel()
    for k in range(steps):
        np.dot(s, flat[k], out=flat[k + 1])
    return flat.reshape(steps + 1, d, d)


def plain_check_states(stack: np.ndarray) -> None:
    """The density-matrix checks of a (n, d, d) stack on full matrices:
    Hermiticity from every entry of rho - rho^dag, the trace, and eigvalsh's
    smallest eigenvalue of every state; StateError names the earliest state
    that fails, with the first check it fails."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        stack = np.where(finite[:, None, None], stack, 0.0)
    herm = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    tr = np.trace(stack, axis1=1, axis2=2).real
    lo = np.linalg.eigvalsh(stack)[:, 0]
    bad = ~finite
    bad |= herm > HERMITICITY_TOL
    bad |= np.abs(tr - 1.0) > TRACE_TOL
    bad |= lo < MIN_EIGENVALUE
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


def csv_text(header, table: np.ndarray, note=None) -> str:
    """A header line, one '{:.17g}' line per table row, and the optional
    '# name = value' line."""
    lines = [",".join(header)]
    lines += [",".join("{:.17g}".format(x) for x in row) for row in table.tolist()]
    if note is not None:
        lines.append("# {} = {:.17g}".format(*note))
    return "\n".join(lines) + "\n"


def kron_bin_generator(system, params) -> np.ndarray:
    """``model.bin_generator`` with its products formed by ``np.kron``."""
    d_bin = params.n_max + 1
    db = model.lowering_matrix(d_bin)
    sigma = system.lowering
    dt = np.asarray(params.dt, dtype=float)[..., None, None]
    free = np.kron(system.hamiltonian, np.eye(d_bin, dtype=complex))
    exchange = np.kron(sigma, db.conj().T) - np.kron(sigma.conj().T, db)
    return (-1j * dt) * free + np.sqrt(params.gamma * dt) * exchange


def kron_liouvillian_matrix(lindblad_model) -> np.ndarray:
    """``lindblad.liouvillian_matrix`` with its products formed by ``np.kron``."""
    h = lindblad_model.system.hamiltonian
    c = lindblad_model.system.lowering
    one = np.eye(h.shape[0])
    cdc = c.conj().T @ c
    dissipator = np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, one) + np.kron(one, cdc.T))
    return -1j * (np.kron(h, one) - np.kron(one, h.T)) + lindblad_model.gamma * dissipator


def filtered_vn_entropy(rho: np.ndarray) -> float:
    """-sum(lam ln lam) over the eigenvalues of one Hermitian matrix above
    1e-14, negatives clamped to 0 first."""
    evals = np.linalg.eigvalsh(rho)
    evals = np.where(evals < 0.0, 0.0, evals)
    pos = evals[evals > 1e-14]
    return float(-np.sum(pos * np.log(pos))) + 0.0


def two_pass_expm_refusal(a: np.ndarray) -> str | None:
    """The message ``expm`` refuses a (k, n, n) stack or a matrix with, from a
    finiteness pass and a defect pass, or None when it takes it."""
    m = np.asarray(a, dtype=complex)
    finite = np.isfinite(m).all(axis=(-2, -1)).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(m + m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).ravel()
    k = int(np.argmax(~finite | (defect > 1e-12)))
    if not finite[k]:
        return "expm requires finite entries"
    if defect[k] > 1e-12:
        return f"expm needs an anti-Hermitian generator (defect {defect[k]:.3e})"
    return None


def expm_per_matrix(stack: np.ndarray) -> np.ndarray:
    """expm of each matrix of a (k, n, n) stack, one call per matrix."""
    return np.array([expm(m) for m in stack])


def coarse_maps_per_width(system, params) -> np.ndarray:
    """The (k, side, side) one-bin maps of the k widths of params.dt, one
    ``model.coarse_map`` call per width."""
    return np.array([model.coarse_map(system, one) for one in _one_width_each(params)])


def ordering_residual_per_width(
    system, params, subdivisions: int, kraus_sum: bool = False
) -> np.ndarray:
    """The ordering residuals of the widths of params.dt, one width at a
    time: per width a coarse map and a sub-bin map from ``model.coarse_map``,
    the coarse map's first collision by ``iterate_channel`` (its step matrix)
    or, with ``kraus_sum``, by ``apply_channel`` (the Kraus sum that
    ``ordering_residual`` once took), and one ``iterate_channel`` over the
    sub-bins."""
    out = []
    rho = DensityMatrix.pure(basis_state(system.dim, system.dim - 1))
    for one in _one_width_each(params):
        sub = model.CoarseParams(one.gamma, one.dt / subdivisions, one.n_max)
        coarse, fine = (
            extract_kraus(model.coarse_map(system, p), system.dim, one.n_max) for p in (one, sub)
        )
        if kraus_sum:
            one_step = apply_channel(coarse, rho.matrix)
        else:
            one_step = iterate_channel(coarse, rho, 1)[1]
        reference = iterate_channel(fine, rho, subdivisions)[-1]
        out.append(np.max(np.abs(one_step - reference)))
    return np.array(out)


def _one_width_each(params) -> list:
    """One CoarseParams per width of params.dt."""
    widths = np.atleast_1d(params.dt).tolist()
    return [model.CoarseParams(params.gamma, dt, params.n_max) for dt in widths]


def grid_frequencies(grid) -> np.ndarray:
    """The float frequencies of a microscopic FrequencyGrid, built as the
    mirror image of its non-negative half linspace(0, half_width, (n+1)/2),
    so w_j = -w_{n-1-j} holds exactly and the centre mode is exactly 0."""
    half = np.linspace(0.0, grid.half_width, (grid.n_modes + 1) // 2)
    return np.concatenate([-half[:0:-1], half])


def dense_hamiltonian(arrow) -> np.ndarray:
    """The complex single-excitation Hamiltonian of a microscopic Arrowhead in
    the basis (|e,vac>, |g,1_1>, ..., |g,1_n>): diagonal (0, omega_1 ...
    omega_n) and coupling i g from the excited emitter to each mode."""
    n = arrow.grid.n_modes + 1
    h = np.zeros((n, n), dtype=complex)
    h[np.arange(1, n), np.arange(1, n)] = grid_frequencies(arrow.grid)
    h[1:, 0] = 1j * arrow.coupling
    h[0, 1:] = -1j * arrow.coupling
    return h


def dense_spectrum(arrow) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the dense Hamiltonian and the emitter weight of each."""
    evals, evecs = np.linalg.eigh(dense_hamiltonian(arrow))
    return evals, np.abs(evecs[0, :]) ** 2


def dense_survival(evals: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """|c_e(t)|^2 from the eigenvalues and emitter weights of ``dense_spectrum``."""
    return np.abs(np.exp(-1j * np.outer(times, evals)) @ weights) ** 2


# Roots the direct survival sum takes at a time: one (times, SUM_BLOCK)
# complex array.
SUM_BLOCK = 32


def direct_survival(arrow, times: np.ndarray) -> np.ndarray:
    """|sum_l weight_l e^{-i l t}|^2 over the spectrum of
    ``emitter_spectrum``, at any times, SUM_BLOCK roots at a time."""
    energies, weights = emitter_spectrum(arrow)
    amplitude = np.zeros(np.shape(times), dtype=complex)
    for start in range(0, energies.size, SUM_BLOCK):
        block = slice(start, start + SUM_BLOCK)
        amplitude += np.exp(-1j * np.outer(times, energies[block])) @ weights[block]
    return np.abs(amplitude) ** 2


# Roots the full-sum oracle solves at a time, and its Newton steps per
# block before plain bisection.
FULL_SUM_BLOCK = 32
FULL_SUM_NEWTON_ITERATIONS = 40


def full_sum_spectrum(arrow) -> tuple[np.ndarray, np.ndarray]:
    """The secular-equation spectrum with every pole summed at every
    evaluation: ascending eigenvalues of the arrowhead and the emitter's
    weight in each, in O(n^2) time over blocks of FULL_SUM_BLOCK roots.

    This is the solver that ``microscopic.emitter_spectrum`` replaced with
    near-pole sums and digamma tails; the iteration is the same, so the two
    agree to rounding.  With g = 0 the emitter decouples, and its own level 0
    with weight 1 is the whole answer.
    """
    freqs = grid_frequencies(arrow.grid)
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
    for start in range(0, n + 1, FULL_SUM_BLOCK):
        block = slice(start, start + FULL_SUM_BLOCK)
        energies[block], weights[block] = _full_sum_roots(
            freqs, c, left[block], right[block], start
        )
    return energies, weights


def _full_sum_roots(
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
        inside = (nxt > a) & (nxt < b) & (iteration <= FULL_SUM_NEWTON_ITERATIONS)
        tau[active] = np.where(inside, nxt, 0.5 * (a + b))

        open_ = b - a > np.spacing(np.maximum(np.abs(a), np.abs(b)))
        if not open_.all():
            active = active[open_]
            d = offsets[active]

    tau = np.where(p_lo <= p_hi, lo, hi)
    r = 1.0 / (tau[:, None] - offsets)
    weights = 1.0 / (1.0 + c * np.einsum("ij,ij->i", r, r))
    return origin + tau, weights


def every_root_spectrum(arrow) -> tuple[np.ndarray, np.ndarray]:
    """``microscopic.emitter_spectrum`` solving every one of the n + 1 roots,
    each from the middle of its bracket: the solve that the mirrored half
    spectrum and the flat-band start replaced.  It shares the integer
    ladder's near-pole sums and digamma tails (``microscopic._poles`` and
    ``_pole_sums``) and the iteration, so the two agree to rounding."""
    c = arrow.coupling**2
    if c == 0.0:
        return np.zeros(1), np.ones(1)
    spacing = arrow.grid.spacing
    # in units of the spacing the poles are -half ... half; root m lies in the
    # gap below m, the bottom one below -half and the top one past half
    half = (arrow.grid.n_modes - 1) // 2
    bound = (math.sqrt(arrow.grid.n_modes * c) + 1.0) / spacing
    gaps = np.arange(-half, half + 2)
    energies = np.empty(gaps.size)
    weights = np.empty(gaps.size)
    for start in range(0, gaps.size, microscopic.ROOT_BLOCK):
        block = slice(start, start + microscopic.ROOT_BLOCK)
        energies[block], weights[block] = _unseeded_roots(half, c / spacing**2, bound, gaps[block])
    return spacing * energies, weights


def _unseeded_roots(
    half: int, kappa: float, bound: float, gaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots in the gaps (m - 1, m) of the secular equation on the integer
    ladder, the bottom root included and the outer two within bound of the
    end poles, each started mid-bracket; otherwise
    ``microscopic._secular_roots``."""
    poles, pole_sums = microscopic._poles, microscopic._pole_sums
    outer = (gaps == -half) | (gaps == half + 1)
    mid = gaps - 0.5
    # h at mid-gap, summed about the pole below it (the bottom root: above it)
    ref = np.maximum(gaps - 1, -half)
    t_mid = mid - ref
    h_mid = mid - kappa * (1.0 / t_mid + pole_sums(t_mid, *poles(ref, half))[0])
    # the top root has only its left pole, the bottom root only its right one
    from_left = np.where(outer, gaps > 0, h_mid >= 0.0)
    origin = np.where(from_left, gaps - 1, gaps)
    sign = np.where(from_left, 1.0, -1.0)
    near, tails = poles(origin, half)
    far = np.where(outer, sign * bound, mid - origin)
    lo = np.minimum(far, 0.0)
    hi = np.maximum(far, 0.0)
    p_lo = np.full(gaps.size, np.inf)
    p_hi = np.full(gaps.size, np.inf)

    x = 0.5 * far
    active = np.arange(gaps.size)
    d, counts = near, tails
    iteration = 0
    while active.size:
        iteration += 1
        t = x[active]
        r_sum, r_squares = pole_sums(t, d, counts)
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
        inside = (nxt > a) & (nxt < b) & (iteration <= microscopic.NEWTON_ITERATIONS)
        x[active] = np.where(inside, nxt, 0.5 * (a + b))

        open_ = b - a > np.spacing(np.maximum(np.abs(a), np.abs(b)))
        if not open_.all():
            active = active[open_]
            d, counts = near[active], tails[active]

    x = np.where(p_lo <= p_hi, lo, hi)
    r_squares = pole_sums(x, near, tails)[1]
    weights = 1.0 / (1.0 + kappa * (r_squares + 1.0 / x**2))
    return origin + x, weights


def bins_met_vector(state: ChainState) -> np.ndarray:
    """The chain state on bin_0 (x) ... (x) bin_{k-1} (x) system: its bin
    tensors and centre contracted left to right."""
    v = np.ones((1, 1), dtype=complex)
    for b in state.bins:
        v = (v @ b.reshape(b.shape[0], -1)).reshape(-1, b.shape[2])
    return (v @ state.vec.data.reshape(v.shape[1], -1)).reshape(-1)


def dense_vector(state: ChainState) -> np.ndarray:
    """The chain state on system (x) bin_0 (x) ... (x) bin_{N-1}, with the
    bins not yet met in vacuum."""
    s, d = state.sys_dim, state.bin_dim
    met = bins_met_vector(state).reshape(-1, s)
    full = np.zeros((s, met.shape[0], d ** (state.n_bins - state.cursor)), dtype=complex)
    full[:, :, 0] = met.T
    return full.reshape(-1)


def conj_reduced_system(state: ChainState) -> np.ndarray:
    """Partial trace over every bin as v^T conj(v) on the contracted complex
    amplitudes, symmetrized."""
    v = bins_met_vector(state).reshape(-1, state.sys_dim)
    rho = v.T @ v.conj()
    return 0.5 * (rho + rho.conj().T)


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


def feedback_markov_defect(
    u: np.ndarray, family: np.ndarray, start: np.ndarray, n_bins: int, delay: int | None
) -> float:
    """The largest Markov defect over the collisions of a dense chain from the
    system state ``start`` in which, with ``delay`` set, bin k - delay meets
    the system a second time right after bin k (``delay`` None: no bin
    returns).  The reference is the Kraus iteration with one step for every
    collision, returns included, so the defect counts only the memory that a
    returning bin, no longer in vacuum, carries back."""
    s, d = len(start), family.shape[0]
    vec = np.zeros((s, d**n_bins), dtype=complex)
    vec[:, 0] = start
    vec = vec.reshape(-1)
    order = []
    for k in range(n_bins):
        order += [k] if delay is None or k < delay else [k, k - delay]
    reference = iterate_channel(family, DensityMatrix.pure(start), len(order))
    defect = 0.0
    for m, k in enumerate(order, start=1):
        vec = dense_step_chain(vec, u, s, d, k)
        v = vec.reshape(s, -1)
        defect = max(defect, float(np.max(np.abs(v @ v.conj().T - reference[m]))))
    return defect


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
    state: ChainState, family: np.ndarray, rho0: DensityMatrix
) -> FactorizationReport:
    """Compare the chain's reduced state after cursor collisions against the
    Kraus iteration of the same family from rho0."""
    reduced = reduced_system(state)
    reference = iterate_channel(family, rho0, state.cursor)[-1]
    defect = float(np.max(np.abs(reduced - reference)))
    return FactorizationReport(entropy=vn_entropy(reduced), markov_defect=defect)


# Literal values a fuzzed key may take in place of a drawn one.
FUZZ_LITERALS = ("0", "-1", "5e-324", "1e308", "nan", "inf")


def fuzz_config(rng: random.Random) -> str:
    """One config text for the CLI fuzz test.

    Each key is left unset or drawn: floats log-uniformly over wide ranges,
    or one of ``FUZZ_LITERALS``; sizes small, invalid, or far over the cap
    (never near it: a run at the cap peaks near 2 GB).  A drawn ``t_final``
    is a step count times the run's bin width, and ``dt`` is at least 0.01,
    so a run holds at most 300 bins (2400 for a sweep's finest width) unless
    its step count is far over the cap.  One config in twenty also gets a
    malformed line.
    """
    def number(lo: float, hi: float, signed: bool = False) -> str:
        if rng.random() < 0.15:
            return rng.choice(FUZZ_LITERALS)
        value = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        return repr(-value if signed and rng.random() < 0.5 else value)

    def size(small: int, invalid: str, far: str) -> str:
        roll = rng.random()
        return invalid if roll < 0.05 else far if roll < 0.1 else str(small)

    keys = {"experiment": rng.choice(EXPERIMENTS + ("warp",) * (rng.random() < 0.05))}
    keys["system"] = rng.choice(SYSTEMS)
    drawn = {
        "gamma": lambda: number(1e-3, 1e3),
        "dt": lambda: number(1e-2, 10.0),
        "omega0": lambda: number(1e-3, 1e2, signed=True),
        "drive": lambda: number(1e-3, 1e2, signed=True),
        "half_width": lambda: number(1.0, 100.0),
        "n_max": lambda: size(rng.randint(1, 3), rng.choice(("0", "-1")), "5000"),
        "n_bins": lambda: size(rng.randint(1, 8), rng.choice(("0", "-1")), "60"),
        "n_modes": lambda: size(
            2 * rng.randint(1, 100) + 1, rng.choice(("4", "1")), str(2**40 + 1)
        ),
    }
    for key, draw in drawn.items():
        # a Hamiltonian rules out the closed forms, and with them microscopic
        # and convergence runs, so it is drawn less often
        if rng.random() < (0.2 if key in ("omega0", "drive") else 0.4):
            keys[key] = draw()
    if rng.random() < 0.6:
        dt = float(keys.get("dt", RunConfig.dt))  # every drawn dt parses
        steps = 10.0 ** rng.uniform(9, 15) if rng.random() < 0.05 else rng.randint(1, 300)
        keys["t_final"] = repr(dt * steps) if 0.0 < dt < math.inf else number(1e-3, 1e3)
    lines = [f"{key} = {value}" for key, value in keys.items()]
    if rng.random() < 0.05:
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(("gamma = 1", "colour = red", "dt 0.1", "n_max = 2.5")))
    return "\n".join(lines) + "\n"


def fuzz_rows(cfg: RunConfig) -> int:
    """The table rows, header and ``#`` lines left out, of an accepted run."""
    if cfg.experiment == "joint-chain":
        return cfg.n_bins + 1
    if cfg.experiment in ("convergence", "kraus-report", "ordering-probe"):
        return len(SWEEP_SCALES)
    return max(1, round(cfg.t_final / cfg.dt)) + 1
