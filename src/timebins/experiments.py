"""Named experiments behind the CLI.

Each experiment builds its objects from a RunConfig, writes one CSV, prints a
one-line summary, and reports an exit status: 0 on success, 1 when a result
misses its documented tolerance, 2 for configuration problems, 3 when a
numeric guard trips.  All output is a pure function of the config, so a rerun
produces byte-identical CSV files.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .chain import MAX_AMPLITUDES, init_chain, reduced_system, step_chain
from .channel import (
    DensityMatrix,
    check_states,
    completeness_defect,
    extract_kraus,
    iterate_channel,
)
from .config import ConfigError, RunConfig
from .errors import GuardError
from .lindblad import LindbladModel, analytic_oracle, integrate_rk4
from .microscopic import (
    FrequencyGrid,
    build_microscopic,
    evolve_microscopic,
    fit_decay_rate,
)
from .model import (
    CoarseParams,
    SystemModel,
    coarse_map,
    dephasing_variant,
    expansion_report,
    ordering_residual,
    truncated_oscillator,
    two_level_system,
)
from .operators import vn_entropy

__all__ = [
    "run_experiment",
    "fit_order",
    "EXIT_OK",
    "EXIT_TOLERANCE",
    "EXIT_CONFIG",
    "EXIT_GUARD",
]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3

# Documented per-experiment tolerances, pinned here once.
#
# collision vs the closed form: the per-step population defect
# (gamma dt)^2/6 accumulates to at most (e^-1/6) gamma dt ~ 0.061 gamma dt.
COLLISION_TOL_FACTOR = 0.07
# RK4 global error vs the closed form, with generous constant headroom.
LINDBLAD_TOL_FLOOR = 1e-9
LINDBLAD_TOL_FACTOR = 10.0
# Fitted microscopic decay rate vs gamma (needs half_width >= 20 gamma).
MICROSCOPIC_RATE_RTOL = 0.03
# Kraus iteration vs the exact chain reduction.
MARKOV_DEFECT_TOL = 1e-10
# Collision -> continuum convergence is first order in dt.
CONVERGENCE_ORDER_TARGET = 1.0
CONVERGENCE_ORDER_SLACK = 0.15
# Small-dt Kraus expansion for a qubit: K1 residual is O(dt^1.5); K2 vanishes
# without a drive and is O(dt^2) with one.
R1_ORDER_MIN = 1.4
R2_MAX_QUBIT = 1e-13
R2_ORDER_MIN = 1.9
COMPLETENESS_TOL = 1e-12
# Ordering probe: O(dt^1.5) once the system Hamiltonian fails to commute with
# the coupling, O(dt^2) for a free system.
ORDERING_ORDER_MIN = 1.4
ORDERING_ORDER_MIN_FREE = 1.9
# Undriven dephasing: H commutes with the coupling sigma^dag sigma, so the
# coarse map is exact and the residual is roundoff, with no order to fit.
ORDERING_MAX_EXACT = 1e-12

ORDERING_SUBDIVISIONS = 8
# The bin widths of a sweep, as fractions of cfg.dt.
SWEEP_SCALES = (1.0, 0.5, 0.25, 0.125)
# CSV rows formatted per block, so no full-length Python copy of the table is
# ever built next to the CSV text.
CSV_BLOCK_ROWS = 1024
# Blocks of at least this many cells go through _format_cells, smaller ones
# through one %.  The kernel costs about 0.25 ms a call, what % takes for some
# 500 cells, and 0.2 us a cell against 0.75 us (2-vCPU host, numpy 2.4).
CSV_KERNEL_MIN_CELLS = 1024


def fit_order(rows: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of ln(error) against ln(dt), from (dt, error) rows
    such as two columns of a sweep table."""
    pts = [(float(dt), float(err)) for dt, err in rows]
    if len(pts) < 3:
        raise GuardError("order fit needs at least three (dt, error) rows")
    if any(err <= 0.0 for _, err in pts):
        raise GuardError("order fit needs strictly positive errors")
    log_dt = np.log([dt for dt, _ in pts])
    log_err = np.log([err for _, err in pts])
    return float(np.polyfit(log_dt, log_err, 1)[0])


def _build_system(cfg: RunConfig) -> SystemModel:
    if cfg.system in ("tls", "tls-driven"):
        return two_level_system(cfg.omega0, cfg.drive)
    if cfg.system == "oscillator3":
        return truncated_oscillator(3, cfg.omega0)
    return dephasing_variant(two_level_system(cfg.omega0, cfg.drive))


def _oracle_kind(cfg: RunConfig) -> str | None:
    """Which closed form applies, if any (both need H = 0)."""
    if cfg.omega0 != 0.0 or cfg.drive != 0.0:
        return None
    if cfg.system in ("tls", "tls-driven"):
        return "spontaneous"
    if cfg.system == "dephasing":
        return "dephasing"
    return None


def _initial_vector(cfg: RunConfig, system: SystemModel) -> np.ndarray:
    # Dephasing runs start in |+> so there is a coherence to damp; everything
    # else starts fully excited.
    if cfg.system == "dephasing":
        return np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    v = np.zeros(system.dim, dtype=complex)
    v[system.dim - 1] = 1.0
    return v


def _purities(stack: np.ndarray) -> np.ndarray:
    return np.einsum("kij,kji->k", stack, stack).real


# The '%.17g' kernel formats zeros and every |x| in (_KERNEL_MIN, _KERNEL_MAX),
# where the Dekker splits of x and of the 10**k it needs stay finite and
# normal.  Every other cell, and every cell whose scaled value lies within
# _TIE_MARGIN of a rounding tie, goes through Python's '%.17g' %.
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
_POW10_MIN, _POW10_MAX = -265, 298  # 16 - E for every decimal exponent E in range
_TIE_MARGIN = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1
# A cell is six 8-byte words: sign, the "0.000" lead, the first digit and a
# point slot; four words of 4 digits, each followed by a point slot; the
# "e+308" part and the separator.  Unused bytes are 0 and squeezed out.
_WORDS = 6
_EXP_MIN = -300
_NO_EXP = 2 * -_EXP_MIN + 1  # the suffix row of a fixed-notation cell


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of 26 bits each, a = hi + lo."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10_table() -> np.ndarray:
    """(4, n) rows hi, lo and hi's two Dekker halves with hi + lo = 10**k to
    about 2**-106, for k = _POW10_MIN .. _POW10_MAX, built exactly from
    Python integers (whose true division rounds correctly)."""
    pairs = []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        a, b = hi.as_integer_ratio()
        pairs.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(pairs).T
    table = np.stack([hi, lo, *_split(hi)])
    table.flags.writeable = False  # one array, shared by every call
    return table


def _word_table(items: list[bytes]) -> np.ndarray:
    """One 8-byte word per item, padded with 0 bytes."""
    return np.frombuffer(b"".join(item.ljust(8, b"\0") for item in items), np.uint64)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """The cell words and the trailing-zero counts the kernel reads:
    - groups[g]: the 4 digits of the group g, each followed by an empty
      point slot, and masks[v]: the mask that keeps the first v of them;
    - zeros[g]: the trailing zeros of g as 4 digits;
    - prefix[(sign * 5 + lead) * 10 + digit]: sign, "0." + lead - 1 zeros
      (none for lead 0), the digit and its point slot;
    - suffix[row * 3 + sep]: "e-300" .. "e+300" (row _NO_EXP: none), then
      no separator, ',' or a newline."""
    g = np.arange(10**4)
    digits = g[:, None] // 10 ** np.arange(3, -1, -1) % 10
    groups = np.zeros((10**4, 4, 2), np.uint8)
    groups[..., 0] = ord("0") + digits
    masks = np.zeros((5, 4, 2), np.uint8)
    masks[..., 0] = 0xFF * (np.arange(4) < np.arange(5)[:, None])
    zeros = sum((g % 10**j == 0).astype(np.intp) for j in range(1, 5))
    leads = [b""] + [b"0." + b"0" * k for k in range(4)]
    prefix = [
        sign.ljust(1, b"\0") + lead.ljust(5, b"\0") + str(digit).encode()
        for sign in (b"", b"-")
        for lead in leads
        for digit in range(10)
    ]
    exps = [f"e{e:+03d}".encode() for e in range(_EXP_MIN, -_EXP_MIN + 1)] + [b""]
    suffix = [exp.ljust(5, b"\0") + sep for exp in exps for sep in (b"", b",", b"\n")]
    groups, masks = (t.reshape(-1, 8).view(np.uint64).ravel() for t in (groups, masks))
    tables = (groups, masks, zeros, _word_table(prefix), _word_table(suffix))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as a double-double (hi, lo), |lo| <= ulp(hi)/2, with Dekker's
    exact product of a and hi(10**k) plus a * lo(10**k)."""
    t_hi, t_lo, t1, t2 = _pow10_table().take(k - _POW10_MIN, axis=1)
    p = a * t_hi
    a1, a2 = _split(a)
    e = ((a1 * t1 - p) + a1 * t2 + a2 * t1) + a2 * t2 + a * t_lo
    hi = p + e
    return hi, e - (hi - p)


def _format_cells(block: np.ndarray) -> str:
    """'%.17g' text of every cell of a 2-d float block, byte for byte: cells
    joined by ',' and rows by newlines."""
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a > _KERNEL_MIN) & (a < _KERNEL_MAX)  # False for NaN
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    # D = round(a * 10**(16 - E)) is the 17-digit integer of a; E from log10
    # may be one off next to a power of ten, so the scaled value is checked
    # against [1e16, 1e17) as a double-double and rescaled where it is not
    e10 = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, 16 - e10)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    redo = np.flatnonzero(low | high)
    if redo.size:
        e10[redo] += high[redo].astype(np.intp) - low[redo]
        hi[redo], lo[redo] = _scaled(a[redo], 16 - e10[redo])
    # hi >= 1e16 > 2**53 is an integer, so the rounding is all in lo
    r = np.rint(lo)
    slow = ~(fast | zero) | (np.abs(np.abs(lo - r) - 0.5) < _TIE_MARGIN)
    d = hi.astype(np.int64) + r.astype(np.int64)
    carry = d == 10**17  # 9.99..95 rounds up to 10.0
    d[carry] = 10**16
    e10 += carry

    groups, masks, zeros, prefix, suffix = _digit_tables()
    # D is a first digit and four 4-digit groups; the significant digits are
    # those left once its trailing zeros go (the first digit is never 0)
    top, bottom = np.divmod(d, 10**8)
    first, top = np.divmod(top, 10**8)
    quads = [*np.divmod(top, 10**4), *np.divmod(bottom, 10**4)]
    trailing = zeros.take(quads[3])
    run = quads[3] == 0
    for q in quads[2::-1]:
        trailing += run * zeros.take(q)
        run &= q == 0
    n_sig = 17 - trailing

    # %g: fixed notation for -4 <= E < 17, else d.ddd e+XX
    sci = (e10 < -4) | (e10 >= 17)
    whole = np.where(sci, 1, np.maximum(e10 + 1, 0))  # digits before the point
    shown = np.maximum(n_sig, whole)
    lead = np.where(sci, 0, np.maximum(-e10, 0))
    words = np.empty((len(x), _WORDS), np.uint64)
    words[:, 0] = prefix.take((np.signbit(x) * 5 + lead) * 10 + np.where(zero, 0, first))
    for i, q in enumerate(quads):
        words[:, i + 1] = groups.take(q) & masks.take(np.clip(shown - (4 * i + 1), 0, 4))
    sep = np.ones((rows, cols), np.intp)
    sep[:, -1] = 2
    sep[-1, -1] = 0
    exp_row = np.where(sci & ~slow, e10 - _EXP_MIN, _NO_EXP)
    words[:, 5] = suffix.take(exp_row * 3 + sep.ravel())
    # digit 0 sits at byte 6 of a cell and digit p >= 1 at byte 2p + 6, so
    # the point slot after the first `whole` digits is byte 2 whole + 5
    cells = words.view(np.uint8)
    point = np.flatnonzero((n_sig > whole) & (whole > 0))
    cells[point, 2 * whole[point] + 5] = ord(".")
    slow = np.flatnonzero(slow)
    if slow.size:
        width = 8 * (_WORDS - 1)  # all but the separator's word
        text = b"".join(("%.17g" % v).encode().ljust(width, b"\0") for v in x[slow].tolist())
        cells[slow, :width] = np.frombuffer(text, np.uint8).reshape(slow.size, width)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _csv(
    header: Sequence[str], table: np.ndarray, note: tuple[str, float] | None = None
) -> str:
    """CSV text of a float table, ended by a '# name = value' line if a note
    is given.  17 significant digits round-trip doubles exactly."""
    row = ",".join(["%.17g"] * table.shape[1])
    blocks = [",".join(header)]
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start : start + CSV_BLOCK_ROWS]
        if block.size >= CSV_KERNEL_MIN_CELLS:
            blocks.append(_format_cells(block))
        else:
            blocks.append("\n".join([row] * len(block)) % tuple(block.ravel().tolist()))
    if note is not None:
        blocks.append("# {} = {:.17g}".format(*note))
    blocks.append("")  # the final newline, joined in rather than appended to a copy
    return "\n".join(blocks)


def _timeseries_csv(
    times: Sequence[float],
    stack: np.ndarray,
    extra: dict[str, Sequence[float]] | None = None,
) -> str:
    extra = extra or {}
    header = ["t", "rho_gg", "rho_ee", "re_rho_eg", "im_rho_eg", "trace", "purity"]
    table = np.column_stack(
        [
            times,
            stack[:, 0, 0].real,
            stack[:, 1, 1].real,
            stack[:, 1, 0].real,
            stack[:, 1, 0].imag,
            np.trace(stack, axis1=1, axis2=2).real,
            _purities(stack),
            *extra.values(),
        ]
    )
    return _csv(header + list(extra), table)


def _steps(t_final: float, dt: float) -> int:
    steps = t_final / dt
    if not steps < MAX_AMPLITUDES:  # also catches an overflow to inf
        raise GuardError(f"t_final/dt = {steps:g} steps cannot be held in memory")
    return max(1, round(steps))


def _coarse_params(system: SystemModel, cfg: RunConfig, dt: float | np.ndarray) -> CoarseParams:
    side = system.dim * (cfg.n_max + 1)
    if not side * side < MAX_AMPLITUDES:
        raise GuardError(
            f"n_max = {cfg.n_max} needs a one-bin unitary of side {side}, "
            "which cannot be held in memory"
        )
    return CoarseParams(cfg.gamma, dt, cfg.n_max)


def _collision_family(system: SystemModel, cfg: RunConfig, dt: float | np.ndarray) -> np.ndarray:
    return extract_kraus(coarse_map(system, _coarse_params(system, cfg, dt)), system.dim, cfg.n_max)


def _timeseries_report(
    cfg: RunConfig, stack: np.ndarray, rho0: DensityMatrix, tol: float
) -> tuple[str, str, int]:
    """CSV and summary of a collision or Lindblad trajectory on the dt grid."""
    times = np.arange(len(stack)) * cfg.dt
    csv = _timeseries_csv(times, stack)
    final = stack[-1]
    kind = _oracle_kind(cfg)
    if kind is None:
        purity = _purities(stack[-1:])[0]
        summary = f"final_trace={np.trace(final).real:.6f} final_purity={purity:.6f}"
        return csv, summary, EXIT_OK
    reference = analytic_oracle(kind, cfg.gamma, times[-1:], rho0)[0]
    if kind == "spontaneous":
        name, value, target = "rho_ee", final[1, 1].real, reference[1, 1].real
    else:
        name, value, target = "abs_rho_eg", abs(final[1, 0]), abs(reference[1, 0])
    err = abs(value - target)
    summary = f"{name}={value:.6f} analytic={target:.6f} abs_err={err:.3g}"
    return csv, summary, (EXIT_OK if err <= tol else EXIT_TOLERANCE)


def _run_collision(cfg: RunConfig) -> tuple[str, str, int]:
    system = _build_system(cfg)
    family = _collision_family(system, cfg, cfg.dt)
    rho0 = DensityMatrix.pure(_initial_vector(cfg, system))
    stack = iterate_channel(family, rho0, _steps(cfg.t_final, cfg.dt))
    tol = COLLISION_TOL_FACTOR * cfg.gamma * cfg.dt
    return _timeseries_report(cfg, stack, rho0, tol)


def _run_lindblad(cfg: RunConfig) -> tuple[str, str, int]:
    system = _build_system(cfg)
    model = LindbladModel(system, cfg.gamma)
    rho0 = DensityMatrix.pure(_initial_vector(cfg, system))
    stack = integrate_rk4(model, rho0, cfg.dt, _steps(cfg.t_final, cfg.dt))
    tol = max(LINDBLAD_TOL_FLOOR, LINDBLAD_TOL_FACTOR * (cfg.gamma * cfg.dt) ** 4)
    return _timeseries_report(cfg, stack, rho0, tol)


def _run_joint_chain(cfg: RunConfig) -> tuple[str, str, int]:
    system = _build_system(cfg)
    vec = _initial_vector(cfg, system)
    # the amplitude cap refuses an oversized chain before any unitary is built,
    # and the unitary's own size guard an oversized unitary
    state = init_chain(vec, cfg.n_bins, cfg.n_max)
    unitary = coarse_map(system, _coarse_params(system, cfg, cfg.dt))
    family = extract_kraus(unitary, system.dim, cfg.n_max)
    rho0 = DensityMatrix.pure(vec)
    reference = iterate_channel(family, rho0, cfg.n_bins)

    reduced = [reduced_system(state)]
    for _ in range(cfg.n_bins):
        state = step_chain(state, unitary)
        reduced.append(reduced_system(state))
    stack = np.stack(reduced)
    entropies = [vn_entropy(rho) for rho in reduced]
    defects = np.max(np.abs(stack - reference), axis=(1, 2))

    times = np.arange(cfg.n_bins + 1) * cfg.dt
    csv = _timeseries_csv(
        times, stack, extra={"entropy": entropies, "markov_defect": defects}
    )
    defect_max = float(np.max(defects))
    peak = int(np.argmax(entropies))
    summary = (
        f"markov_defect_max={defect_max:.3g} "
        f"entropy_peak={entropies[peak]:.6f} at_t={times[peak]:.6f}"
    )
    code = EXIT_OK if defect_max <= MARKOV_DEFECT_TOL else EXIT_TOLERANCE
    return csv, summary, code


def _run_microscopic(cfg: RunConfig) -> tuple[str, str, int]:
    if _oracle_kind(cfg) != "spontaneous":
        raise ConfigError("microscopic covers the undriven two-level emitter only")
    steps = _steps(cfg.t_final, cfg.dt)
    window = (0.5 / cfg.gamma, min(2.5 / cfg.gamma, cfg.t_final))
    times = np.linspace(0.0, cfg.t_final, steps + 1)
    if np.count_nonzero((times >= window[0]) & (times <= window[1])) < 3:
        raise ConfigError(
            f"fit window {window} holds fewer than three samples at dt = {cfg.dt:g}"
        )
    if not cfg.n_modes < MAX_AMPLITUDES:
        raise GuardError(f"n_modes = {cfg.n_modes} modes cannot be held in memory")
    grid = FrequencyGrid(cfg.n_modes, cfg.half_width)
    survival = evolve_microscopic(build_microscopic(grid, cfg.gamma), times)

    # In the single-excitation sector the reduced state is diag(1-p, p).
    stack = np.zeros((len(survival), 2, 2), dtype=complex)
    stack[:, 0, 0] = 1.0 - survival
    stack[:, 1, 1] = survival
    check_states(stack)
    csv = _timeseries_csv(times, stack)

    rate = -fit_decay_rate(times, survival, window)
    rel_err = abs(rate - cfg.gamma) / cfg.gamma
    summary = f"fitted_rate={rate:.6f} target={cfg.gamma:.6f} rel_err={rel_err:.3g}"
    code = EXIT_OK if rel_err <= MICROSCOPIC_RATE_RTOL else EXIT_TOLERANCE
    return csv, summary, code


def _run_convergence(cfg: RunConfig) -> tuple[str, str, int]:
    kind = _oracle_kind(cfg)
    if kind is None:
        raise ConfigError(
            "convergence needs a closed-form reference: an undriven tls or "
            "dephasing system with omega0 = 0"
        )
    system = _build_system(cfg)
    rho0 = DensityMatrix.pure(_initial_vector(cfg, system))
    dts = cfg.dt * np.array(SWEEP_SCALES)
    errors = []
    for dt, family in zip(dts.tolist(), _collision_family(system, cfg, dts)):
        steps = _steps(cfg.t_final, dt)
        stack = iterate_channel(family, rho0, steps)
        reference = analytic_oracle(kind, cfg.gamma, np.arange(1, steps + 1) * dt, rho0)
        errors.append(np.max(np.abs(stack[1:] - reference)))
    table = np.column_stack([dts, errors])
    order = fit_order(table)
    csv = _csv(["dt", "max_error"], table, ("fitted_order", order))
    summary = f"fitted_order={order:.4f}"
    code = EXIT_OK
    if kind == "spontaneous":
        target, slack = CONVERGENCE_ORDER_TARGET, CONVERGENCE_ORDER_SLACK
        summary += f" target={target}+-{slack}"
        if abs(order - target) > slack:
            code = EXIT_TOLERANCE
    return csv, summary, code


def _run_kraus_report(cfg: RunConfig) -> tuple[str, str, int]:
    if cfg.n_max < 2:
        raise ConfigError("kraus-report needs n_max >= 2 so that K_2 exists")
    system = _build_system(cfg)
    dts = cfg.dt * np.array(SWEEP_SCALES)
    families = _collision_family(system, cfg, dts)
    residuals = expansion_report(families, system, cfg.gamma, dts)
    table = np.column_stack([dts, *residuals, completeness_defect(families)])
    csv = _csv(["dt", "r0", "r1", "r2", "completeness_defect"], table)

    r1_order = fit_order(table[:, [0, 2]])
    r2_max = table[:, 3].max()
    defect_max = table[:, 4].max()
    summary = (
        f"r1_order={r1_order:.4f} r2_max={r2_max:.3g} "
        f"completeness_defect_max={defect_max:.3g}"
    )
    code = EXIT_OK
    if defect_max > COMPLETENESS_TOL:
        code = EXIT_TOLERANCE
    if cfg.system in ("tls", "tls-driven"):
        if r1_order < R1_ORDER_MIN:
            code = EXIT_TOLERANCE
        if cfg.drive == 0.0:
            # sigma^2 = 0 and no drive: K2 vanishes for a qubit.
            if r2_max > R2_MAX_QUBIT:
                code = EXIT_TOLERANCE
        else:
            # the drive lets a second photon out within one bin: K2 = O(dt^2)
            r2_order = fit_order(table[:, [0, 3]])
            summary += f" r2_order={r2_order:.4f}"
            if r2_order < R2_ORDER_MIN:
                code = EXIT_TOLERANCE
    return csv, summary, code


def _run_ordering_probe(cfg: RunConfig) -> tuple[str, str, int]:
    system = _build_system(cfg)
    dts = cfg.dt * np.array(SWEEP_SCALES)
    params = _coarse_params(system, cfg, dts)
    table = np.column_stack([dts, ordering_residual(system, params, ORDERING_SUBDIVISIONS)])
    header = ["dt", "max_error"]
    if cfg.system == "dephasing" and cfg.drive == 0.0:
        residual_max = table[:, 1].max()
        csv = _csv(header, table, ("residual_max", residual_max))
        summary = f"residual_max={residual_max:.3g} threshold={ORDERING_MAX_EXACT:g}"
        code = EXIT_OK if residual_max <= ORDERING_MAX_EXACT else EXIT_TOLERANCE
        return csv, summary, code
    order = fit_order(table)
    csv = _csv(header, table, ("fitted_order", order))
    free_system = cfg.omega0 == 0.0 and cfg.drive == 0.0
    threshold = ORDERING_ORDER_MIN_FREE if free_system else ORDERING_ORDER_MIN
    summary = f"fitted_order={order:.4f} threshold={threshold}"
    code = EXIT_OK if order >= threshold else EXIT_TOLERANCE
    return csv, summary, code


_RUNNERS = {
    "collision": _run_collision,
    "lindblad": _run_lindblad,
    "joint-chain": _run_joint_chain,
    "microscopic": _run_microscopic,
    "convergence": _run_convergence,
    "kraus-report": _run_kraus_report,
    "ordering-probe": _run_ordering_probe,
}


def run_experiment(cfg: RunConfig, out_override: str | None = None) -> int:
    """Run one named experiment: write its CSV, print the summary line.

    Returns the exit status; guard and configuration errors propagate as
    exceptions for the CLI to map onto exit codes.
    """
    runner = _RUNNERS[cfg.experiment]
    csv, summary, code = runner(cfg)
    out_path = out_override or cfg.out_path or f"{cfg.experiment}.csv"
    Path(out_path).write_text(csv, encoding="utf-8")
    print(summary)
    return code
