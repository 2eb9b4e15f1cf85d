"""Named experiments behind the CLI.

Each experiment builds its objects from a RunConfig, writes one CSV, prints a
one-line summary, and reports an exit status: 0 on success, 1 when a result
misses its documented tolerance, 2 for configuration problems, 3 when a
numeric guard trips.  All output is a pure function of the config, so a rerun
produces byte-identical CSV files.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .chain import MAX_AMPLITUDES, init_chain, step_chain
from .channel import (CSV_BLOCK_ROWS, DensityMatrix, check_states, completeness_defect,
                      extract_kraus, iterate_channel)
from .config import ConfigError, RunConfig
from .errors import GuardError
from .lindblad import LindbladModel, analytic_oracle, integrate_rk4
from .microscopic import FrequencyGrid, build_microscopic, evolve_microscopic, fit_decay_rate
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
from .operators import vn_entropies

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
# Blocks of >= this many cells go through _format_cells, others one bytes %:
# at 11/21/31/41/51 rows x 7, % 29/54/82/109/144 us, kernel 84/91/98/104/109
# us, crossing near 270 cells (normal deviates, 1 BLAS thread, 2-vCPU host).
CSV_KERNEL_MIN_CELLS = 256


def fit_order(rows: Iterable[tuple[float, float]]) -> float:
    """Least-squares slope of ln(error) against ln(dt), from (dt, error) rows
    such as two columns of a sweep zipped together."""
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


# The '%.17g' kernel formats zeros and every |x| in (_KERNEL_MIN, _KERNEL_MAX),
# where the Dekker splits of x and of the 10**k it needs stay finite and
# normal.  Every other cell, and every cell whose scaled value lies within
# _TIE_MARGIN of a rounding tie, goes through Python's '%.17g' %.
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
_POW10_MIN, _POW10_MAX = -265, 298  # 16 - E for every decimal exponent E in range
_TIE_MARGIN = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1
# A cell is four 8-byte words: sign, "0.000" lead, first digit and point; 16
# digits; exponent and separator.  Unused bytes are 0 and squeezed out.
_WORDS = 4
_EXP_MIN = -300  # the exponents of the tables run from -300 to 300
_ZEROS = np.uint64(0x3030303030303030)  # eight '0' digits


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of 26 bits each, a = hi + lo."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10_table() -> np.ndarray:
    """(n, 4) rows of hi, lo and hi's two Dekker halves with hi + lo = 10**k to
    about 2**-106, for k = _POW10_MIN .. _POW10_MAX, built exactly from
    Python integers (whose true division rounds correctly)."""
    pairs = []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        a, b = hi.as_integer_ratio()
        pairs.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(pairs).T
    table = np.stack([hi, lo, *_split(hi)], axis=1)  # a row is one gather
    table.flags.writeable = False  # one array, shared by every call
    return table


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """The cell words and the layout the kernel reads:
    - groups[g]: the 4 digits of the group g as one 4-byte word, and
      masks[i, n]: the mask of digit word i (digits 1-8, 9-16) for n shown;
    - notation[E - _EXP_MIN]: the digits before the point and the lead of
      '%g' at the decimal exponent E (fixed notation for -4 <= E < 17);
    - prefix[((sign * 5 + lead) * 10 + digit) * 2 + point]: sign, "0." +
      lead - 1 zeros (none for lead 0), the digit and '.' if point, at the end;
    - suffix[(E - _EXP_MIN) * 3 + sep]: "e-300" .. "e+300" (nothing in
      fixed notation), then no separator, ',' or a newline."""
    groups = np.frombuffer(b"".join(b"%04d" % g for g in range(10**4)), np.uint32)
    masks = np.array([[256 ** min(max(n - k, 0), 8) - 1 for n in range(18)] for k in (1, 9)], "u8")
    e = np.arange(_EXP_MIN, -_EXP_MIN + 1)
    fixed = (e >= -4) & (e < 17)
    notation = np.stack([np.where(fixed, np.maximum(e + 1, 0), 1), fixed * np.maximum(-e, 0)], 1)
    leads = [b""] + [b"0." + b"0" * k for k in range(4)]
    product = itertools.product((b"", b"-"), leads, [b"%d" % g for g in range(10)], (b"", b"."))
    prefix = b"".join(b"".join(p).rjust(8, b"\0") for p in product)
    exps = [b"" if f else b"e%+03d" % k for k, f in zip(e.tolist(), fixed)]
    suffix = b"".join((exp + sep).ljust(8, b"\0") for exp in exps for sep in (b"", b",", b"\n"))
    tables = (groups, masks, notation, *(np.frombuffer(t, np.uint64) for t in (prefix, suffix)))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as a double-double (hi, lo), |lo| <= ulp(hi)/2, with Dekker's
    exact product of a and hi(10**k) plus a * lo(10**k)."""
    t_hi, t_lo, t1, t2 = _pow10_table().take(k - _POW10_MIN, axis=0).T
    p = a * t_hi
    a1, a2 = _split(a)
    e = ((a1 * t1 - p) + a1 * t2 + a2 * t1) + a2 * t2 + a * t_lo
    hi = p + e
    return hi, e - (hi - p)


def _format_cells(block: np.ndarray, buffer: np.ndarray | None = None) -> bytes:
    """'%.17g' ASCII of every cell of a 2-d float block, byte for byte: cells
    joined by ',' and each row ended by a newline.  The cells are laid out in
    the rows of a (cells, _WORDS) uint64 buffer, which _csv reuses per block."""
    cols = block.shape[1]
    x = block.ravel()
    a = np.abs(x)
    fast = (a > _KERNEL_MIN) & (a < _KERNEL_MAX)  # False for NaN
    zero = a == 0.0
    np.copyto(a, 1.0, where=~fast)
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
    d[zero] = 0  # a zero is its sign and one digit 0
    e10[slow] = 0  # a cell % writes is laid out as one in fixed notation

    groups, masks, notation, prefix, suffix = _digit_tables()
    # D's first digit and 4-digit groups (// by a constant is far cheaper than %)
    top = d // 10**8
    bottom = (d - top * 10**8).astype(np.int32)
    first = top // 10**8
    top = (top - first * 10**8).astype(np.int32)
    q0, q2 = top // 10**4, bottom // 10**4
    words = (np.empty((x.size, _WORDS), np.uint64) if buffer is None else buffer)[: x.size]
    digits = words[:, 1:3].view(np.uint32)
    for i, q in enumerate([q0, top - q0 * 10**4, q2, bottom - q2 * 10**4]):
        digits[:, i] = groups.take(q)
    # the significant digits end at the byte where the bit length of a digit
    # word less its '0's ends (exact in a double: each byte is at most 9)
    ends = [np.frexp((words[:, i] - _ZEROS).astype(float))[1] + 7 >> 3 for i in (1, 2)]
    n_sig = 1 + np.where(ends[1], 8 + ends[1], ends[0])

    # %g: fixed notation for -4 <= E < 17, else d.ddd e+XX
    row = e10 - _EXP_MIN
    whole, lead = notation.take(row, axis=0).T  # digits before the point, lead
    key = (np.signbit(x) * 5 + lead) * 10 + first
    words[:, 0] = prefix.take(2 * key + ((whole == 1) & (n_sig > 1)))
    shown = np.maximum(n_sig, whole)
    words[:, 1] &= masks[0].take(shown)
    words[:, 2] &= masks[1].take(shown)
    end = row * 3 + 1  # then ',', or a newline after a row
    end[cols - 1 :: cols] += 1
    words[:, 3] = suffix.take(end)
    # digit p >= 1 is byte p + 7; a point after digit whole - 1 >= 1 moves the
    # digits and separator after it up a byte (no exponent in fixed notation)
    cells = words.view(np.uint8)
    inner = np.flatnonzero((n_sig > whole) & (whole > 1))
    for w in np.flatnonzero(np.bincount(whole[inner])):
        rows_w = inner[whole[inner] == w]
        cells[rows_w, w + 8 : 26] = cells[rows_w, w + 7 : 25]
        cells[rows_w, w + 7] = ord(".")
    slow = np.flatnonzero(slow)
    if slow.size:
        width = 8 * (_WORDS - 1)  # all but the separator's word
        text = b"".join((b"%.17g" % v).ljust(width, b"\0") for v in x[slow].tolist())
        cells[slow, :width] = np.frombuffer(text, np.uint8).reshape(slow.size, width)
    return words.tobytes().translate(None, b"\0")


def _csv(
    out: BinaryIO, header: Sequence[str], columns: Sequence, note: tuple[str, float] | None = None
) -> None:
    """Write a run's float columns to the binary file out as ASCII CSV: the
    header, each CSV_BLOCK_ROWS-row block stacked from the columns and written
    once formatted (no whole table or text is held), then a '# name = value'
    line if a note is given.  17 significant digits round-trip doubles exactly."""
    row = b",".join([b"%.17g"] * len(columns)) + b"\n"
    out.write(",".join(header).encode("ascii") + b"\n")
    buffer = np.empty((min(len(columns[0]), CSV_BLOCK_ROWS) * len(columns), _WORDS), np.uint64)
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([column[start : start + CSV_BLOCK_ROWS] for column in columns])
        if block.size >= CSV_KERNEL_MIN_CELLS:
            out.write(_format_cells(block, buffer))
        else:
            out.write(row * len(block) % tuple(block.ravel().tolist()))
    if note is not None:
        out.write(b"# %s = %.17g\n" % (note[0].encode("ascii"), note[1]))


def _timeseries_csv(times: np.ndarray, stack: np.ndarray, extra: dict | None = None) -> tuple:
    """Header, columns (t, rho's entries as views of the stack, trace, purity, extra), note."""
    extra = extra or {}
    header = ["t", "rho_gg", "rho_ee", "re_rho_eg", "im_rho_eg", "trace", "purity"]
    trace = np.trace(stack, axis1=1, axis2=2).real
    rho = stack[:, 0, 0].real, stack[:, 1, 1].real, stack[:, 1, 0].real, stack[:, 1, 0].imag
    purity = np.einsum("kij,kji->k", stack, stack).real
    return header + list(extra), [times, *rho, trace, purity, *extra.values()], None


def _steps(t_final: float, dt: float) -> int:
    steps = t_final / dt
    if not steps < MAX_AMPLITUDES:  # also catches an overflow to inf
        raise GuardError(f"t_final/dt = {steps:g} steps cannot be held in memory")
    return max(1, round(steps))


def _coarse_params(system: SystemModel, cfg: RunConfig, dt: float | np.ndarray) -> CoarseParams:
    if not np.all(np.asarray(dt) > 0.0):
        raise ConfigError(f"dt = {cfg.dt:g} underflows to 0 in a sweep's finer bins")
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
) -> tuple[tuple, str, int]:
    """CSV and summary of a collision or Lindblad trajectory on the dt grid."""
    times = np.arange(len(stack)) * cfg.dt
    csv = _timeseries_csv(times, stack)
    final = stack[-1]
    kind = _oracle_kind(cfg)
    if kind is None:
        trace, purity = csv[1][5][-1], csv[1][6][-1]  # the columns' last entries
        summary = f"final_trace={trace:.6f} final_purity={purity:.6f}"
        return csv, summary, EXIT_OK
    reference = analytic_oracle(kind, cfg.gamma, times[-1:], rho0)[0]
    if kind == "spontaneous":
        name, value, target = "rho_ee", final[1, 1].real, reference[1, 1].real
    else:
        name, value, target = "abs_rho_eg", abs(final[1, 0]), abs(reference[1, 0])
    err = abs(value - target)
    summary = f"{name}={value:.6f} analytic={target:.6f} abs_err={err:.3g}"
    return csv, summary, (EXIT_OK if err <= tol else EXIT_TOLERANCE)


def _run_collision(cfg: RunConfig) -> tuple[tuple, str, int]:
    system = _build_system(cfg)
    family = _collision_family(system, cfg, cfg.dt)
    rho0 = DensityMatrix.pure(_initial_vector(cfg, system))
    stack = iterate_channel(family, rho0, _steps(cfg.t_final, cfg.dt))
    tol = COLLISION_TOL_FACTOR * cfg.gamma * cfg.dt
    return _timeseries_report(cfg, stack, rho0, tol)


def _run_lindblad(cfg: RunConfig) -> tuple[tuple, str, int]:
    system = _build_system(cfg)
    model = LindbladModel(system, cfg.gamma)
    rho0 = DensityMatrix.pure(_initial_vector(cfg, system))
    stack = integrate_rk4(model, rho0, cfg.dt, _steps(cfg.t_final, cfg.dt))
    tol = max(LINDBLAD_TOL_FLOOR, LINDBLAD_TOL_FACTOR * (cfg.gamma * cfg.dt) ** 4)
    return _timeseries_report(cfg, stack, rho0, tol)


def _run_joint_chain(cfg: RunConfig) -> tuple[tuple, str, int]:
    system = _build_system(cfg)
    vec = _initial_vector(cfg, system)
    # the amplitude cap refuses an oversized chain before any unitary is built,
    # and the unitary's own size guard an oversized unitary
    state = init_chain(vec, cfg.n_bins, cfg.n_max)
    if not math.isfinite(cfg.n_bins * cfg.dt):
        raise ConfigError("n_bins * dt overflows to infinity")
    unitary = coarse_map(system, _coarse_params(system, cfg, cfg.dt))
    family = extract_kraus(unitary, system.dim, cfg.n_max)
    rho0 = DensityMatrix.pure(vec)
    reference = iterate_channel(family, rho0, cfg.n_bins)

    # the reduced states, read off each collision's centre, are checked and diagonalized at once
    rhos = [state.rho]
    for _ in range(cfg.n_bins):
        state = step_chain(state, unitary)
        rhos.append(state.rho)
    stack = np.stack(rhos)
    check_states(stack)
    entropies = vn_entropies(stack)
    defects = np.max(np.abs(stack - reference), axis=(1, 2))

    times = np.arange(cfg.n_bins + 1) * cfg.dt
    csv = _timeseries_csv(times, stack, extra={"entropy": entropies, "markov_defect": defects})
    defect_max = float(np.max(defects))
    peak = int(np.argmax(entropies))
    summary = (
        f"markov_defect_max={defect_max:.3g} "
        f"entropy_peak={entropies[peak]:.6f} at_t={times[peak]:.6f}"
    )
    code = EXIT_OK if defect_max <= MARKOV_DEFECT_TOL else EXIT_TOLERANCE
    return csv, summary, code


def _run_microscopic(cfg: RunConfig) -> tuple[tuple, str, int]:
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
    if not grid.spacing**2 >= np.finfo(float).tiny:  # the secular solver divides by it
        raise ConfigError(f"half_width = {cfg.half_width:g}: grid spacing too fine to square")
    survival = evolve_microscopic(build_microscopic(grid, cfg.gamma), times)

    # In the single-excitation sector the reduced state is diag(1-p, p).
    stack = np.zeros((len(survival), 2, 2), dtype=complex)
    stack[:, 0, 0] = 1.0 - survival
    stack[:, 1, 1] = survival
    check_states(stack)
    csv = _timeseries_csv(times, stack)

    rate = -fit_decay_rate(times, survival, window) + 0.0  # a zero slope prints 0.000000
    rel_err = abs(rate - cfg.gamma) / cfg.gamma
    summary = f"fitted_rate={rate:.6f} target={cfg.gamma:.6f} rel_err={rel_err:.3g}"
    code = EXIT_OK if rel_err <= MICROSCOPIC_RATE_RTOL else EXIT_TOLERANCE
    return csv, summary, code


def _run_convergence(cfg: RunConfig) -> tuple[tuple, str, int]:
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
    order = fit_order(zip(dts, errors))
    csv = ["dt", "max_error"], [dts, errors], ("fitted_order", order)
    summary = f"fitted_order={order:.4f}"
    code = EXIT_OK
    if kind == "spontaneous":
        target, slack = CONVERGENCE_ORDER_TARGET, CONVERGENCE_ORDER_SLACK
        summary += f" target={target}+-{slack}"
        if abs(order - target) > slack:
            code = EXIT_TOLERANCE
    return csv, summary, code


def _run_kraus_report(cfg: RunConfig) -> tuple[tuple, str, int]:
    if cfg.n_max < 2:
        raise ConfigError("kraus-report needs n_max >= 2 so that K_2 exists")
    system = _build_system(cfg)
    dts = cfg.dt * np.array(SWEEP_SCALES)
    families = _collision_family(system, cfg, dts)
    r0, r1, r2 = expansion_report(families, system, cfg.gamma, dts)
    defects = completeness_defect(families)
    csv = ["dt", "r0", "r1", "r2", "completeness_defect"], [dts, r0, r1, r2, defects], None

    r1_order = fit_order(zip(dts, r1))
    r2_max = r2.max()
    defect_max = defects.max()
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
            r2_order = fit_order(zip(dts, r2))
            summary += f" r2_order={r2_order:.4f}"
            if r2_order < R2_ORDER_MIN:
                code = EXIT_TOLERANCE
    return csv, summary, code


def _run_ordering_probe(cfg: RunConfig) -> tuple[tuple, str, int]:
    system = _build_system(cfg)
    dts = cfg.dt * np.array(SWEEP_SCALES)
    params = _coarse_params(system, cfg, dts)
    residuals = ordering_residual(system, params, ORDERING_SUBDIVISIONS)
    header, columns = ["dt", "max_error"], [dts, residuals]
    if cfg.system == "dephasing" and cfg.drive == 0.0:
        residual_max = residuals.max()
        csv = header, columns, ("residual_max", residual_max)
        summary = f"residual_max={residual_max:.3g} threshold={ORDERING_MAX_EXACT:g}"
        code = EXIT_OK if residual_max <= ORDERING_MAX_EXACT else EXIT_TOLERANCE
        return csv, summary, code
    order = fit_order(zip(dts, residuals))
    csv = header, columns, ("fitted_order", order)
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
    exceptions for the CLI to map onto exit codes.  Every check ends in the
    runner, before the file is opened, so a refused run leaves no file.
    """
    runner = _RUNNERS[cfg.experiment]
    csv, summary, code = runner(cfg)
    out_path = out_override or cfg.out_path or f"{cfg.experiment}.csv"
    with open(out_path, "wb") as out:
        _csv(out, *csv)
    print(summary)
    return code
