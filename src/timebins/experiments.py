"""Named experiments behind the CLI.

Each experiment builds its objects from a RunConfig, writes one CSV, prints a
one-line summary, and reports an exit status: 0 on success, 1 when a result
misses its documented tolerance, 2 for configuration problems, 3 when a
numeric guard trips.  All output is a pure function of the config, so a rerun
produces byte-identical CSV files.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .chain import init_chain, reduced_system, step_chain
from .channel import (
    DensityMatrix,
    KrausFamily,
    extract_kraus,
    first_invalid,
    iterate_channel,
)
from .config import ConfigError, RunConfig
from .errors import GuardError, StateError
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
from .operators import StateVector, vn_entropy

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
SWEEP_POINTS = 4
# Most steps a run may take, as many as the joint chain's amplitudes: a run at
# the cap peaks near 2 GB (300-500 bytes a row).  Numpy may be granted more
# than the machine holds, and the kernel then kills the process, so every
# size a config sets is held to this bound before any array exists: the
# steps, the modes of the microscopic grid and the one-bin unitary's entries.
MAX_STEPS = 2**22
# CSV rows formatted per block, one % per block, so no full-length Python
# copy of the table is ever built next to the CSV text.
CSV_BLOCK_ROWS = 1024


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


def _csv(
    header: Sequence[str], table: np.ndarray, note: tuple[str, float] | None = None
) -> str:
    """CSV text of a float table, ended by a '# name = value' line if a note
    is given.  17 significant digits round-trip doubles exactly."""
    row = ",".join(["%.17g"] * table.shape[1])
    blocks = [",".join(header)]
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start : start + CSV_BLOCK_ROWS]
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


def _sweep(cfg: RunConfig, measure: Callable[[float], Sequence[float]]) -> np.ndarray:
    """The table of rows (dt, *measure(dt)) for dt = cfg.dt, cfg.dt/2, ...,
    SWEEP_POINTS values in all."""
    dts = [cfg.dt * 0.5**i for i in range(SWEEP_POINTS)]
    return np.array([(dt, *measure(dt)) for dt in dts])


def _steps(t_final: float, dt: float) -> int:
    steps = t_final / dt
    if not steps < MAX_STEPS:  # also catches an overflow to inf
        raise GuardError(f"t_final/dt = {steps:g} steps cannot be held in memory")
    return max(1, round(steps))


def _coarse_params(system: SystemModel, cfg: RunConfig, dt: float) -> CoarseParams:
    side = system.dim * (cfg.n_max + 1)
    if not side * side < MAX_STEPS:
        raise GuardError(
            f"n_max = {cfg.n_max} needs a one-bin unitary of side {side}, "
            "which cannot be held in memory"
        )
    return CoarseParams(cfg.gamma, dt, cfg.n_max)


def _collision_family(system: SystemModel, cfg: RunConfig, dt: float) -> KrausFamily:
    params = _coarse_params(system, cfg, dt)
    return extract_kraus(coarse_map(system, params), system.dim, cfg.n_max, dt)


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
    # the amplitude cap refuses an oversized chain before any unitary is built
    state = init_chain(StateVector(vec, (system.dim,)), cfg.n_bins, cfg.n_max)
    unitary = coarse_map(system, CoarseParams(cfg.gamma, cfg.dt, cfg.n_max))
    family = extract_kraus(unitary, system.dim, cfg.n_max, cfg.dt)
    rho0 = DensityMatrix.pure(vec)
    reference = iterate_channel(family, rho0, cfg.n_bins)

    reduced = [reduced_system(state)]
    for _ in range(cfg.n_bins):
        state = step_chain(state, unitary)
        reduced.append(reduced_system(state))
    stack = np.stack([dm.matrix for dm in reduced])
    entropies = [vn_entropy(dm.matrix) for dm in reduced]
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
    if not cfg.n_modes < MAX_STEPS:
        raise GuardError(f"n_modes = {cfg.n_modes} modes cannot be held in memory")
    grid = FrequencyGrid(cfg.n_modes, cfg.half_width)
    survival = evolve_microscopic(build_microscopic(grid, cfg.gamma), times)

    # In the single-excitation sector the reduced state is diag(1-p, p).
    stack = np.zeros((len(survival), 2, 2), dtype=complex)
    stack[:, 0, 0] = 1.0 - survival
    stack[:, 1, 1] = survival
    _, message = first_invalid(stack)
    if message:
        raise StateError(message)
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

    def max_error(dt: float) -> tuple[float]:
        family = _collision_family(system, cfg, dt)
        steps = _steps(cfg.t_final, dt)
        stack = iterate_channel(family, rho0, steps)
        times = np.arange(1, steps + 1) * dt
        reference = analytic_oracle(kind, cfg.gamma, times, rho0)
        return (float(np.max(np.abs(stack[1:] - reference))),)

    table = _sweep(cfg, max_error)
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

    def residuals(dt: float) -> tuple[float, float, float, float]:
        family = _collision_family(system, cfg, dt)
        return (*expansion_report(family, system, cfg.gamma), family.completeness_defect)

    table = _sweep(cfg, residuals)
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

    def residual(dt: float) -> tuple[float]:
        params = _coarse_params(system, cfg, dt)
        return (ordering_residual(system, params, ORDERING_SUBDIVISIONS),)

    table = _sweep(cfg, residual)
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
