"""Seeded run lists for the three benchmark workloads.

A workload is a fixed list of slots.  Each slot fixes everything that sets the
cost of a run (experiment, system, ``steps``, ``n_max``, ``n_bins``,
``n_modes``); the seed only draws the physical parameters (``gamma``, ``dt``,
``omega0``, ``drive``, ``half_width``) inside the ranges the README documents
as valid.  So two seeds give the same sizes, and the same cost.

Every run carries the outcome the README promises for it: exit code 0 for
every valid config, 2 for a config error, 3 for a numeric guard, the number
of CSV data rows, and, for a repeated config, the name of the earlier run
whose CSV it must reproduce byte for byte.  A slot on which the seed program
is known to reject a valid config also names the exit codes of that finding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("trajectory", "scan", "exact")

SYSTEMS = ("tls", "tls-driven", "dephasing", "oscillator3")

# README: a sweep (convergence, ordering-probe, kraus-report) starts at dt
# and halves it three times, one CSV row per dt.
SWEEP_ROWS = 4


@dataclass(frozen=True)
class RunSpec:
    """One CLI call: its config and the outcome the README promises."""

    name: str
    config: tuple[tuple[str, str], ...]
    expect_code: int = 0
    expect_rows: int | None = None
    same_as: str | None = None
    finding_codes: tuple[int, ...] = ()

    def text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config)


def _num(x: float) -> str:
    return repr(float(x))


class _Draw:
    """Physical parameters drawn from the seed, each within a factor of 2."""

    def __init__(self, seed: int, workload: str) -> None:
        self._rng = random.Random(f"{workload}:{seed}")

    def around(self, base: float) -> float:
        return base * 2.0 ** self._rng.uniform(-0.5, 0.5)

    def above(self, floor: float) -> float:
        return floor * 2.0 ** self._rng.uniform(0.0, 1.0)


def _physics(draw: _Draw, system: str, variant: str, dt_base: float) -> list[tuple[str, str]]:
    """gamma, dt, omega0 and drive for one slot.

    ``free`` keeps H = 0 where the system allows it, so the closed-form oracles
    apply; ``detuned`` draws omega0; ``driven`` draws omega0 and a drive.
    A tls-driven system always carries its drive, and oscillator3 has none.
    """
    cfg = [
        ("system", system),
        ("gamma", _num(draw.around(1.0))),
        ("dt", _num(draw.around(dt_base))),
    ]
    if variant in ("detuned", "driven"):
        cfg.append(("omega0", _num(draw.around(1.0))))
    if system == "tls-driven" or (variant == "driven" and system != "oscillator3"):
        cfg.append(("drive", _num(draw.around(1.0))))
    return cfg


def _timeseries(experiment: str, physics: list[tuple[str, str]], steps: int) -> tuple:
    dt = float(dict(physics)["dt"])
    return (("experiment", experiment), *physics, ("t_final", _num(steps * dt)))


def _trajectory(seed: int) -> list[RunSpec]:
    draw = _Draw(seed, "trajectory")
    # A collision step costs about half an RK4 step, so the shorter collision
    # runs take 4000 steps: all but the 10 000-step run then cost about the
    # same, and run_p50_s sits inside one cluster of run times.
    slots = [
        ("collision", "tls", "free", 10000),
        ("collision", "tls", "detuned", 4000),
        ("collision", "tls-driven", "free", 4000),
        ("collision", "dephasing", "free", 4000),
        ("collision", "oscillator3", "detuned", 4000),
        ("lindblad", "tls", "free", 2000),
        ("lindblad", "tls", "driven", 2000),
        ("lindblad", "tls-driven", "free", 2000),
        ("lindblad", "dephasing", "free", 2000),
        ("lindblad", "oscillator3", "detuned", 2000),
    ]
    runs = []
    for i, (experiment, system, variant, steps) in enumerate(slots):
        config = _timeseries(experiment, _physics(draw, system, variant, 0.01), steps)
        runs.append(RunSpec(f"t{i:02d}-{experiment}-{system}", config, 0, steps + 1))
    # Convergence sweeps dt, dt/2, dt/4, dt/8 over one t_final and checks every
    # step against the closed form, so it needs a free tls or dephasing system.
    for i, system in enumerate(("tls", "dephasing"), start=len(slots)):
        physics = _physics(draw, system, "free", 0.02)
        config = _timeseries("convergence", physics, 200)
        runs.append(RunSpec(f"t{i:02d}-convergence-{system}", config, 0, SWEEP_ROWS))
    # The README promises byte-identical reruns: every config runs twice.
    repeats = [
        RunSpec(r.name + "-again", r.config, r.expect_code, r.expect_rows, same_as=r.name)
        for r in runs
    ]
    return [r for pair in zip(runs, repeats) for r in pair]


_SCAN_VARIANTS = ("free", "detuned", "driven")


def _seed_finding(experiment: str, system: str, variant: str) -> tuple[int, ...]:
    """Exit codes with which the seed program rejects this valid slot.

    ``kraus-report`` asserts that K2 vanishes on every qubit, but with a drive
    K2 is O(dt^2).  ``ordering-probe`` on undriven dephasing fits an order to
    a residual that is zero up to roundoff, and the fit fails (exit 1) or
    finds no positive error to fit (exit 3).
    """
    driven_qubit = system == "tls-driven" or (system == "tls" and variant == "driven")
    if experiment == "kraus-report" and driven_qubit:
        return (1,)
    if experiment == "ordering-probe" and system == "dephasing" and variant != "driven":
        return (1, 3)
    return ()


def _scan(seed: int) -> list[RunSpec]:
    draw = _Draw(seed, "scan")
    runs = []

    def add(tag: str, config: tuple, code: int = 0, rows: int | None = None,
            findings: tuple[int, ...] = ()) -> None:
        runs.append(RunSpec(f"s{len(runs):03d}_{tag}", config, code, rows,
                            finding_codes=findings))

    for system in SYSTEMS:
        for variant in _SCAN_VARIANTS:
            for experiment, n_maxes in (("kraus-report", range(2, 7)),
                                        ("ordering-probe", range(1, 7))):
                findings = _seed_finding(experiment, system, variant)
                for n_max in n_maxes:
                    physics = _physics(draw, system, variant, 0.01)
                    config = (("experiment", experiment), *physics, ("n_max", str(n_max)))
                    add(f"{experiment}_{system}_{variant}", config, 0, SWEEP_ROWS, findings)
            for experiment in ("collision", "lindblad"):
                for steps in range(10, 51, 10):
                    physics = _physics(draw, system, variant, 0.01)
                    add(f"{experiment}_{system}_{variant}",
                        _timeseries(experiment, physics, steps), 0, steps + 1)
            for n_bins in range(2, 9, 2):
                physics = _physics(draw, system, variant, 0.01)
                config = (("experiment", "joint-chain"), *physics, ("n_bins", str(n_bins)))
                add(f"joint-chain_{system}_{variant}", config, 0, n_bins + 1)

    # Guard runs keep the documented refusals under load.
    for _ in range(2):
        # Past the 4M-amplitude cap: 2 * 3**14 amplitudes (exit 3).
        physics = _physics(draw, "tls", "free", 0.01)
        config = (("experiment", "joint-chain"), *physics, ("n_bins", "14"))
        add("guard-chain-cap", config, 3)
        # t_final past the grid recurrence time 2 pi / spacing (exit 3).
        gamma = draw.around(1.0)
        half_width = draw.above(20.0 * gamma)
        recurrence = math.pi * 100 / half_width
        t_final = 1.5 * recurrence
        config = (
            ("experiment", "microscopic"),
            ("gamma", _num(gamma)),
            ("half_width", _num(half_width)),
            ("n_modes", "101"),
            ("t_final", _num(t_final)),
            ("dt", _num(t_final / 300)),
        )
        add("guard-recurrence", config, 3)
        # A misspelt key is a configuration error (exit 2).
        physics = _physics(draw, "tls", "free", 0.01)
        config = (*_timeseries("collision", physics, 20), ("gama", _num(draw.around(1.0))))
        add("guard-unknown-key", config, 2)
    return runs


def _exact(seed: int) -> list[RunSpec]:
    draw = _Draw(seed, "exact")
    runs = []
    for n_modes in (801, 1201, 1601):
        gamma = draw.around(1.0)
        dt = draw.around(0.01)
        config = (
            ("experiment", "microscopic"),
            ("gamma", _num(gamma)),
            ("dt", _num(dt)),
            ("t_final", _num(300 * dt)),
            ("half_width", _num(draw.above(20.0 * gamma))),
            ("n_modes", str(n_modes)),
        )
        runs.append(RunSpec(f"x{len(runs)}-microscopic-{n_modes}", config, 0, 301))
    chains = [("tls", "free", 11), ("tls", "detuned", 12), ("tls-driven", "free", 13),
              ("oscillator3", "free", 9), ("oscillator3", "detuned", 10)]
    for system, variant, n_bins in chains:
        physics = _physics(draw, system, variant, 0.01)
        config = (("experiment", "joint-chain"), *physics,
                  ("n_max", "2"), ("n_bins", str(n_bins)))
        runs.append(RunSpec(f"x{len(runs)}-joint-chain-{system}-{n_bins}", config, 0, n_bins + 1))
    return runs


def build(workload: str, seed: int) -> list[RunSpec]:
    """The run list of one workload for one seed."""
    builders = {"trajectory": _trajectory, "scan": _scan, "exact": _exact}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    runs = builders[workload](seed)
    names = [r.name for r in runs]
    if len(set(names)) != len(names):
        raise AssertionError("run names must be unique")
    if workload == "scan" and len({r.config for r in runs}) != len(runs):
        raise AssertionError("scan configs must be all distinct")
    return runs
