"""Flat key = value run configuration.

One assignment per line, ``#`` starts a comment, unknown keys are an error so
typos never silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["ConfigError", "RunConfig", "parse_config", "EXPERIMENTS", "SYSTEMS"]

EXPERIMENTS = (
    "lindblad",
    "collision",
    "kraus-report",
    "joint-chain",
    "microscopic",
    "convergence",
    "ordering-probe",
)

SYSTEMS = ("tls", "tls-driven", "oscillator3", "dephasing")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    gamma: float = 1.0
    dt: float = 0.01
    t_final: float = 1.0
    n_max: int = 2
    n_bins: int = 12
    system: str = "tls"
    omega0: float = 0.0
    drive: float = 0.0
    out_path: str = ""
    half_width: float = 20.0
    n_modes: int = 1601


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind != "float":
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {kind}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; fills defaults for keys left unset."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = _convert(key, raw)

    if "experiment" not in values:
        raise ConfigError("missing experiment")
    # A driven qubit defaults to unit drive unless the config overrides it.
    if values.get("system") == "tls-driven" and "drive" not in values:
        values["drive"] = 1.0
    if values.get("system") == "oscillator3" and values.get("drive", 0.0) != 0.0:
        raise ConfigError("oscillator3 takes no drive")

    cfg = RunConfig(**values)  # type: ignore[arg-type]
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.system not in SYSTEMS:
        raise ConfigError(f"unknown system {cfg.system!r}")
    for key in ("gamma", "dt", "t_final", "half_width"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    # the one-bin generator holds gamma dt and the Hamiltonian times dt
    for key in ("gamma", "omega0", "drive"):
        if not math.isfinite(getattr(cfg, key) * cfg.dt):
            raise ConfigError(f"{key} * dt overflows to infinity")
    if cfg.n_max < 1:
        raise ConfigError("n_max must be >= 1")
    if cfg.n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    if cfg.n_modes < 3 or cfg.n_modes % 2 == 0:
        raise ConfigError("n_modes must be odd and >= 3")
    return cfg
