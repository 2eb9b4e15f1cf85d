"""Command-line driver: ``timebins --config run.cfg [--out path]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .errors import GuardError, StateError
from .experiments import EXIT_CONFIG, EXIT_GUARD, run_experiment

__all__ = ["main"]


# built once: building it costs several times what parsing a command line does
_PARSER = argparse.ArgumentParser(
    prog="timebins", description="Run one named collision-model experiment from a config file."
)
_PARSER.add_argument("--config", required=True, help="path to a flat 'key = value' config file")
_PARSER.add_argument("--out", help="override the configured output CSV path")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_experiment(parse_config(text), out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GuardError, StateError, MemoryError) as exc:
        # a MemoryError is a run too long to allocate, e.g. a huge t_final/dt
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
