"""Spans around the public functions of each timebins module.

The package imports names directly (``from .channel import apply_channel``),
so one function has a binding in every module that imported it.  A
``Tracer`` replaces every binding of each target with one wrapper and puts
all of them back on exit, so an untraced run afterwards calls the originals.

Each span is ``[name, start, end, parent, run_id]``: ``parent`` is the index
of the enclosing span in the same run (-1 for a root) and ``run_id`` names
the experiment run.  Spans stay in memory for the length of one run and are
folded into per-name totals when the run ends.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# (module, attribute path, span name).  ``DensityMatrix.__post_init__`` is the
# validating check run on every state the package builds.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "parse_config", "config.parse_config"),
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("operators", "expm", "operators.expm"),
    ("operators", "vn_entropy", "operators.vn_entropy"),
    ("model", "coarse_map", "model.coarse_map"),
    ("model", "ordering_residual", "model.ordering_residual"),
    ("channel", "extract_kraus", "channel.extract_kraus"),
    ("channel", "apply_channel", "channel.apply_channel"),
    ("channel", "iterate_channel", "channel.iterate_channel"),
    ("channel", "DensityMatrix.__post_init__", "channel.DensityMatrix"),
    ("lindblad", "integrate_rk4", "lindblad.integrate_rk4"),
    ("lindblad", "analytic_oracle", "lindblad.analytic_oracle"),
    ("chain", "init_chain", "chain.init_chain"),
    ("chain", "step_chain", "chain.step_chain"),
    ("chain", "reduced_system", "chain.reduced_system"),
    ("microscopic", "build_microscopic", "microscopic.build_microscopic"),
    ("microscopic", "evolve_microscopic", "microscopic.evolve_microscopic"),
    ("microscopic", "fit_decay_rate", "microscopic.fit_decay_rate"),
)

# Work counted from the arguments of a traced call: counter name -> amount.
COUNTERS: dict[str, tuple[str, Callable[..., float]]] = {
    # One collision reads and writes every amplitude of the chain once
    # (complex128, 16 bytes each); computed from the state size, not measured.
    "chain.step_chain": ("chain.step_chain.bytes", lambda state, u: 32 * state.vec.data.size),
    "channel.DensityMatrix": ("channel.DensityMatrix.checks", lambda rho: 1),
    "lindblad.integrate_rk4": ("lindblad.rk4_steps", lambda model, rho0, dt, steps: steps),
    "microscopic.build_microscopic": ("microscopic.modes", lambda grid, gamma: grid.n_modes),
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, run_id in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, run_id) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list]) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds] over the given spans."""
    out: dict[str, list[float]] = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return out


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager that wraps every binding of the targets in a span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](*args, **kwargs)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "timebins" or key.startswith("timebins."))
        ]
        try:
            for module, path, name in TARGETS:
                owner, attr = _resolve(sys.modules[f"timebins.{module}"], path)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original)
                # A method has one binding, in its class; a function has one in
                # every module that imported it.
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, key, original))
                            setattr(holder, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)

    def begin_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def end_run(self) -> tuple[list[list], dict[str, float]]:
        """Hand over the finished run's spans and counts, and start empty."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts
