"""Time named package functions over in-process replays of benchmark run lists.

    python3 tools/layer_split.py trajectory:7 [scan:1,2 ...] [--passes 10]
        [--functions experiments._csv channel.check_states channel.propagate
                     model.ordering_residual model.coarse_map
                     chain.step_chain microscopic.emitter_spectrum
                     microscopic.evolve_microscopic microscopic._pole_sums]
        [--runs N] [--src DIR]

Builds the run list of each ``workload:seeds`` from ``perfbench/workloads.py``
and runs every config through ``timebins.cli.main`` in this process, loaded
as ``tools/same_output.py`` loads it, with BLAS pinned to one thread (only
the first ``--runs`` of the list, if given): one warm-up pass (lazy tables,
first calls), then ``--passes`` timed passes.  As ``perfbench/run.py`` does,
every config is written to its own file before the warm-up, and each run's
output is unlinked before its call, so every call writes a fresh file; a
pass's time is the sum of its ``cli.main`` calls, without those file steps.
Each named function, ``module.name`` with private names allowed, has every
binding in the package's modules, and every entry of their module-level
dicts (such as ``experiments._RUNNERS``), replaced by one timing wrapper, so
the calls made through another module's import or through a dispatch table
are counted too.  A function's time is inclusive (what it calls counts), and
a call made while the same function is already running is not counted again.

Prints, per function, the median time per pass and its share of the median
pass, with the smallest and largest pass, and its outermost calls per pass
(the median; the pass row gives its runs).  Nothing under ``perfbench/`` is
written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

from same_output import ROOT, _load, _plans

FUNCTIONS = ("experiments._csv", "channel.check_states", "channel.propagate",
             "model.ordering_residual", "model.coarse_map",
             "chain.step_chain", "microscopic.emitter_spectrum",
             "microscopic.evolve_microscopic", "microscopic._pole_sums")


def _wrap_all(
    names: list[str], totals: dict[str, float], calls: dict[str, int]
) -> list[tuple[dict, str, object]]:
    """Replace every package binding of each named function, in a module or
    in a module-level dict, by a timer that adds its outermost calls'
    durations to totals[name] and their number to calls[name]; returns what
    to put back."""
    modules = [m for k, m in sys.modules.items() if m is not None and k.startswith("timebins")]
    holders = [vars(m) for m in modules]
    holders += [v for h in holders for k, v in h.items() if type(v) is dict and k[:2] != "__"]
    saved = []
    for name in names:
        module, _, attr = name.partition(".")
        original = getattr(sys.modules[f"timebins.{module}"], attr)
        depth = [0]

        def timed(*args, _fn=original, _name=name, _depth=depth, **kwargs):
            _depth[0] += 1
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                _depth[0] -= 1
                if not _depth[0]:
                    totals[_name] += time.perf_counter() - start
                    calls[_name] += 1

        for holder in holders:
            for key, value in list(holder.items()):
                if value is original:
                    saved.append((holder, key, original))
                    holder[key] = timed
    return saved


def split(
    specs: list[str], names: list[str], passes: int, src: str, runs: int | None = None
) -> tuple[dict[str, list[float]], dict[str, list[int]]]:
    """Seconds and outermost calls per timed pass: the whole pass (its runs)
    under "pass", and each name."""
    cli, workloads = _load(src)
    texts = [spec.text() for w, seed in _plans(specs) for spec in workloads.build(w, seed)]
    texts = texts[:runs]
    totals, calls = dict.fromkeys(names, 0.0), dict.fromkeys(names, 0)
    saved = _wrap_all(names, totals, calls)
    times: dict[str, list[float]] = {"pass": [], **{name: [] for name in names}}
    counts: dict[str, list[int]] = {"pass": [], **{name: [] for name in names}}
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = []
            for i, text in enumerate(texts):
                cfg = Path(tmp) / f"{i}.cfg"
                cfg.write_text(text, encoding="utf-8")
                plan.append((str(cfg), Path(tmp) / f"{i}.csv"))
            for n in range(passes + 1):  # pass 0 warms up
                totals.update(dict.fromkeys(names, 0.0))
                calls.update(dict.fromkeys(names, 0))
                elapsed = 0.0
                for cfg, out in plan:
                    out.unlink(missing_ok=True)
                    start = time.perf_counter()
                    cli.main(["--config", cfg, "--out", str(out)])
                    elapsed += time.perf_counter() - start
                if n:
                    times["pass"].append(elapsed)
                    counts["pass"].append(len(texts))
                    for name in names:
                        times[name].append(totals[name])
                        counts[name].append(calls[name])
    finally:
        for holder, key, original in reversed(saved):
            holder[key] = original
    return times, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="+", metavar="workload:seeds")
    parser.add_argument("--functions", nargs="+", default=list(FUNCTIONS), metavar="module.name")
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--runs", type=int, default=None, help="time the first RUNS runs only")
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    times, counts = split(args.specs, args.functions, args.passes, args.src, args.runs)
    whole = statistics.median(times["pass"])
    runs = f", first {args.runs} runs" if args.runs is not None else ""
    print(f"{' '.join(args.specs)}{runs}: {args.passes} passes, median of each, in ms")
    width = max(map(len, times))
    for name, values in times.items():
        mid = statistics.median(values)
        unit = "runs" if name == "pass" else "calls"
        print(f"{name:<{width}} {1e3 * mid:9.1f}  {100 * mid / whole:5.1f}%"
              f"  ({1e3 * min(values):.1f} .. {1e3 * max(values):.1f})"
              f"  {statistics.median_low(counts[name])} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
