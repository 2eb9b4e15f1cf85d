"""timebins benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  The benchmark writes the workload's
config files from the seed, then calls ``timebins.cli.main`` in this process
once per run, one run after another, and checks every outcome.  It repeats
the whole run list (a "pass") until at least MIN_PASSES passes are done and
the next one would end after ``--seconds``.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
makes every run twice, back to back, untraced and traced, and prints the
per-layer metrics of the traced runs with the tracing overhead.  The last
line of standard output is the JSON result; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import outcome
import tracing
import workloads

# Single-thread baseline.  BLAS and OpenMP read these once, when numpy loads,
# so main() sets them before anything imports numpy.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
# Fresh interpreters timed for setup_s, spread over the measuring window.
SETUP_CHILDREN = 15
# run_tail_s is the highest whole percentile with at least this many runs
# beyond it, counted over the MIN_PASSES passes every run makes.
TAIL_RUNS_BEYOND = 10

# Printed with the end-to-end metrics but not in BENCHMARK.json: failed_frac
# is 0 on a clean program, so a bound relative to its median cannot apply,
# and run_p50_s spreads by more than the largest allowed bound (see README).
READ_ONLY = (
    ("run_p50_s", "s"),
    ("failed_frac", "1"),
)


# One tiny run of every experiment, made once before measuring so that the
# first measured run does not pay numpy's and the package's first-call costs.
WARMUP = (
    "experiment = collision\nt_final = 0.05\n",
    "experiment = lindblad\nt_final = 0.05\n",
    "experiment = convergence\nt_final = 0.1\n",
    "experiment = kraus-report\n",
    "experiment = ordering-probe\n",
    "experiment = joint-chain\nn_bins = 3\n",
    "experiment = microscopic\nn_modes = 101\nt_final = 3\n",
)


@dataclass
class Pass:
    """One pass over the run list."""

    wall: float = 0.0
    run_times: list[float] = field(default_factory=list)
    outcomes: list[tuple[str, outcome.Outcome]] = field(default_factory=list)
    layers: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    csv_bytes: int = 0
    trace_warnings: int = 0


def tail_percentile(guaranteed_runs: int) -> int:
    """Highest whole percentile with TAIL_RUNS_BEYOND runs beyond it."""
    return max(50, min(99, math.floor(100 * (1 - TAIL_RUNS_BEYOND / guaranteed_runs))))


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each metric BENCHMARK.json lists under ``kind``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in bench[kind]]


def measure_setup(children: int) -> list[float]:
    """Fresh interpreter to `import timebins` done, once per child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(children):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import timebins"],
            cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    """BLAS, threads, cores, interpreter, numpy, commit and source size."""
    import numpy

    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.25 has no mode
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
    sources = sorted((SRC / "timebins").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": dict(PINNED_THREADS),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def write_plan(runs: list[workloads.RunSpec], workdir: Path) -> list[tuple]:
    """Write every config file; returns (spec, config path, CSV path) per run."""
    plan = []
    for spec in runs:
        cfg = workdir / f"{spec.name}.cfg"
        cfg.write_text(spec.text(), encoding="utf-8")
        plan.append((spec, str(cfg), workdir / f"{spec.name}.csv"))
    return plan


def call_cli(cli, cfg: str, out: Path) -> tuple[float, int | None, str]:
    """One CLI call with its output captured: (seconds, exit code, error)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(["--config", cfg, "--out", str(out)])
            error = ""
        except Exception as exc:  # a crash is a measured outcome, not a bench error
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, code, error


def run_pass(cli, plan: list[tuple], tracer: tracing.Tracer | None = None,
             traced_first: bool = False) -> tuple[Pass, Pass | None]:
    """Run the whole list once, checking each outcome as it completes.

    With a tracer every run is made twice, back to back: once untraced and
    once with the tracer installed for that call only.  The machine's speed
    then drifts alike for both, so their difference is the tracing overhead.
    Returns (untraced pass, traced pass or None).
    """
    plain = Pass()
    traced = Pass() if tracer else None
    modes = [(plain, None)] + ([(traced, tracer)] if tracer else [])
    if traced_first:
        modes.reverse()
    referenced = {spec.same_as for spec, _, _ in plan if spec.same_as}
    kept: dict[tuple[int, str], bytes | None] = {}
    start = time.perf_counter()
    for spec, cfg, out in plan:
        for result, tr in modes:
            out.unlink(missing_ok=True)
            if tr is None:
                seconds, code, error = call_cli(cli, cfg, out)
            else:
                with tr, warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    tr.begin_run(spec.name)
                    seconds, code, error = call_cli(cli, cfg, out)
                    spans, counts = tr.end_run()
                result.trace_warnings += sum("trace deviation" in str(w.message) for w in caught)
                for name, (calls, total, own) in tracing.summarize(spans).items():
                    row = result.layers.setdefault(name, [0, 0.0, 0.0])
                    row[0] += calls
                    row[1] += total
                    row[2] += own
                for name, amount in counts.items():
                    result.counts[name] = result.counts.get(name, 0) + amount
            csv = out.read_bytes() if out.exists() else None
            result.csv_bytes += len(csv or b"")
            if spec.name in referenced:
                kept[id(result), spec.name] = csv
            first = kept.get((id(result), spec.same_as)) if spec.same_as else None
            result.run_times.append(seconds)
            result.outcomes.append((spec.name, outcome.check(spec, code, csv, first, error)))
    plain.wall = time.perf_counter() - start
    if traced:
        # Interleaved with untraced calls, the traced pass has no wall of its
        # own: it is the sum of its calls, compared with the untraced sum.
        traced.wall = sum(traced.run_times)
        plain.wall = sum(plain.run_times)
    return plain, traced


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    out: dict[str, float] = {}
    for _, _, name in tracing.TARGETS:
        calls, _, own = p.layers.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    for counter, _ in tracing.COUNTERS.values():
        out[counter] = p.counts.get(counter, 0)
    out["experiments.csv_bytes"] = p.csv_bytes
    out["channel.trace_warnings"] = p.trace_warnings
    out["trace.wall_s"] = p.wall
    return out


def module_split(p: Pass) -> dict[str, float]:
    """Share of a traced pass's time spent in each module's own code."""
    split: dict[str, float] = {}
    for name, (_, _, own) in p.layers.items():
        module = name.split(".")[0]
        split[module] = split.get(module, 0.0) + own
    split["outside_spans"] = p.wall - sum(split.values())
    return {k: v / p.wall for k, v in sorted(split.items(), key=lambda kv: -kv[1])}


def measure(cli, plan: list[tuple], seconds: float, trace: bool,
            between=lambda done: None) -> list[tuple[Pass, Pass | None]]:
    """Closed loop over whole passes, at least MIN_PASSES untraced or one
    traced, until the next pass would end after ``seconds``.

    After each pass ``between`` is called with the share of the window done;
    its own time is not counted in the window.
    """
    passes: list[tuple[Pass, Pass | None]] = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= (1 if trace else MIN_PASSES) and elapsed + longest > seconds:
            break
        began = time.perf_counter()
        tracer = tracing.Tracer() if trace else None
        passes.append(run_pass(cli, plan, tracer, traced_first=len(passes) % 2 == 1))
        ended = time.perf_counter()
        longest = max(longest, ended - began)
        between(min(1.0, (ended - start) / seconds))
        start += time.perf_counter() - ended
    return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_THREADS)

    if not (SRC / "timebins" / "__init__.py").is_file():
        print(f"no timebins sources under {SRC}; run from a timebins source tree",
              file=sys.stderr)
        return 2

    runs = workloads.build(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = write_plan(runs, workdir)
        setup: list[float] = []

        def sample_setup(done: float) -> None:
            # Spread the interpreters over the window, so that their median
            # sees the host's speed at every part of it, not at one moment.
            if not args.trace:
                setup.extend(measure_setup(round(SETUP_CHILDREN * done) - len(setup)))

        sys.path.insert(0, str(SRC))
        import timebins.cli as cli

        for i, text in enumerate(WARMUP):
            cfg = workdir / f"warmup-{i}.cfg"
            cfg.write_text(text, encoding="utf-8")
            call_cli(cli, str(cfg), workdir / f"warmup-{i}.csv")
        passes = measure(cli, plan, args.seconds, bool(args.trace), sample_setup)
        sample_setup(1.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p, _ in passes]
    traced = [t for _, t in passes if t is not None]
    results = [o for p in plain + traced for o in p.outcomes]
    attempted = len(results)
    failed = sum(o.failed for _, o in results)
    correct = not any(o.wrong_output for _, o in results)
    env = environment()

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs_per_pass={len(runs)} passes={len(passes)}"
          + (" (each run untraced and traced, back to back)" if traced else ""))
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{failed} of {attempted} runs failed; correct={correct}")
    findings: dict[tuple[str, str], int] = {}
    for name, o in results:
        if o.failed:
            findings[(name, o.reason)] = findings.get((name, o.reason), 0) + 1
    for (name, reason), n in findings.items():
        print(f"  failed run {name}: {reason} ({n} times)")

    if args.trace:
        per_pass = [layer_metrics(t) for t in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in passes)
        values["trace.overhead_frac"] = statistics.median(t.wall / p.wall - 1 for p, t in passes)
        split = module_split(traced[-1])
        print("self-time split " + " ".join(f"{k}={v:.3f}" for k, v in split.items()))
        print(f"tracing overhead {values['trace.overhead_s']:+.4f} s per pass "
              f"({values['trace.overhead_frac']:+.2%} of the untraced calls)")
        record = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        record.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "self_time_split": split, "metrics": values,
            "passes": [t.layers for t in traced],
        }, indent=1, sort_keys=True), encoding="utf-8")
        print(f"trace record written to {record.relative_to(ROOT)}")
        gated = shown = declared("per_layer")
    else:
        run_times = [t for p in plain for t in p.run_times]
        tail_p = tail_percentile(len(runs) * MIN_PASSES)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall for p in plain),
            # The median run of each pass (the mean of the two middle runs
            # for an even list), then the median over passes: a pooled median
            # would take the value of whichever of two similar runs was faster.
            "run_p50_s": statistics.median(statistics.median(p.run_times) for p in plain),
            "run_tail_s": percentile(run_times, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": failed / attempted,
        }
        print("pass walls " + " ".join(f"{p.wall:.4f}" for p in plain))
        print(f"run_tail_s is p{tail_p} of {len(run_times)} runs; wall_s is the median of "
              f"{len(plain)} passes; setup_s the median of {len(setup)} interpreters")
        gated = declared("end_to_end")
        shown = gated + list(READ_ONLY)

    for name, unit in shown:
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in gated}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
