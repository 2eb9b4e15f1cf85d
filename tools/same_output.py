"""Record the CLI's output on benchmark workloads, and compare two records.

    python3 tools/same_output.py record OUT.json scan:1,2,3 exact:1 [--src DIR]
    python3 tools/same_output.py compare A.json B.json

``record`` builds the run list of each ``workload:seeds`` from
``perfbench/workloads.py``, runs every config through ``timebins.cli.main``
in this process, one after another, with BLAS pinned to one thread, and
stores the exit code, stdout, stderr, warnings and CSV text of each run.
``--src`` names the ``src`` directory whose ``timebins`` is run (default: the
one next to this tool), so two source trees are recorded with the same run
lists.  Nothing under ``perfbench/`` is written.

``compare`` prints every run that differs: the fields that differ, the
largest absolute difference in each numeric CSV column, and the CSV's ``#``
lines apart, since a fitted value there can move more than the columns it is
fitted to.  Its last lines name the largest column difference over all runs,
with its run and column (the ``#`` lines left out), and count the runs that
differ.  It exits 1 when a run is missing from one record, or when an exit
code, stderr or warning differs; a difference only in stdout or CSV text is
printed for the reader to judge and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# fields whose difference fails the comparison
STRICT = ("exit", "error", "stderr", "warnings")


def _plans(specs: list[str]) -> list[tuple[str, int]]:
    plans = []
    for spec in specs:
        workload, _, seeds = spec.partition(":")
        if not seeds:
            raise SystemExit(f"expected workload:seed[,seed...], got {spec!r}")
        plans += [(workload, int(seed)) for seed in seeds.split(",")]
    return plans


def _run(cli, text: str, work: Path) -> dict:
    cfg, out = work / "run.cfg", work / "run.csv"
    cfg.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, error = cli.main(["--config", str(cfg), "--out", str(out)]), None
        except Exception as exc:  # a crash is an outcome to compare
            code, error = None, f"{type(exc).__name__}: {exc}"
    return {
        "config": text,
        "exit": code,
        "error": error,
        "stdout": stdout.getvalue().replace(str(work), "<work>"),
        "stderr": stderr.getvalue().replace(str(work), "<work>"),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "csv": out.read_text(encoding="utf-8") if out.exists() else None,
    }


def _load(src: str):
    """``timebins.cli`` from the ``src`` directory and perfbench's
    ``workloads``, imported in this process with BLAS pinned to one thread."""
    for name in THREADS:  # read once, when numpy loads
        os.environ[name] = "1"
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import timebins.cli as cli
    import workloads

    return cli, workloads


def record(path: str, specs: list[str], src: str) -> int:
    cli, workloads = _load(src)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in _plans(specs):
            for spec in workloads.build(workload, seed):
                runs[f"{workload}:{seed}:{spec.name}"] = _run(cli, spec.text(), Path(tmp))
    Path(path).write_text(json.dumps(runs, indent=1, sort_keys=True), encoding="utf-8")
    print(f"recorded {len(runs)} runs of {cli.__file__}")
    return 0


def _csv_diff(a: str, b: str) -> tuple[list[str], dict[str, float]]:
    """Lines describing how two CSV texts differ, and the largest absolute
    difference in each column of two tables of the same shape."""
    (a_notes, a_rows), (b_notes, b_rows) = (
        ([ln for ln in t.splitlines() if ln.startswith("#")],
         [ln.split(",") for ln in t.splitlines() if not ln.startswith("#")])
        for t in (a, b)
    )
    lines = [f"  {x}  ->  {y}" for x, y in zip(a_notes, b_notes) if x != y]
    if len(a_notes) != len(b_notes):
        lines.append(f"  # lines: {len(a_notes)} -> {len(b_notes)}")
    if len(a_rows) != len(b_rows) or not a_rows or a_rows[0] != b_rows[0]:
        lines.append(f"  table shape or header differs: {len(a_rows)} -> {len(b_rows)} rows")
        return lines, {}
    worst = dict.fromkeys(a_rows[0], 0.0)
    for ra, rb in zip(a_rows[1:], b_rows[1:]):
        if len(ra) != len(rb):
            return lines + ["  a row has a different number of entries"], {}
        for col, x, y in zip(a_rows[0], ra, rb):
            if x != y:
                try:
                    delta = abs(float(x) - float(y))
                except ValueError:
                    delta = math.inf
                # a NaN against a number counts as an infinite difference
                worst[col] = max(worst[col], delta if delta >= 0.0 else math.inf)
    moved = ", ".join(f"{col} {d:.2g}" for col, d in worst.items() if d)
    return lines + ([f"  max |delta| per column: {moved}"] if moved else []), worst


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    failed = differing = 0
    largest = (0.0, "", "")  # (|delta|, run, column)
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            failed += 1
            continue
        ra, rb = a[name], b[name]
        fields = [f for f in ("exit", "error", "stderr", "warnings", "stdout", "csv")
                  if ra[f] != rb[f]]
        if not fields:
            continue
        differing += 1
        failed += any(f in STRICT for f in fields)
        print(f"{name}: {', '.join(fields)} differ")
        for f in fields:
            if f == "csv" and ra[f] is not None and rb[f] is not None:
                lines, worst = _csv_diff(ra[f], rb[f])
                print("\n".join(lines))
                largest = max([largest, *((d, name, col) for col, d in worst.items())])
            else:
                print(f"  {f}: {ra[f]!r}  ->  {rb[f]!r}")
    delta, run, column = largest
    where = f" in {run}, column {column}" if delta else ""
    print(f"largest CSV column |delta|: {delta:.3g}{where}")
    print(f"{len(set(a) | set(b))} runs: {differing} differ, {failed} in exit code, "
          "stderr, warnings or presence")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run workloads and store their output")
    rec.add_argument("out")
    rec.add_argument("specs", nargs="+", metavar="workload:seeds")
    rec.add_argument("--src", default=str(ROOT / "src"))
    cmp_ = sub.add_parser("compare", help="print the runs in which two records differ")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.out, args.specs, args.src)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
