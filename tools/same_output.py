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
fitted to; for a stdout that differs, it also prints the largest change in
its numbers, line by line, when the words between them match (infinite when
they do not).  Its last lines name the largest column difference (the
``#`` lines left out), the largest ``#`` line change and the largest stdout
change over all runs, each with its run (and column), and count the runs
that differ; a ``#`` line change is measured as a stdout change is.  It
exits 1 when a run is missing from one record, or when an exit
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
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# fields whose difference fails the comparison
STRICT = ("exit", "error", "stderr", "warnings")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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


def _csv_diff(a: str, b: str) -> tuple[list[str], dict[str, float], float]:
    """Lines describing how two CSV texts differ, the largest absolute
    difference in each column of two tables of the same shape, and the
    largest change in the numbers of their ``#`` lines."""
    (a_notes, a_rows), (b_notes, b_rows) = (
        ([ln for ln in t.splitlines() if ln.startswith("#")],
         [ln.split(",") for ln in t.splitlines() if not ln.startswith("#")])
        for t in (a, b)
    )
    lines = [f"  {x}  ->  {y}" for x, y in zip(a_notes, b_notes) if x != y]
    if len(a_notes) != len(b_notes):
        lines.append(f"  # lines: {len(a_notes)} -> {len(b_notes)}")
    notes = _number_delta("\n".join(a_notes), "\n".join(b_notes))
    if len(a_rows) != len(b_rows) or not a_rows or a_rows[0] != b_rows[0]:
        lines.append(f"  table shape or header differs: {len(a_rows)} -> {len(b_rows)} rows")
        return lines, {}, notes
    worst = dict.fromkeys(a_rows[0], 0.0)
    for ra, rb in zip(a_rows[1:], b_rows[1:]):
        if len(ra) != len(rb):
            return lines + ["  a row has a different number of entries"], {}, notes
        for col, x, y in zip(a_rows[0], ra, rb):
            if x != y:
                try:
                    delta = abs(float(x) - float(y))
                except ValueError:
                    delta = math.inf
                # a NaN against a number counts as an infinite difference
                worst[col] = max(worst[col], delta if delta >= 0.0 else math.inf)
    moved = ", ".join(f"{col} {d:.2g}" for col, d in worst.items() if d)
    return lines + ([f"  max |delta| per column: {moved}"] if moved else []), worst, notes


def _number_delta(a: str, b: str) -> float:
    """The largest absolute change between the numbers of two texts,
    over the lines that differ; a line whose words (the text between its
    numbers) differ, or a different line count, counts as infinite."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    if len(a_lines) != len(b_lines):
        return math.inf
    worst = 0.0
    for x, y in zip(a_lines, b_lines):
        if x != y and NUMBER.split(x) != NUMBER.split(y):
            return math.inf
        for p, q in zip(NUMBER.findall(x), NUMBER.findall(y)):
            worst = max(worst, abs(float(p) - float(q)))
    return worst


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    failed = differing = 0
    largest = (0.0, "", "")  # (|delta|, run, column)
    largest_notes = largest_stdout = (0.0, "")  # (|delta|, run)
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
                lines, worst, notes = _csv_diff(ra[f], rb[f])
                print("\n".join(lines))
                largest = max([largest, *((d, name, col) for col, d in worst.items())])
                largest_notes = max(largest_notes, (notes, name))
            else:
                print(f"  {f}: {ra[f]!r}  ->  {rb[f]!r}")
            if f == "stdout":
                delta = _number_delta(ra[f], rb[f])
                print(f"  max |delta| in stdout numbers: {delta:.2g}")
                largest_stdout = max(largest_stdout, (delta, name))
    delta, run, column = largest
    where = f" in {run}, column {column}" if delta else ""
    print(f"largest CSV column |delta|: {delta:.3g}{where}")
    for what, (delta, run) in (("# line", largest_notes), ("stdout", largest_stdout)):
        print(f"largest {what} number |delta|: {delta:.3g}{f' in {run}' if delta else ''}")
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
