"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload trajectory scan exact --seeds 1-10 \
        [--seconds 30] [--out .bench_work/spread.json]

Runs ``perfbench/run.py`` once per seed and workload, one after another, and
prints for every end-to-end metric its median, its quartiles
(``statistics.quantiles`` with n=4) and the quartile distance as a share of
the median, next to the metric's bound in BENCHMARK.json.  ``--out`` keeps
every run's result line and environment record with that summary; this is
how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment "))
    return json.loads(lines[-1]), env


def summarize(workload: str, runs: list[dict], end_to_end: list[dict]) -> dict:
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": metric["bound"], "unit": metric["unit"]}
        verdict = ("steady" if spread < metric["bound"] / 3 else
                   "within bound" if spread <= metric["bound"] else "TOO WIDE")
        print(f"{workload:10s} {name:12s} median={median:.6g} {metric['unit']} "
              f"q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} bound={metric['bound']} {verdict}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    record = {"seconds": seconds, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in seed_range(args.seeds):
            result, env = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "result": result, "environment": env})
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed_frac={result['failed'] / result['attempted']:.4f} "
                  f"({result['failed']}/{result['attempted']}) {shown}", flush=True)
        summary = summarize(workload, runs, bench["end_to_end"])
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
