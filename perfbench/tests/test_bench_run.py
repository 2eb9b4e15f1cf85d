import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(run.__file__).resolve().parent.parent


def test_benchmark_json_keeps_its_format():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert bench["paths"] == ["perfbench"] and 1 <= bench["run_seconds"] <= 60
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_tail_percentile_keeps_ten_runs_beyond_it():
    assert run.tail_percentile(24) == 58
    assert run.tail_percentile(72) == 86
    assert run.tail_percentile(918) == 98
    assert run.tail_percentile(100000) == 99
    for n in (24, 72, 918):
        p = run.tail_percentile(n)
        assert n - run.math.ceil(p / 100 * n) >= 10
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def bench_copy(tmp_path, with_program):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    return tmp_path


def bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_fails_without_the_program(tmp_path):
    proc = bench(bench_copy(tmp_path, with_program=False), 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_carries_the_declared_metrics(tmp_path):
    cwd = bench_copy(tmp_path, with_program=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(cwd, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        metrics = {name: m["unit"] for name, m in result["metrics"].items()}
        assert metrics == {m["name"]: m["unit"] for m in declared[kind]}


def test_one_traced_pass_checks_and_times_every_run(tmp_path):
    import timebins.cli as cli

    runs = run.workloads.build("exact", 1)[3:5] + run.workloads.build("scan", 1)[:3]
    plan = run.write_plan(runs, tmp_path)
    plain, p = run.run_pass(cli, plan, run.tracing.Tracer(), traced_first=True)
    for result in (plain, p):
        assert [o.failed for _, o in result.outcomes] == [False] * len(runs)
        assert len(result.run_times) == len(runs)
    assert plain.layers == {} and p.layers["cli.main"][0] == len(runs)
    assert p.wall == sum(p.run_times)
    metrics = run.layer_metrics(p)
    assert metrics["chain.step_chain.calls"] == 11 + 12
    assert metrics["config.parse_config.calls"] == len(runs)
    assert metrics["experiments.csv_bytes"] > 0
    assert 0 < sum(run.module_split(p).values()) <= 1 + 1e-9
