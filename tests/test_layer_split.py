"""The layer-split tool times named package functions over replayed runs."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_split.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_layer_split_times_private_functions_on_a_two_run_list():
    done = run_tool("trajectory:1", "--runs", "2", "--passes", "2",
                    "--functions", "experiments._csv", "channel.check_states")
    assert done.returncode == 0, done.stderr
    head, *rows = done.stdout.splitlines()
    assert head == "trajectory:1, first 2 runs: 2 passes, median of each, in ms"
    times = {row.split()[0]: float(row.split()[1]) for row in rows}
    assert list(times) == ["pass", "experiments._csv", "channel.check_states"]
    # both runs write a CSV of checked states, and each part is inside the pass
    assert 0.0 < times["experiments._csv"] < times["pass"]
    assert 0.0 < times["channel.check_states"] < times["pass"]


def test_layer_split_refuses_a_spec_without_seeds():
    done = run_tool("trajectory")
    assert done.returncode != 0
    assert "expected workload:seed" in done.stderr


def test_layer_split_times_a_runner_called_through_the_dispatch_table():
    # run_experiment calls the runners through experiments._RUNNERS, so only
    # rebinding that dict's entries times them; scan's first runs are
    # kraus-report runs
    done = run_tool("scan:1", "--runs", "2", "--passes", "1",
                    "--functions", "experiments._run_kraus_report", "experiments._run_collision")
    assert done.returncode == 0, done.stderr
    rows = [row.split() for row in done.stdout.splitlines()[1:]]
    assert [(row[0], row[-2], row[-1]) for row in rows] == [
        ("pass", "2", "runs"),
        ("experiments._run_kraus_report", "2", "calls"),
        ("experiments._run_collision", "0", "calls"),
    ]
    assert 0.0 < float(rows[1][1]) < float(rows[0][1])
    assert float(rows[2][1]) == 0.0


def test_layer_split_defaults_show_the_exact_workload_layers():
    # exact runs the joint chain and the microscopic grid: both show by
    # default, and so do the solver's evaluations; scan's two largest layers,
    # the ordering probe and the coarse map, have their rows too
    done = run_tool("exact:1", "--passes", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()[1:]
    rows = {row.split()[0]: row.split() for row in lines}
    # the names' column fits the longest, microscopic.evolve_microscopic, so
    # every row's right-aligned time and share end in the same columns
    assert len({(re.match(r"\S+ +\S+", row).end(), row.index("%")) for row in lines}) == 1
    assert list(rows) == ["pass", "experiments._csv", "channel.check_states", "channel.propagate",
                          "model.ordering_residual", "model.coarse_map",
                          "chain.step_chain", "microscopic.emitter_spectrum",
                          "microscopic.evolve_microscopic", "microscopic._pole_sums"]
    for name in ("chain.step_chain", "microscopic.emitter_spectrum",
                 "microscopic.evolve_microscopic", "microscopic._pole_sums"):
        assert 0.0 < float(rows[name][1]) < float(rows["pass"][1])
        assert int(rows[name][-2]) > 0
