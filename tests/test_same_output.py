"""The same-output tool records CLI runs and reports how two records differ."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def record(**fields):
    run = {"config": "experiment = collision\n", "exit": 0, "error": None,
           "stdout": "ok\n", "stderr": "", "warnings": [],
           "csv": "t,rho_ee\n0,1\n0.5,0.25\n# fitted_order = 1.5\n"}
    run.update(fields)
    return {"scan:1:s000_collision": run}


def compare(tmp_path, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a), encoding="utf-8")
    pb.write_text(json.dumps(b), encoding="utf-8")
    return run_tool("compare", str(pa), str(pb))


def test_compare_reports_csv_columns_and_notes_apart(tmp_path):
    moved = record(csv="t,rho_ee\n0,1\n0.5,0.2500000001\n# fitted_order = 1.6\n",
                   stdout="ok again\n")
    done = compare(tmp_path, record(), moved)
    assert done.returncode == 0  # stdout and CSV text are left to the reader
    assert "stdout, csv differ" in done.stdout
    assert "# fitted_order = 1.5  ->  # fitted_order = 1.6" in done.stdout
    assert "max |delta| per column: rho_ee 1e-10" in done.stdout
    assert "1 differ, 0 in exit code" in done.stdout


def test_compare_fails_on_exit_code_stderr_warnings_or_a_missing_run(tmp_path):
    for changed in (record(exit=3), record(stderr="numeric guard: x\n"),
                    record(warnings=["RuntimeWarning: trace deviation"]), {}):
        done = compare(tmp_path, record(), changed)
        assert done.returncode == 1, changed
    assert compare(tmp_path, record(), record()).returncode == 0


def test_record_runs_a_workload_through_the_cli(tmp_path):
    out = tmp_path / "exact.json"
    done = run_tool("record", str(out), "exact:1")
    assert done.returncode == 0, done.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))
    assert len(runs) == 8
    assert all(r["exit"] == 0 and r["csv"].startswith("t,") for r in runs.values())
    assert run_tool("compare", str(out), str(out)).returncode == 0


def test_compare_names_the_largest_column_difference_over_all_runs(tmp_path):
    (run,) = record().values()
    a = {"scan:1:s000": run, "scan:2:s001": run}
    b = {
        "scan:1:s000": {**run, "csv": "t,rho_ee\n0,1.000001\n0.5,0.25\n# fitted_order = 9\n"},
        "scan:2:s001": {**run, "csv": "t,rho_ee\n0,1\n0.5001,0.25\n# fitted_order = 1.5\n"},
    }
    done = compare(tmp_path, a, b)
    assert done.returncode == 0
    # the '#' line moved by 7.5, but only the table's columns count
    assert "largest CSV column |delta|: 0.0001 in scan:2:s001, column t\n" in done.stdout
    nan = record(csv="t,rho_ee\n0,nan\n0.5,0.25\n# fitted_order = 1.5\n")
    assert "largest CSV column |delta|: inf in scan:1:s000_collision, column rho_ee" in (
        compare(tmp_path, record(), nan).stdout
    )
    assert "largest CSV column |delta|: 0\n" in compare(tmp_path, record(), record()).stdout


def test_compare_names_the_largest_stdout_number_change(tmp_path):
    summary = "markov_defect_max={} entropy_peak=0.314862 at_t=0.078200\n"
    a = {"scan:1:s000": record(stdout=summary.format("6.66e-16"))["scan:1:s000_collision"],
         "scan:1:s001": record(stdout=summary.format("1e-15"))["scan:1:s000_collision"]}
    b = {"scan:1:s000": {**a["scan:1:s000"], "stdout": summary.format("7.77e-16")},
         "scan:1:s001": {**a["scan:1:s001"], "stdout": summary.format("1.5e-15")}}
    done = compare(tmp_path, a, b)
    assert done.returncode == 0
    assert "  max |delta| in stdout numbers: 1.1e-16\n" in done.stdout
    assert "largest stdout number |delta|: 5e-16 in scan:1:s001\n" in done.stdout
    # a changed word, or a changed line count, is not a roundoff change
    for changed in ("markov_defect_maximum=6.66e-16 entropy_peak=0.314862 at_t=0.078200\n",
                    summary.format("6.66e-16") + "extra\n"):
        assert "largest stdout number |delta|: inf in scan:1:s000_collision\n" in compare(
            tmp_path, record(stdout=summary.format("6.66e-16")), record(stdout=changed)
        ).stdout
    assert "largest stdout number |delta|: 0\n" in compare(tmp_path, record(), record()).stdout
