"""End-to-end tests of the CLI experiments, CSV formats, and exit codes."""

import io
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import timebins
import timebins.channel as channel
import timebins.experiments as experiments
from timebins.channel import DensityMatrix, iterate_channel
from timebins.cli import main
from timebins.config import parse_config
from timebins.errors import GuardError, StateError
from timebins.experiments import fit_order
from timebins.lindblad import LindbladModel, analytic_oracle, integrate_rk4
from timebins.model import coarse_map, truncated_oscillator, two_level_system

from oracle import csv_text


def run_cli(tmp_path, config_text, name="run"):
    cfg = tmp_path / f"{name}.cfg"
    out = tmp_path / f"{name}.csv"
    cfg.write_text(config_text, encoding="utf-8")
    code = main(["--config", str(cfg), "--out", str(out)])
    return code, out


def child_env():
    # the child may run elsewhere, where a relative PYTHONPATH entry such as
    # "src" resolves to nothing: put the package's own source root first
    src = str(Path(timebins.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_fit_order_exact_power_laws():
    dts = [0.1, 0.05, 0.025, 0.0125]
    quadratic = [(dt, 3.0 * dt**2) for dt in dts]
    assert fit_order(quadratic) == pytest.approx(2.0, abs=1e-6)
    three_halves = [(dt, 0.7 * dt**1.5) for dt in dts]
    assert fit_order(three_halves) == pytest.approx(1.5, abs=1e-6)
    flat = [(dt, 0.2) for dt in dts]
    assert fit_order(flat) == pytest.approx(0.0, abs=1e-9)


def test_fit_order_degenerate_inputs():
    with pytest.raises(GuardError):
        fit_order([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(GuardError):
        fit_order([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])


def test_collision_run_summary_and_csv(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "experiment = collision\ndt = 0.01\nt_final = 1\n"
    )
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("rho_ee=0.367265 analytic=0.367879")

    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho_gg,rho_ee,re_rho_eg,im_rho_eg,trace,purity"
    assert len(lines) == 102  # header + 101 samples
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[2] == pytest.approx(math.cos(0.1) ** 200, abs=1e-12)
    assert last[5] == pytest.approx(1.0, abs=1e-12)


def test_collision_csv_is_deterministic(tmp_path):
    text = "experiment = collision\ndt = 0.02\nt_final = 0.5\n"
    _, first = run_cli(tmp_path, text, name="a")
    _, second = run_cli(tmp_path, text, name="b")
    assert first.read_bytes() == second.read_bytes()


def test_a_shorter_csv_written_over_a_longer_one_leaves_only_its_bytes(tmp_path):
    short = "experiment = collision\ndt = 0.02\nt_final = 0.1\n"
    _, fresh = run_cli(tmp_path, short, name="fresh")
    _, out = run_cli(tmp_path, "experiment = collision\ndt = 0.02\nt_final = 2\n")
    longer = out.stat().st_size
    _, out = run_cli(tmp_path, short)
    assert out.stat().st_size < longer
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("target", ["/dev/stdout", "/dev/null"])
def test_a_csv_goes_to_a_pipe_or_to_dev_null(tmp_path, target):
    # neither is a regular file: the run still exits 0 and prints its summary
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = collision\ndt = 0.02\nt_final = 0.1\n", encoding="utf-8")
    _, fresh = run_cli(tmp_path, cfg.read_text(encoding="utf-8"), name="fresh")
    proc = subprocess.run(
        [sys.executable, "-m", "timebins", "--config", str(cfg), "--out", target],
        env=child_env(),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    csv = fresh.read_bytes() if target == "/dev/stdout" else b""
    assert proc.stdout.startswith(csv)
    assert proc.stdout.count(b"\n") == csv.count(b"\n") + 1  # the summary


def test_collision_dephasing_summary(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path, "experiment = collision\nsystem = dephasing\ndt = 0.01\nt_final = 1\n"
    )
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("abs_rho_eg=0.303266 analytic=0.303265")


@pytest.mark.parametrize(
    "text",
    [
        "experiment = collision\nsystem = oscillator3\n",
        "experiment = collision\nomega0 = 1\n",
        "experiment = lindblad\nsystem = tls-driven\n",
    ],
    ids=["oscillator3", "omega0", "drive"],
)
def test_run_without_a_closed_form_prints_trace_and_purity(tmp_path, capsys, text):
    code, out = run_cli(tmp_path, text)
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("final_trace=1.000000 final_purity=")
    last = [float(x) for x in out.read_text().splitlines()[-1].split(",")]
    assert summary.endswith(f"final_purity={last[6]:.6f}")


def test_oscillator3_lindblad_run_follows_the_ladder_cascade(tmp_path, capsys):
    # from |2>: p2 = e^{-2t}, and p1 = 2 e^{-t} (1 - e^{-t}) is fed by it
    code, out = run_cli(tmp_path, "experiment = lindblad\nsystem = oscillator3\n")
    assert code == 0
    t, p0, p1 = (float(x) for x in out.read_text().splitlines()[-1].split(",")[:3])
    assert t == 1.0
    p2 = math.exp(-2.0)
    assert p1 == pytest.approx(2.0 * (math.exp(-1.0) - p2), abs=1e-8)
    assert p0 == pytest.approx(1.0 - 2.0 * math.exp(-1.0) + p2, abs=1e-8)


def test_lindblad_run(tmp_path, capsys):
    code, out = run_cli(tmp_path, "experiment = lindblad\ndt = 0.01\nt_final = 1\n")
    assert code == 0
    summary = capsys.readouterr().out.strip()
    assert "rho_ee=0.367879" in summary
    rows = out.read_text().splitlines()
    assert rows[0].startswith("t,rho_gg,rho_ee")


def test_joint_chain_csv_has_entropy_columns(tmp_path, capsys):
    dt = math.log(2.0) / 6.0
    code, out = run_cli(
        tmp_path,
        f"experiment = joint-chain\ndt = {dt}\nn_bins = 12\nn_max = 1\n",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "t,rho_gg,rho_ee,re_rho_eg,im_rho_eg,trace,purity,entropy,markov_defect"
    )
    summary = capsys.readouterr().out.strip()
    assert "markov_defect_max=" in summary
    peak = float(summary.split("entropy_peak=")[1].split()[0])
    assert peak == pytest.approx(math.log(2.0), abs=2e-3)


def test_convergence_run(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "experiment = convergence\ndt = 0.1\nt_final = 5\n"
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dt,max_error"
    assert len(lines) == 6  # header + 4 rows + fitted order
    assert lines[-1].startswith("# fitted_order = ")
    order = float(lines[-1].split("=")[1])
    assert order == pytest.approx(1.0, abs=0.15)
    # dt column strictly decreasing
    dts = [float(row.split(",")[0]) for row in lines[1:5]]
    assert dts == sorted(dts, reverse=True)
    assert "fitted_order=" in capsys.readouterr().out


def test_convergence_far_from_the_small_dt_regime_exits_1(tmp_path, capsys):
    # bins of three lifetimes and less: the error is not yet first order
    code, _ = run_cli(tmp_path, "experiment = convergence\ndt = 3\nt_final = 12\n")
    assert code == 1
    order = float(capsys.readouterr().out.split("fitted_order=")[1].split()[0])
    assert abs(order - 1.0) > 0.15


def test_convergence_requires_oracle(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path, "experiment = convergence\nsystem = oscillator3\n"
    )
    assert code == 2


def test_kraus_report_run(tmp_path, capsys):
    code, out = run_cli(tmp_path, "experiment = kraus-report\ndt = 0.04\n")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dt,r0,r1,r2,completeness_defect"
    assert len(lines) == 5
    for row in lines[1:]:
        dt, r0, r1, r2, defect = (float(x) for x in row.split(","))
        assert r2 <= 1e-13
        assert defect <= 1e-12
        np.testing.assert_allclose(
            r1, math.sqrt(dt) - math.sin(math.sqrt(dt)), rtol=1e-6
        )
    summary = capsys.readouterr().out
    r1_order = float(summary.split("r1_order=")[1].split()[0])
    assert r1_order == pytest.approx(1.5, abs=0.05)


def test_kraus_report_far_from_the_small_dt_regime_exits_1(tmp_path, capsys):
    # r1 = sqrt(dt) - sin(sqrt(dt)) is O(dt^1.5) only once sqrt(dt) is small
    code, _ = run_cli(tmp_path, "experiment = kraus-report\ndt = 16\n")
    assert code == 1
    r1_order = float(capsys.readouterr().out.split("r1_order=")[1].split()[0])
    assert r1_order < experiments.R1_ORDER_MIN


def test_kraus_report_flags_an_incomplete_family(tmp_path, capsys, monkeypatch):
    # a one-bin map 1e-9 off unitary leaves sum K^dag K off 1 by about 2e-9
    def scaled(system, params):
        return (1.0 + 1e-9) * coarse_map(system, params)

    monkeypatch.setattr(experiments, "coarse_map", scaled)
    code, _ = run_cli(tmp_path, "experiment = kraus-report\n")
    assert code == 1
    defect = float(capsys.readouterr().out.split("completeness_defect_max=")[1])
    assert defect == pytest.approx(2e-9, rel=1e-3)


def test_kraus_report_driven_qubit_checks_the_r2_order(tmp_path, capsys, monkeypatch):
    # with a drive K2 is O(dt^2), not zero: the fitted r2 order is checked
    text = "experiment = kraus-report\nsystem = tls-driven\ndt = 0.01\n"
    code, out = run_cli(tmp_path, text)
    assert code == 0
    summary = capsys.readouterr().out
    r2_order = float(summary.split("r2_order=")[1].split()[0])
    assert r2_order == pytest.approx(2.0, abs=0.01)
    r2 = [float(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
    assert r2[0] > 1e-6

    monkeypatch.setattr(experiments, "R2_ORDER_MIN", 2.1)
    assert run_cli(tmp_path, text)[0] == 1


def test_kraus_report_undriven_qubit_keeps_the_exact_zero_check(
    tmp_path, capsys, monkeypatch
):
    text = "experiment = kraus-report\nomega0 = 0.8\ndt = 0.01\n"
    assert run_cli(tmp_path, text)[0] == 0
    assert "r2_order" not in capsys.readouterr().out

    monkeypatch.setattr(experiments, "R2_MAX_QUBIT", -1.0)
    assert run_cli(tmp_path, text)[0] == 1


def test_ordering_probe_driven_and_free(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "experiment = ordering-probe\nsystem = tls-driven\ndt = 0.1\n"
    )
    assert code == 0
    assert "threshold=1.4" in capsys.readouterr().out
    assert out.read_text().splitlines()[-1].startswith("# fitted_order = ")

    code, _ = run_cli(tmp_path, "experiment = ordering-probe\ndt = 0.1\n")
    assert code == 0
    assert "threshold=1.9" in capsys.readouterr().out


def test_ordering_probe_undriven_dephasing_checks_the_exact_residual(
    tmp_path, capsys, monkeypatch
):
    # H = omega0 sigma^dag sigma commutes with the coupling: the map is exact
    text = "experiment = ordering-probe\nsystem = dephasing\nomega0 = 0.7\ndt = 0.1\n"
    code, out = run_cli(tmp_path, text)
    assert code == 0
    summary = capsys.readouterr().out
    assert "fitted_order" not in summary
    residual_max = float(summary.split("residual_max=")[1].split()[0])
    assert residual_max <= 1e-12
    lines = out.read_text().splitlines()
    assert len(lines) == 6 and lines[-1].startswith("# residual_max = ")

    monkeypatch.setattr(experiments, "ORDERING_MAX_EXACT", -1.0)
    assert run_cli(tmp_path, text)[0] == 1


def test_ordering_probe_driven_dephasing_keeps_the_order_fit(tmp_path, capsys):
    text = "experiment = ordering-probe\nsystem = dephasing\ndrive = 1\ndt = 0.1\n"
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "fitted_order=" in capsys.readouterr().out
    assert out.read_text().splitlines()[-1].startswith("# fitted_order = ")


def test_joint_chain_builds_the_one_bin_unitary_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = experiments.coarse_map
    monkeypatch.setattr(
        experiments, "coarse_map", lambda *args: calls.append(args) or original(*args)
    )
    code, _ = run_cli(tmp_path, "experiment = joint-chain\nn_bins = 4\n")
    assert code == 0
    assert len(calls) == 1


def count_check_states(monkeypatch):
    """Route every package binding of channel.check_states through a counter."""
    calls = []
    original = channel.check_states

    def counted(stack):
        calls.append(len(stack))
        return original(stack)

    for module in [m for k, m in sys.modules.items() if k.startswith("timebins")]:
        if getattr(module, "check_states", None) is original:
            monkeypatch.setattr(module, "check_states", counted)
    return calls


def test_a_joint_chain_checks_its_reduced_states_in_one_call(tmp_path, capsys, monkeypatch):
    calls = count_check_states(monkeypatch)
    counts = {}
    for n_bins in (2, 8):
        start = len(calls)
        code, _ = run_cli(tmp_path, f"experiment = joint-chain\nn_bins = {n_bins}\n")
        assert code == 0
        counts[n_bins] = calls[start:]
    assert len(counts[2]) == len(counts[8])
    assert 9 in counts[8]  # the 9 reduced states, in one stack


def test_no_experiment_calls_np_kron(tmp_path, capsys, monkeypatch):
    def kron(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", kron)
    for text in (
        "experiment = lindblad\nsystem = oscillator3\nomega0 = 0.5\n",
        "experiment = joint-chain\nsystem = tls-driven\ndrive = 0.7\nn_bins = 3\n",
        "experiment = kraus-report\nn_max = 2\n",
        "experiment = ordering-probe\nsystem = dephasing\n",
    ):
        code, out = run_cli(tmp_path, text)
        assert code in (0, 1) and out.exists()


def test_a_bad_reduced_state_names_the_earliest_collision(tmp_path, capsys, monkeypatch):
    # scale the reduced state of collisions 3 and 5, as a broken read would:
    # the reduced state of collision 3 fails its trace check first
    collisions = []
    original = experiments.step_chain

    def step_chain(state, u):
        state = original(state, u)
        collisions.append(state)
        scale = {3: 2.0, 5: 3.0}.get(len(collisions))
        if scale is not None:
            object.__setattr__(state, "rho", scale * state.rho)
        return state

    monkeypatch.setattr(experiments, "step_chain", step_chain)
    code, out = run_cli(tmp_path, "experiment = joint-chain\nn_bins = 6\ndt = 0.1\n")
    assert code == 3
    assert capsys.readouterr().err == (
        "numeric guard: density matrix trace 1.999999999999999 is not 1\n"
    )
    assert not out.exists()


def test_microscopic_run(tmp_path, capsys):
    code, out = run_cli(
        tmp_path,
        "experiment = microscopic\nhalf_width = 20\nn_modes = 801\n"
        "t_final = 2.5\ndt = 0.005\n",
    )
    assert code == 0
    summary = capsys.readouterr().out.strip()
    rate = float(summary.split("fitted_rate=")[1].split()[0])
    assert rate == pytest.approx(1.0, rel=0.03)
    assert out.read_text().splitlines()[0].startswith("t,rho_gg,rho_ee")


def test_microscopic_narrow_band_fails_tolerance(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path,
        "experiment = microscopic\nhalf_width = 2\nn_modes = 161\n"
        "t_final = 2.5\ndt = 0.005\n",
    )
    assert code == 1
    assert "rel_err=" in capsys.readouterr().out


def test_microscopic_zero_slope_prints_a_positive_zero_rate(tmp_path, capsys):
    # so narrow a band that the emitter does not decay: the fitted slope is 0
    code, _ = run_cli(
        tmp_path, "experiment = microscopic\nhalf_width = 1e-150\nn_modes = 11\n"
    )
    assert code == 1
    assert capsys.readouterr().out.startswith("fitted_rate=0.000000 ")


def test_microscopic_recurrence_guard_exit_code(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path,
        "experiment = microscopic\nhalf_width = 2\nn_modes = 41\nt_final = 200\n",
    )
    assert code == 3
    assert "numeric guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        # the window [0.5, 2.5] / gamma ends at t_final = 0.3, before it starts
        "experiment = microscopic\nt_final = 0.3\n",
        # [0.005, 0.025] holds the two samples 0.01 and 0.02
        "experiment = microscopic\ngamma = 100\n",
        # [0.5, 2.5] holds the two samples 1 and 2
        "experiment = microscopic\nt_final = 3\ndt = 1\n",
    ],
    ids=["t_final", "gamma", "dt"],
)
def test_microscopic_short_fit_window_is_a_config_error(
    tmp_path, capsys, monkeypatch, text
):
    def eigensolve(*args):
        raise AssertionError("the window must be checked before the eigensolve")

    monkeypatch.setattr(experiments, "evolve_microscopic", eigensolve)
    code, out = run_cli(tmp_path, text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "fewer than three samples" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    ["system = tls-driven", "omega0 = 1", "system = dephasing", "system = oscillator3"],
)
def test_microscopic_covers_the_undriven_emitter_only(tmp_path, capsys, line):
    code, out = run_cli(tmp_path, f"experiment = microscopic\n{line}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: microscopic covers the undriven two-level emitter only\n"
    assert not out.exists()


def test_joint_chain_overflow_guard_exit_code(tmp_path, capsys):
    # past 64 bits the count is named by its formula, never formed: at 10**5
    # bins its 47 713 digits cannot be printed, and 3**(10**8) takes minutes
    for n_bins in (24, 100000, 10**8):
        code, _ = run_cli(
            tmp_path, f"experiment = joint-chain\nn_bins = {n_bins}\nn_max = 2\n"
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric guard:")
        assert "Traceback" not in err and len(err) < 200


# Runs past the step cap that numpy could be granted, and the kernel would
# then kill when their memory is touched, run in a child process whose
# address space is limited to ADDRESS_LIMIT: there a run the cap misses fails
# with numpy's own MemoryError message instead of the package's.
ADDRESS_LIMIT = 2 << 30


def run_cli_in_limited_child(tmp_path, config_text):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "run.csv"
    cfg.write_text(config_text, encoding="utf-8")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))

    proc = subprocess.run(
        [sys.executable, "-m", "timebins", "--config", str(cfg), "--out", str(out)],
        env=child_env(),
        preexec_fn=limit,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, out, proc.stderr


@pytest.mark.parametrize(
    "text",
    [
        # 1e14 steps: a 5.7 PiB stack
        "experiment = collision\nt_final = 1e12\ndt = 0.01\n",
        # 1e300 steps: more than an array can index
        "experiment = collision\nt_final = 1e200\ndt = 1e-100\n",
        "experiment = lindblad\nt_final = 1e12\ndt = 0.01\n",
        # t_final / dt overflows to inf
        "experiment = lindblad\nt_final = 1e300\ndt = 1e-300\n",
        "experiment = convergence\nt_final = 1e13\n",
        "experiment = convergence\nt_final = 1e14\n",
        # 1e15 sample times: a 7.1 PiB time grid
        "experiment = microscopic\ndt = 1e-15\nn_modes = 101\n",
        # sizes numpy itself refuses to index, stopped before any array
        "experiment = collision\nn_max = 1000000000000000000000\n",
        "experiment = joint-chain\nn_max = 1000000000000000000000\n",
        "experiment = ordering-probe\nn_max = 1000000000000000000000\n",
        # a chain the amplitude cap admits, whose one-bin unitary would take
        # 2202**2 complex entries
        "experiment = joint-chain\nn_bins = 1\nn_max = 1100\n",
        f"experiment = microscopic\nn_modes = {10**30 + 1}\n",
        f"experiment = microscopic\nn_modes = {2**63 + 1}\n",
        # 1e9 sample times (7.45 GiB) and 1e8 steps (6.4 GB of states)
        "experiment = microscopic\ndt = 1e-9\nn_modes = 101\n",
        "experiment = collision\nt_final = 1e6\n",
    ],
    ids=[
        "collision-alloc",
        "collision-index",
        "lindblad-alloc",
        "lindblad-overflow",
        "convergence-alloc",
        "convergence-index",
        "microscopic-alloc",
        "collision-n-max",
        "joint-chain-n-max",
        "ordering-probe-n-max",
        "joint-chain-unitary",
        "microscopic-n-modes",
        "microscopic-n-modes-past-int64",
        "microscopic-limited",
        "collision-limited",
    ],
)
def test_run_too_long_to_hold_exits_3(tmp_path, capsys, request, text):
    if request.node.callspec.id.endswith("-limited"):
        code, out, err = run_cli_in_limited_child(tmp_path, text)
        assert "steps cannot be held in memory" in err
    else:
        code, out = run_cli(tmp_path, text)
        err = capsys.readouterr().err
    if request.node.callspec.id == "joint-chain-unitary":
        assert "one-bin unitary" in err
    assert code == 3
    assert err.startswith("numeric guard:")
    assert "Traceback" not in err and len(err) < 200
    assert not out.exists()


def test_invalid_computed_state_exits_3(tmp_path, capsys):
    # RK4 steps of dt = 1.2 on oscillator3 are stable, but not positive: the
    # states leave the density matrices
    text = "experiment = lindblad\nsystem = oscillator3\ndt = 1.2\nt_final = 10\n"
    code, out = run_cli(tmp_path, text)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric guard: density matrix has negative eigenvalue")
    assert not out.exists()


def test_an_unstable_rk4_step_exits_3_without_a_warning(tmp_path, capsys):
    text = "experiment = lindblad\ngamma = 1e4\ndt = 0.05\nt_final = 2\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, text)
    assert code == 3
    assert capsys.readouterr().err == (
        "numeric guard: RK4 step unstable at gamma*dt = 500, max|lambda|*dt = 500: "
        "spectral radius 2.583e+09 > 1; reduce dt\n"
    )
    assert caught == []
    assert not out.exists()


def test_an_unstable_rk4_step_names_a_drive_that_is_too_fast(tmp_path, capsys):
    # gamma dt = 1 is inside RK4's stability region; the drive's Rabi
    # frequency puts the largest |lambda| dt of L dt at 4.06, outside it
    text = "experiment = lindblad\nsystem = tls-driven\ndrive = 2\ndt = 1\n"
    code, out = run_cli(tmp_path, text)
    assert code == 3
    assert capsys.readouterr().err == (
        "numeric guard: RK4 step unstable at gamma*dt = 1, max|lambda|*dt = 4.062: "
        "spectral radius 6.872 > 1; reduce dt\n"
    )
    assert not out.exists()


def _bad_density_matrix(monkeypatch):
    DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def _bad_collision(monkeypatch):
    # each step gains 2e-11 of trace: no warning, but the trace is off by
    # more than 1e-10 after six steps
    grow = (1.0 + 1e-11) * np.eye(2, dtype=complex)[None]
    iterate_channel(grow, DensityMatrix.pure([0.0, 1.0]), 10)


def _bad_rk4(monkeypatch):
    # a stable RK4 step of gamma dt = 1.2 on oscillator3 leaves a negative
    # population
    model = LindbladModel(truncated_oscillator(), 1.0)
    integrate_rk4(model, DensityMatrix.pure([0.0, 0.0, 1.0]), 1.2, 9)


def _bad_closed_form(monkeypatch):
    # a negative rate grows the excited population past 1
    analytic_oracle("spontaneous", -1.0, [1.0], DensityMatrix.pure([0.0, 1.0]))


def _bad_microscopic(monkeypatch):
    def survival(system, times):
        return np.full(len(times), 1.5)

    monkeypatch.setattr(experiments, "evolve_microscopic", survival)
    cfg = parse_config("experiment = microscopic\nn_modes = 41\nt_final = 3\n")
    experiments._RUNNERS["microscopic"](cfg)


@pytest.mark.parametrize(
    "run",
    [_bad_density_matrix, _bad_collision, _bad_rk4, _bad_closed_form, _bad_microscopic],
    ids=["DensityMatrix", "iterate_channel", "rk4", "analytic_oracle", "microscopic"],
)
def test_every_failed_state_check_is_a_state_error(monkeypatch, run):
    with pytest.raises(StateError, match="^density matrix") as caught:
        run(monkeypatch)
    assert isinstance(caught.value, ValueError)


def test_a_state_error_exits_3(tmp_path, capsys, monkeypatch):
    def runner(cfg):
        raise StateError("density matrix has negative eigenvalue -1.000e+00")

    monkeypatch.setitem(experiments._RUNNERS, "collision", runner)
    code, out = run_cli(tmp_path, "experiment = collision\n")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "numeric guard: density matrix has negative eigenvalue -1.000e+00\n"
    assert not out.exists()


def test_a_plain_value_error_is_not_read_as_a_failed_state(tmp_path, monkeypatch):
    # only the type marks a failed state check, not the text of the message
    def runner(cfg):
        raise ValueError("density matrix has negative eigenvalue -1.000e+00")

    monkeypatch.setitem(experiments._RUNNERS, "collision", runner)
    with pytest.raises(ValueError, match="density matrix"):
        run_cli(tmp_path, "experiment = collision\n")


def test_kraus_report_needs_two_bin_photons(tmp_path, capsys):
    code, out = run_cli(tmp_path, "experiment = kraus-report\nn_max = 1\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_max >= 2" in err
    assert not out.exists()


def test_config_error_exit_code(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "experiment = warp\n")
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_a_drive_on_oscillator3_exits_2(tmp_path, capsys):
    text = "experiment = collision\nsystem = oscillator3\ndrive = 1\n"
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err == "config error: oscillator3 takes no drive\n"
    assert not out.exists()


def test_csv_write_error_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = collision\nt_final = 0.1\n", encoding="utf-8")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "absent" / "run.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error:") and "absent" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "line", ["gamma = nan", "omega0 = nan", "dt = inf", "drive = inf", "t_final = inf"]
)
def test_non_finite_config_value_exit_code(tmp_path, capsys, line):
    code, _ = run_cli(tmp_path, f"experiment = collision\n{line}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        "experiment = collision\ngamma = 1e200\ndt = 1e200\n",
        "experiment = joint-chain\ngamma = 1e200\ndt = 1e200\n",
        "experiment = collision\nomega0 = 1e200\ndt = 1e200\n",
        "experiment = joint-chain\nsystem = tls-driven\ndrive = -1e200\ndt = 1e200\n",
        "experiment = kraus-report\nsystem = oscillator3\nomega0 = 1e308\n",
    ],
    ids=["collision-gamma", "joint-chain-gamma", "collision-omega0", "joint-chain-drive",
         "oscillator3-omega0"],
)
def test_generator_overflow_is_a_config_error(tmp_path, capsys, text):
    # each value is finite, but their product in the one-bin generator is not
    code, out = run_cli(tmp_path, text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "dt overflows" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, err",
    [
        ("experiment = convergence\nsystem = dephasing\ndt = 5e-324\nt_final = 1.1e-321\n",
         "config error: dt = 4.94066e-324 underflows to 0 in a sweep's finer bins\n"),
        ("experiment = microscopic\nhalf_width = 5e-324\n",
         "config error: half_width = 4.94066e-324: grid spacing too fine to square\n"),
        ("experiment = microscopic\nhalf_width = 1e-160\nn_modes = 11\n",
         "config error: half_width = 1e-160: grid spacing too fine to square\n"),
        ("experiment = joint-chain\ndt = 1e308\nn_bins = 3\n",
         "config error: n_bins * dt overflows to infinity\n"),
    ],
    ids=["sweep-dt-underflow", "grid-spacing-zero", "grid-spacing-subnormal",
         "chain-times-overflow"],
)
def test_a_size_past_the_float_range_is_a_config_error(tmp_path, capsys, text, err):
    # without its refusal, each ends in a traceback or a RuntimeWarning
    code, out = run_cli(tmp_path, text)
    assert (code, capsys.readouterr().err) == (2, err)
    assert not out.exists()


def test_a_decay_past_the_float_range_reads_zero(tmp_path, capsys):
    # gamma t overflows in the closed form, whose exponential is 0 all the same
    code, out = run_cli(tmp_path, "experiment = collision\ngamma = 1e308\nt_final = 2.1\n")
    assert code == 0
    assert capsys.readouterr().out.startswith("rho_ee=0.000000 analytic=0.000000 ")


def test_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"experiment = collision\n# \xff\n")
    out = tmp_path / "run.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: 'utf-8' codec can't decode byte 0xff in position 25: invalid start byte\n"
    )
    assert captured.out == "" and not out.exists()


USAGE = "usage: timebins [-h] --config CONFIG [--out OUT]\n"
ERROR = USAGE + "timebins: error: "


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (
            ["--help"],
            0,
            "out",
            USAGE
            + "\nRun one named collision-model experiment from a config file.\n\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --config CONFIG  path to a flat 'key = value' config file\n"
            "  --out OUT        override the configured output CSV path\n",
        ),
        ([], 2, "err", ERROR + "the following arguments are required: --config\n"),
        (["--config", "x", "--bogus"], 2, "err", ERROR + "unrecognized arguments: --bogus\n"),
    ],
    ids=["help", "no-config", "unknown-argument"],
)
def test_command_line_usage_and_errors(capsys, monkeypatch, argv, code, stream, text):
    # the parser is built once, so a second call must print the same text
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == code
        assert getattr(capsys.readouterr(), stream) == text


def test_console_script_and_cross_process_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = collision\ndt = 0.02\nt_final = 0.5\n", encoding="utf-8")
    env = child_env()

    outputs = []
    for name in ("p1.csv", "p2.csv"):
        proc = subprocess.run(
            [sys.executable, "-m", "timebins", "--config", str(cfg), "--out", name],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("rho_ee=")
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_out_path_from_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "experiment = collision\nt_final = 0.1\nout_path = named.csv\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "named.csv").exists()


SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]
# next to the fixed/scientific switches at exponents -5/-4 and 16/17; next to
# a power of ten, where log10 is one off (1e23) or the 17 digits carry into
# the next decade (1e-14, 1e98); near-carries; an exact rounding tie; two
# values whose exact 17-digit scaling lies 1.2e-17 above and 5.6e-17 below a
# tie, closer than double-double arithmetic resolves (found with Fractions);
# an integer with zeros before the point; a signed zero and subnormals
EDGE_VALUES = [
    1e-5, 1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e16, 1e17,
    99999999999999999.0, 1e23, 1e-14, 1e98, 0.99999999999999994, 9.9999999999999995e-5,
    1234567890123456.25, 6.83280278535067e-11, 4.95286445202696e-09,
    100.0, -0.0, 4e-320, -2.2250738585072e-310,
]
# the smallest 7-column table whose one block goes through the kernel
KERNEL_ROWS = -(-experiments.CSV_KERNEL_MIN_CELLS // 7)


@pytest.mark.parametrize("rows", [
    0,
    # fixed ids, so that re-tuning CSV_KERNEL_MIN_CELLS keeps the names
    pytest.param(KERNEL_ROWS - 1, id="below-kernel"),
    pytest.param(KERNEL_ROWS, id="at-kernel"),
    1023, 1024, 1025,
])
def test_csv_text_matches_row_by_row_formatting(rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(-300, 300, (rows, 7))
    if rows:
        table[0, 1:] = SPECIAL_VALUES
        table[-1, :-1] = SPECIAL_VALUES[::-1]
        table.flat[7 : 7 + len(EDGE_VALUES)] = EDGE_VALUES
    header = ["t", "a", "b", "c", "d", "e", "f"]
    # the note goes through bytes '%', the oracle through str.format
    notes = [("fitted_order", 1.0000000123), ("residual_max", 5e-324),
             ("residual_max", 0.0), ("residual_max", -0.0), ("fitted_order", math.nan)]
    for note in (None, *notes):
        out = io.BytesIO()
        experiments._csv(out, header, table.T, note)
        assert out.getvalue() == csv_text(header, table, note).encode("ascii")


def test_format_cells_matches_percent_on_random_bit_patterns():
    # 10**5 doubles drawn as uniform bit patterns: every exponent, both
    # signs, subnormals, infinities and NaNs
    bits = np.random.default_rng(19).integers(0, 2**64, 7 * 15000, dtype=np.uint64)
    table = bits.view(np.float64).reshape(-1, 7)
    expected = "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())
    assert experiments._format_cells(table) == expected.encode("ascii")


def test_csv_peak_memory_does_not_grow_with_the_table(tmp_path):
    # each block is stacked from the columns and goes to the file as soon as
    # it is formatted, so a 10**5-row table, 14 MB of CSV, peaks at what one
    # 1024-row block takes
    header = ["t", "a", "b", "c", "d", "e", "f"]
    experiments._csv(io.BytesIO(), header, np.ones((7, 1024)))  # builds the kernel's tables
    peaks = []
    for rows in (1024, 10**4, 10**5):
        table = np.random.default_rng(rows).standard_normal((rows, 7))
        with open(tmp_path / "table.csv", "wb") as out:
            tracemalloc.start()
            try:
                experiments._csv(out, header, table.T)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / "table.csv").stat().st_size > 100 * rows
    assert max(peaks) <= 1.1 * min(peaks), peaks


@pytest.mark.parametrize("text, bound", [
    ("experiment = collision\nsystem = tls-driven\ndrive = 0.5\n", 150),
    ("experiment = lindblad\nsystem = oscillator3\nomega0 = 0.5\n", 250),
], ids=["collision", "lindblad"])
def test_a_long_run_traces_only_its_stack_and_three_columns(tmp_path, capsys, text, bound):
    # what scales with a run is its (steps+1, d, d) stack, 16 d^2 bytes a step
    # (d = 2, 3), and its time, trace and purity columns, 8 + 16 + 16 (the last
    # two views of complex results): 104 and 184 bytes, with ~17 more for one
    # block's formatting at 10**5 steps; the table and the check's copies are
    # one block each, never the run's length
    steps = 10**5
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, text + f"dt = 0.001\nt_final = {steps * 0.001}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0 and len(out.read_bytes().splitlines()) == steps + 2
    assert peak / steps <= bound, peak / steps
