"""Every function the benchmark tracer wraps must exist in the package, and
the CLI must reach the package's work through those names."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import timebins.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def positional(fn):
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return sum(p.kind in kinds for p in inspect.signature(fn).parameters.values())


def test_every_traced_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    targets = {}
    for module, path, name in tracing.TARGETS:
        owner = importlib.import_module(f"timebins.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"timebins.{module}.{path}"
        targets[name] = owner.__dict__[attr]
    # a counter is called with the traced function's arguments, so it must take
    # as many positional parameters as that function (self included)
    for name, (_, count) in tracing.COUNTERS.items():
        assert positional(count) == positional(targets[name]), name


def test_cli_runs_go_through_the_traced_names(tmp_path, capsys):
    tracing = load_tracing()
    configs = {
        "collision": "t_final = 0.2",
        "lindblad": "t_final = 0.25\ndt = 0.005",
        "convergence": "t_final = 0.2",
        "joint-chain": "n_bins = 4",
        "ordering-probe": "system = tls-driven",
        "microscopic": "n_modes = 101\nt_final = 3",
        "kraus-report": "",
    }
    runs = {}
    with tracing.Tracer() as tracer:
        for experiment, extra in configs.items():
            cfg = tmp_path / f"{experiment}.cfg"
            cfg.write_text(f"experiment = {experiment}\n{extra}\n", encoding="utf-8")
            tracer.begin_run(experiment)
            out = str(tmp_path / f"{experiment}.csv")
            assert timebins.cli.main(["--config", str(cfg), "--out", out]) == 0
            runs[experiment] = tracer.end_run()
    capsys.readouterr()

    for experiment, (spans, counts) in runs.items():
        names = [span[0] for span in spans]
        if experiment == "lindblad":
            assert counts["lindblad.rk4_steps"] == 50
            assert names.count("lindblad.integrate_rk4") == 1
        elif experiment == "microscopic":
            assert counts["microscopic.modes"] == 101
            assert names.count("microscopic.evolve_microscopic") == 1
        elif experiment == "kraus-report":
            # its four bin widths are one stacked exponential
            assert names.count("operators.expm") == 1
            assert "channel.extract_kraus" in names
        else:
            assert "channel.iterate_channel" in names, experiment
    ordering = [span[0] for span in runs["ordering-probe"][0]]
    assert "model.coarse_map" in ordering
    assert "model.ordering_residual" in ordering
    assert "lindblad.analytic_oracle" in [span[0] for span in runs["convergence"][0]]
    # the counter charges 32 bytes for each amplitude of the centre a collision
    # reads: 1 x 2 before the first, then at most s x s = 2 x 2
    assert runs["joint-chain"][1]["chain.step_chain.bytes"] == 32 * (2 + 4 + 4 + 4)
