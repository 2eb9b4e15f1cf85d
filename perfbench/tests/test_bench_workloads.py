import math

import pytest

from timebins.config import ConfigError, parse_config

import workloads


def size(spec):
    """Everything that sets the cost of a run; the seed must not move it."""
    cfg = dict(spec.config)
    steps = None
    if "t_final" in cfg:
        steps = round(float(cfg["t_final"]) / float(cfg["dt"]))
    keys = ("experiment", "system", "n_max", "n_bins", "n_modes")
    return tuple(cfg.get(k) for k in keys) + (steps, spec.expect_code, spec.expect_rows)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seed_deterministic(workload):
    first = workloads.build(workload, 7)
    again = workloads.build(workload, 7)
    assert first == again
    assert [r.text() for r in first] == [r.text() for r in again]
    assert first != workloads.build(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_the_same_sizes(workload):
    a = workloads.build(workload, 1)
    b = workloads.build(workload, 2)
    assert [size(r) for r in a] == [size(r) for r in b]
    # The physical parameters, not the sizes, are what the seed moves.
    assert all(x.config != y.config for x, y in zip(a, b))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_are_what_the_readme_documents(workload):
    for spec in workloads.build(workload, 3):
        if spec.expect_code == 2:
            with pytest.raises(ConfigError):
                parse_config(spec.text())
            continue
        cfg = parse_config(spec.text())
        assert 2 ** -0.5 <= cfg.gamma <= 2 ** 0.5
        if cfg.experiment == "microscopic":
            assert cfg.half_width >= 20 * cfg.gamma
            recurrence = math.pi * (cfg.n_modes - 1) / cfg.half_width
            assert (cfg.t_final >= recurrence) == (spec.expect_code == 3)
        if spec.expect_code == 3 and cfg.experiment == "joint-chain":
            assert 2 * (cfg.n_max + 1) ** cfg.n_bins > 1 << 22


def test_scan_configs_are_distinct_and_carry_the_guards():
    runs = workloads.build("scan", 5)
    assert len(runs) >= 300
    assert len({r.text() for r in runs}) == len(runs)
    assert sorted(r.expect_code for r in runs if r.expect_code) == [2, 2, 3, 3, 3, 3]
    # Known seed findings: kraus-report on the 20 driven-qubit slots and
    # ordering-probe on the 12 undriven dephasing slots, nothing else.
    findings = [r.name.split("_", 1)[1] for r in runs if r.finding_codes]
    assert len(findings) == 32
    assert all(f.startswith("kraus-report_") or f.startswith("ordering-probe_dephasing_")
               for f in findings)


def test_trajectory_runs_every_config_twice():
    runs = workloads.build("trajectory", 5)
    by_name = {r.name: r for r in runs}
    repeats = [r for r in runs if r.same_as]
    assert len(repeats) * 2 == len(runs)
    for r in repeats:
        assert by_name[r.same_as].config == r.config
        assert runs.index(by_name[r.same_as]) < runs.index(r)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.build("nope", 1)
