"""The stacked sweep core against the one-width-at-a-time loops it replaced.

A sweep over bin widths is one stacked ``coarse_map`` (one ``expm``) and, for
the ordering probe, one ``apply_channel`` and one ``iterate_channel`` over
all the widths.  LAPACK and BLAS run the same routine on each matrix of a
stack, so every result must equal the per-width loop bit for bit, and every
guard must speak as it did from the loop: the same error, in width order.
"""

import warnings

import numpy as np
import pytest

import timebins.experiments as experiments
import timebins.model as model
from timebins.channel import (
    DensityMatrix,
    apply_channel,
    extract_kraus,
    iterate_channel,
    step_matrix,
)
from timebins.cli import main
from timebins.config import parse_config
from timebins.errors import GuardError, StateError
from timebins.model import CoarseParams, coarse_map, ordering_residual
from timebins.operators import expm

from oracle import coarse_maps_per_width, expm_per_matrix, ordering_residual_per_width

WIDTHS = 0.1 * 0.5 ** np.arange(4)
VARIANTS = {"free": "", "detuned": "omega0 = 0.8\n", "driven": "omega0 = 0.8\ndrive = 0.9\n"}
CASES = [
    (name, variant, n_max)
    for name in ("tls", "tls-driven", "dephasing", "oscillator3")
    for variant in VARIANTS
    for n_max in range(1, 7)
    if not (name == "oscillator3" and variant == "driven")  # it takes no drive
]


def build_system(name, variant):
    cfg = parse_config(f"experiment = collision\nsystem = {name}\n{VARIANTS[variant]}")
    return experiments._build_system(cfg)


@pytest.mark.parametrize("name, variant, n_max", CASES)
def test_stacked_sweep_equals_the_per_width_loop(name, variant, n_max):
    system = build_system(name, variant)
    params = CoarseParams(1.3, WIDTHS, n_max)
    maps = coarse_map(system, params)
    assert maps.shape == (4,) + (system.dim * (n_max + 1),) * 2
    assert np.array_equal(maps, coarse_maps_per_width(system, params))
    assert np.array_equal(expm(model.bin_generator(system, params)), maps)

    residuals = ordering_residual(system, params, 8)
    assert residuals.shape == (4,)
    assert np.array_equal(residuals, ordering_residual_per_width(system, params, 8))


def test_stacked_expm_equals_per_matrix_expm():
    rng = np.random.default_rng(16)
    for n in (2, 4, 9, 21):
        h = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        stack = 1j * (h + h.conj().swapaxes(1, 2))  # anti-Hermitian
        assert np.array_equal(expm(stack), expm_per_matrix(stack))


def test_stacked_expm_names_the_first_matrix_that_fails():
    ok = np.zeros((2, 2), dtype=complex)
    skew = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # a + a^dag = 2 a
    blown = np.full((2, 2), np.inf, dtype=complex)
    with pytest.raises(ValueError, match="anti-Hermitian generator \\(defect 2.000e\\+00\\)"):
        expm(np.stack([ok, skew, blown]))
    with pytest.raises(ValueError, match="finite entries"):
        expm(np.stack([ok, blown, skew]))
    with pytest.raises(ValueError, match="square matrix"):
        expm(np.zeros((1, 2, 2, 2), dtype=complex))


def test_coarse_params_checks_every_width():
    with pytest.raises(ValueError, match="dt must be positive"):
        CoarseParams(1.0, np.array([0.1, 0.05, 0.0]), 2)


def test_extract_kraus_takes_a_stack_of_maps():
    system = build_system("tls-driven", "detuned")
    maps = coarse_map(system, CoarseParams(1.0, WIDTHS, 3))
    families = extract_kraus(maps, 2, 3)
    assert families.shape == (4, 4, 2, 2)
    for u, family in zip(maps, families):
        assert np.array_equal(family, extract_kraus(u, 2, 3))
    with pytest.raises(ValueError, match="map has shape"):
        extract_kraus(maps[None], 2, 3)


def family_stack(name="tls-driven", variant="detuned", n_max=2):
    system = build_system(name, variant)
    maps = coarse_map(system, CoarseParams(1.0, WIDTHS, n_max))
    return extract_kraus(maps, system.dim, n_max), system.dim


@pytest.mark.parametrize("steps", [0, 1, 8, 65, 200])
def test_stacked_chains_equal_one_family_at_a_time(steps):
    families, dim = family_stack("oscillator3", "detuned")
    rho = DensityMatrix.pure(np.ones(dim))
    chains = iterate_channel(families, rho, steps)
    assert chains.shape == (4, steps + 1, dim, dim)
    for chain, family in zip(chains, families):
        assert np.array_equal(chain, iterate_channel(family, rho, steps))
    for s, family in zip(step_matrix(families), families):
        assert np.array_equal(s, step_matrix(family))
    one = apply_channel(families, rho.matrix)
    assert np.array_equal(one, [apply_channel(family, rho.matrix) for family in families])


def leaky(families, factors):
    """The families with family j scaled by factors[j]: each collision then
    keeps factors[j]^2 of the trace."""
    return families * np.asarray(factors)[:, None, None, None]


def guards(run):
    """The warnings a call gives, in order, and its error (type and text)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run()
            error = None
        except (GuardError, StateError) as exc:
            error = (type(exc), str(exc))
    return [str(w.message) for w in caught], error


def one_at_a_time(fn, families, *args):
    def run():
        for family in families:
            fn(family, *args)

    return run


FACTORS = [
    (1.0, 1 - 1e-8, 1 - 1e-9, 1.0),  # two small leaks
    (1 - 1e-8, 1.0, 1 - 1e-5, 1 - 1e-8),  # small leaks around a large one
    (1.0, 1.0, 1.0, 1 - 1e-5),  # a large leak at the last family only
]

# the error of a family scaled by 1 - 1e-8: it keeps (1 - 1e-8)^2 of the trace
REFUSED = "incomplete Kraus family: completeness defect 2.000e-08 exceeds 1e-10"


@pytest.mark.parametrize("factors", FACTORS)
def test_a_stacked_collision_is_guarded_family_by_family(factors):
    families, dim = family_stack()
    families = leaky(families, factors)
    rho = DensityMatrix.pure(np.ones(dim))
    stacked = guards(lambda: apply_channel(families, rho.matrix))
    assert stacked == guards(one_at_a_time(apply_channel, families, rho.matrix))
    assert stacked[0] == [] and stacked[1][0] is GuardError


def test_stacked_chains_guard_first_collisions_then_each_chain():
    families, dim = family_stack()
    families = leaky(families, FACTORS[0])
    rho = DensityMatrix.pure(np.ones(dim))
    chains = [guards(lambda: iterate_channel(f, rho, 5)) for f in families]
    errors = [error for w, error in chains if error]
    assert len(errors) == 2 and all(w == [] for w, _ in chains)
    assert guards(lambda: iterate_channel(families, rho, 5)) == ([], errors[0])


@pytest.mark.parametrize("factors", FACTORS[1:])
def test_a_first_collision_abort_stops_a_stack_before_any_later_step(factors):
    families, dim = family_stack()
    families = leaky(families, factors)
    rho = DensityMatrix.pure(np.ones(dim))
    stacked = guards(lambda: iterate_channel(families, rho, 5))
    assert stacked == guards(lambda: apply_channel(families, rho.matrix))
    assert stacked[1][0] is GuardError


def test_stacked_chains_refuse_a_leak_before_a_bad_state():
    # family 1 gains trace (below the family check, but the trace is off by
    # more than 1e-10 after a few steps); family 0 leaks and is refused first
    families, dim = family_stack()
    gaining = leaky(families, (1 - 1e-8, 1 + 1e-11, 1.0, 1.0))
    rho = DensityMatrix.pure(np.ones(dim))
    stacked = guards(lambda: iterate_channel(gaining, rho, 20))
    assert stacked == guards(one_at_a_time(iterate_channel, gaining, rho, 20))
    assert stacked == ([], (GuardError, REFUSED))
    # without the leak, family 1's chain fails its trace check
    gaining[0] = families[0]
    stacked = guards(lambda: iterate_channel(gaining, rho, 20))
    assert stacked == guards(one_at_a_time(iterate_channel, gaining, rho, 20))
    assert stacked[0] == [] and stacked[1][0] is StateError


def test_a_first_collision_that_fails_its_check_is_reported_in_family_order():
    families, dim = family_stack()
    families = leaky(families, (1 - 1e-8, 1.0, 1.0, 1.0))
    rho = DensityMatrix.pure(np.ones(dim))
    families[2] = np.nan  # a non-finite family, after a leaky one
    stacked = guards(lambda: apply_channel(families, rho.matrix))
    assert stacked == guards(one_at_a_time(apply_channel, families, rho.matrix))
    assert stacked == guards(lambda: iterate_channel(families, rho, 3))
    assert stacked == ([], (GuardError, REFUSED))


def planted_leak(monkeypatch, factors):
    """Scale the one-bin map of each width in ``factors`` by its factor."""
    original = model.coarse_map

    def coarse_map(system, params):
        dt = np.asarray(params.dt)
        scale = np.select([dt == w for w in factors], list(factors.values()), 1.0)
        return original(system, params) * scale[..., None, None]

    monkeypatch.setattr(model, "coarse_map", coarse_map)


def cli_guards(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "run.csv")])
    return code, [str(w.message) for w in caught], capsys.readouterr().err


def test_ordering_probe_guards_speak_in_width_order(tmp_path, capsys, monkeypatch):
    # leaks at dt/2 and its sub-bins, and a larger one at dt/4: the per-width
    # loop refuses the bin of width dt/2 before it reaches width dt/4
    dt = 0.1
    planted_leak(monkeypatch, {dt / 2: 1 - 1e-8, dt / 16: 1 - 1e-8, dt / 4: 1 - 1e-5})
    text = f"experiment = ordering-probe\nsystem = tls-driven\ndt = {dt}\n"
    stacked = cli_guards(tmp_path, capsys, text)
    monkeypatch.setattr(experiments, "ordering_residual", ordering_residual_per_width)
    assert stacked == cli_guards(tmp_path, capsys, text)
    assert stacked == (3, [], f"numeric guard: {REFUSED}\n")


def test_ordering_probe_names_a_sub_bin_leak_before_a_later_bin(
    tmp_path, capsys, monkeypatch
):
    # dt/16 is the sub-bin of width dt/2 and dt/4 the bin of the third width:
    # the bins and sub-bins are checked as one stack in width order, so the
    # sub-bin's leak is named, as the per-width loop names it
    dt = 0.1
    planted_leak(monkeypatch, {dt / 16: 1 - 1e-8, dt / 4: 1 - 1e-5})
    text = f"experiment = ordering-probe\nsystem = tls-driven\ndt = {dt}\n"
    stacked = cli_guards(tmp_path, capsys, text)
    monkeypatch.setattr(experiments, "ordering_residual", ordering_residual_per_width)
    assert stacked == cli_guards(tmp_path, capsys, text)
    assert stacked == (3, [], f"numeric guard: {REFUSED}\n")


def test_ordering_probe_with_warnings_only_matches_the_per_width_loop(
    tmp_path, capsys, monkeypatch
):
    # small leaks (defects 2e-8 to 6e-9): dt/8 is both the last bin and the
    # first width's sub-bin, and the loop refuses bin dt first
    dt = 0.1
    planted_leak(monkeypatch, {dt: 1 - 1e-8, dt / 8: 1 - 1e-9, dt / 64: 1 - 3e-9})
    text = f"experiment = ordering-probe\nsystem = tls-driven\ndt = {dt}\n"
    stacked = cli_guards(tmp_path, capsys, text)
    assert not (tmp_path / "run.csv").exists()
    monkeypatch.setattr(experiments, "ordering_residual", ordering_residual_per_width)
    assert stacked == cli_guards(tmp_path, capsys, text)
    assert not (tmp_path / "run.csv").exists()
    assert stacked == (3, [], f"numeric guard: {REFUSED}\n")


def test_sweeps_make_one_coarse_map_call(tmp_path, capsys, monkeypatch):
    calls = []
    original = experiments.coarse_map

    def counted(system, params):
        calls.append(np.shape(params.dt))
        return original(system, params)

    monkeypatch.setattr(experiments, "coarse_map", counted)
    for text in ("experiment = kraus-report\n", "experiment = convergence\nt_final = 0.2\n"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run.csv")]) == 0
    assert calls == [(4,), (4,)]
