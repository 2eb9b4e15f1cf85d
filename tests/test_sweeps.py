"""The stacked sweep core against the one-width-at-a-time loops it replaced.

A sweep over bin widths is one stacked ``coarse_map`` (one ``expm``) and, for
the ordering probe, one ``apply_channel`` and one ``iterate_channel`` over
all the widths.  LAPACK and BLAS run the same routine on each matrix of a
stack, so every result must equal the per-width loop bit for bit, and every
guard must speak as it did from the loop: the same warnings and errors, in
width order.
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
    (1.0, 1 - 1e-8, 1 - 1e-9, 1.0),  # warnings at every step of two families
    (1 - 1e-8, 1.0, 1 - 1e-5, 1 - 1e-8),  # warnings, then an abort
    (1.0, 1.0, 1.0, 1 - 1e-5),  # an abort at the last family only
]


@pytest.mark.parametrize("factors", FACTORS)
def test_a_stacked_collision_is_guarded_family_by_family(factors):
    families, dim = family_stack()
    families = leaky(families, factors)
    rho = DensityMatrix.pure(np.ones(dim))
    stacked = guards(lambda: apply_channel(families, rho.matrix))
    assert stacked == guards(one_at_a_time(apply_channel, families, rho.matrix))
    assert stacked[0] or stacked[1]


def test_stacked_chains_guard_first_collisions_then_each_chain():
    families, dim = family_stack()
    families = leaky(families, FACTORS[0])
    rho = DensityMatrix.pure(np.ones(dim))
    chains = [guards(lambda: iterate_channel(f, rho, 5))[0] for f in families]
    firsts = [w[0] for w in chains if w]
    assert len(firsts) == 2
    later = [message for w in chains for message in w[1:]]
    assert guards(lambda: iterate_channel(families, rho, 5)) == (firsts + later, None)


@pytest.mark.parametrize("factors", FACTORS[1:])
def test_a_first_collision_abort_stops_a_stack_before_any_later_step(factors):
    families, dim = family_stack()
    families = leaky(families, factors)
    rho = DensityMatrix.pure(np.ones(dim))
    stacked = guards(lambda: iterate_channel(families, rho, 5))
    assert stacked == guards(lambda: apply_channel(families, rho.matrix))
    assert stacked[1][0] is GuardError


def test_stacked_chains_report_a_bad_state_after_earlier_warnings():
    # family 1 gains trace (no warning below 1e-10 a step, but the trace is
    # off by more than 1e-10 after a few steps); family 0 warns at every step
    families, dim = family_stack()
    families = leaky(families, (1 - 1e-8, 1 + 1e-11, 1.0, 1.0))
    rho = DensityMatrix.pure(np.ones(dim))
    stacked = guards(lambda: iterate_channel(families, rho, 20))
    assert stacked == guards(one_at_a_time(iterate_channel, families, rho, 20))
    assert len(stacked[0]) == 20 and stacked[1][0] is StateError


def test_a_first_collision_that_fails_its_check_is_reported_in_family_order():
    families, dim = family_stack()
    families = leaky(families, (1 - 1e-8, 1.0, 1.0, 1.0))
    rho = DensityMatrix.pure(np.ones(dim))
    families[2] = np.nan  # no trace deviation to warn of, and a non-finite state
    stacked = guards(lambda: apply_channel(families, rho.matrix))
    assert stacked == guards(one_at_a_time(apply_channel, families, rho.matrix))
    assert stacked == guards(lambda: iterate_channel(families, rho, 3))
    assert stacked == ([stacked[0][0]], (StateError, "density matrix has non-finite entries"))


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
    # a leak at dt/2 and its sub-bins warns at each of those collisions, and
    # one at dt/4 aborts: the per-width loop gives the warnings of width dt/2
    # (its bin, then its 8 sub-bins) and then the abort of width dt/4
    dt = 0.1
    planted_leak(monkeypatch, {dt / 2: 1 - 1e-8, dt / 16: 1 - 1e-8, dt / 4: 1 - 1e-5})
    text = f"experiment = ordering-probe\nsystem = tls-driven\ndt = {dt}\n"
    stacked = cli_guards(tmp_path, capsys, text)
    monkeypatch.setattr(experiments, "ordering_residual", ordering_residual_per_width)
    assert stacked == cli_guards(tmp_path, capsys, text)
    code, caught, err = stacked
    assert code == 3 and len(caught) == 9
    assert err.startswith("numeric guard: channel lost 2.000e-05 of the trace")


def test_ordering_probe_with_warnings_only_matches_the_per_width_loop(
    tmp_path, capsys, monkeypatch
):
    # dt/8 is both the last bin and the first width's sub-bin: the loop gives
    # bin dt, its sub-bins, then bin dt/8 and its sub-bins dt/64
    dt = 0.1
    planted_leak(monkeypatch, {dt: 1 - 1e-8, dt / 8: 1 - 1e-9, dt / 64: 1 - 3e-9})
    text = f"experiment = ordering-probe\nsystem = tls-driven\ndt = {dt}\n"
    stacked = cli_guards(tmp_path, capsys, text)
    csv = (tmp_path / "run.csv").read_text()
    monkeypatch.setattr(experiments, "ordering_residual", ordering_residual_per_width)
    assert stacked == cli_guards(tmp_path, capsys, text)
    assert csv == (tmp_path / "run.csv").read_text()
    assert len(stacked[1]) == 1 + 8 + 1 + 8
    assert stacked[1][-1] == "channel trace deviation 6.000e-09 exceeds 1e-10"


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
