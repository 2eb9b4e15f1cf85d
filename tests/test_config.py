"""Unit tests for config parsing."""

import pytest

from timebins.config import EXPERIMENTS, ConfigError, RunConfig, parse_config
from timebins.experiments import _RUNNERS


def test_every_experiment_has_a_runner():
    assert set(EXPERIMENTS) == set(_RUNNERS)


def test_defaults_fill_in():
    cfg = parse_config("experiment = lindblad\ndt = 0.01\nt_final = 5\n")
    assert cfg == RunConfig(experiment="lindblad", dt=0.01, t_final=5.0)
    assert cfg.gamma == 1.0
    assert cfg.n_max == 2
    assert cfg.system == "tls"


def test_comments_and_blank_lines():
    text = """
    # spontaneous emission baseline
    experiment = collision   # collision model
    gamma = 2.0

    n_max = 3
    """
    cfg = parse_config(text)
    assert cfg.experiment == "collision"
    assert cfg.gamma == 2.0
    assert cfg.n_max == 3


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config("experiment = warp")


def test_negative_dt_rejected():
    with pytest.raises(ConfigError, match="dt must be positive"):
        parse_config("experiment = collision\ndt = -1")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("experiment = collision\ndtt = 0.1")


def test_missing_experiment_rejected():
    with pytest.raises(ConfigError, match="missing experiment"):
        parse_config("gamma = 1.0")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("experiment = collision\ngamma = 1\ngamma = 2")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("experiment = collision\nn_max = 2.5")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("experiment = collision\ngamma = fast")
    with pytest.raises(ConfigError, match="empty value for 'gamma'"):
        parse_config("experiment = collision\ngamma =")


def test_line_without_assignment_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("experiment = collision\njust words")


def test_unknown_system_rejected():
    with pytest.raises(ConfigError, match="unknown system"):
        parse_config("experiment = collision\nsystem = qutrit")


def test_driven_system_defaults_to_unit_drive():
    cfg = parse_config("experiment = collision\nsystem = tls-driven")
    assert cfg.drive == 1.0
    cfg = parse_config("experiment = collision\nsystem = tls-driven\ndrive = 0.25")
    assert cfg.drive == 0.25


def test_oscillator3_takes_no_drive():
    assert parse_config("experiment = collision\nsystem = oscillator3\ndrive = 0").drive == 0.0
    with pytest.raises(ConfigError, match="oscillator3 takes no drive"):
        parse_config("experiment = collision\nsystem = oscillator3\ndrive = 0.5")


def test_grid_keys_validated():
    with pytest.raises(ConfigError, match="n_modes"):
        parse_config("experiment = microscopic\nn_modes = 1600")
    with pytest.raises(ConfigError, match="n_bins"):
        parse_config("experiment = joint-chain\nn_bins = 0")
    with pytest.raises(ConfigError, match="n_max must be >= 1"):
        parse_config("experiment = joint-chain\nn_max = 0")


@pytest.mark.parametrize(
    "key", ["gamma", "dt", "t_final", "omega0", "drive", "half_width"]
)
@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_non_finite_float_values_rejected(key, raw):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(f"experiment = collision\n{key} = {raw}")
