"""Seeded random configs through the CLI: every one ends in a documented exit
code, in the package's own words, with no warning."""

import random
import warnings

import numpy as np

from timebins.cli import main
from timebins.config import parse_config

from oracle import fuzz_config, fuzz_rows

N_CONFIGS = 300


def test_every_fuzzed_config_ends_in_a_documented_exit(tmp_path, capsys):
    rng = random.Random(20171)
    cfg_path, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    codes = []
    for _ in range(N_CONFIGS):
        text = fuzz_config(rng)
        cfg_path.write_text(text, encoding="utf-8")
        out.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert caught == [], (text, [str(w.message) for w in caught])
        assert code in (0, 1, 2, 3), text
        codes.append(code)
        if code in (2, 3):
            assert captured.err.startswith(("config error:", "numeric guard:")), text
            assert captured.out == "" and not out.exists(), text
            continue
        assert captured.err == "" and captured.out.count("\n") == 1, text
        lines = out.read_text(encoding="ascii").splitlines()
        table = np.array(
            [[float(x) for x in line.split(",")] for line in lines[1:] if not line.startswith("#")]
        )
        assert table.shape[0] == fuzz_rows(parse_config(text)), text
        assert np.isfinite(table).all(), text
    # the draws reach every exit code
    assert set(codes) == {0, 1, 2, 3}, sorted(set(codes))
