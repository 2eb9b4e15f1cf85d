"""Seeded random configs through the CLI: every one ends in a documented exit
code, in the package's own words, with no warning."""

import random
import tracemalloc
import warnings

import numpy as np

from timebins.cli import main
from timebins.config import parse_config

from oracle import fuzz_config, fuzz_rows

N_CONFIGS = 300
# A refused run allocates nothing of the size it asks for.  The smallest
# far-over-cap request a draw makes, n_max = 5000, needs a one-bin unitary of
# side 10002 (1.6 GB), and the others (2**40 + 1 modes, 10^9 steps or more,
# a 60-bin chain) need far more; every refusal of these draws peaks below
# 0.2 MB under tracemalloc, and the bound is 1 MB, 1/1600 of that request.
REFUSAL_PEAK = 1 << 20


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
            # the same refusal again, traced: tracing every run would double the test's time
            tracemalloc.start()
            try:
                assert main(["--config", str(cfg_path), "--out", str(out)]) == code, text
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert peak < REFUSAL_PEAK, (text, peak)
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
