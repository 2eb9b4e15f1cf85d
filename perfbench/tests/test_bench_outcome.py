from outcome import check, data_rows
from workloads import RunSpec

CSV = b"t,x\n0,1\n1,2\n"
SPEC = RunSpec("r", (("experiment", "collision"),), expect_code=0, expect_rows=2)


def test_data_rows_skip_header_and_comments():
    assert data_rows(CSV) == 2
    assert data_rows(b"dt,max_error\n1,2\n# fitted_order = 1\n") == 1


def test_expected_outcome_passes():
    assert not check(SPEC, 0, CSV).failed


def test_wrong_exit_code_is_flagged():
    # A collision run that misses its oracle or trips a guard is wrong output.
    for code in (1, 2, 3):
        missed = check(SPEC, code, CSV)
        assert missed.failed and missed.wrong_output
        assert f"exit {code}, expected 0" in missed.reason
    # On a slot with a known seed finding, only the finding's codes are findings.
    kraus = RunSpec("k", (("experiment", "kraus-report"),), 0, 2, finding_codes=(1,))
    finding = check(kraus, 1, CSV)
    assert finding.failed and not finding.wrong_output
    assert check(kraus, 3, None).wrong_output
    # A guard that stops refusing its input is wrong output.
    guard = RunSpec("g", (("experiment", "joint-chain"),), expect_code=3)
    dropped = check(guard, 0, CSV)
    assert dropped.failed and dropped.wrong_output


def test_non_identical_repeat_is_flagged():
    again = RunSpec("r-again", SPEC.config, 0, 2, same_as="r")
    assert not check(again, 0, CSV, first_csv=CSV).failed
    changed = check(again, 0, CSV.replace(b"2\n", b"3\n"), first_csv=CSV)
    assert changed.failed and changed.wrong_output
    assert "differs from r" in changed.reason


def test_wrong_row_count_and_crash_are_wrong_output():
    short = check(SPEC, 0, b"t,x\n0,1\n")
    assert short.failed and short.wrong_output
    crashed = check(SPEC, None, None, error="ValueError: boom")
    assert crashed.failed and crashed.wrong_output and "boom" in crashed.reason
