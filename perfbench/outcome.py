"""The outcome check behind ``failed`` and ``correct``.

A run fails when it raises, exits with another code than the README promises,
writes a CSV with the wrong number of data rows, or, for a repeated config,
writes a CSV that is not byte-identical to the first run's.

Failures split in two.  On the few slots where the seed program is known to
reject a valid config (``RunSpec.finding_codes``), an exit with one of those
codes is a finding about the program: it counts in ``failed`` but leaves the
output correct.  Everything else (any other wrong exit, a crash, a malformed
or unrepeatable CSV, a guard that no longer refuses its input) is wrong
output, and makes the whole benchmark ``correct: false``.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import RunSpec


@dataclass(frozen=True)
class Outcome:
    failed: bool
    wrong_output: bool
    reason: str = ""


def data_rows(csv: bytes) -> int:
    """CSV lines after the header, not counting ``#`` comment lines."""
    lines = [ln for ln in csv.decode("utf-8").splitlines() if not ln.startswith("#")]
    return max(0, len(lines) - 1)


def check(
    spec: RunSpec,
    code: int | None,
    csv: bytes | None,
    first_csv: bytes | None = None,
    error: str = "",
) -> Outcome:
    """Compare one run against the outcome its spec promises.

    ``code`` is None when the run raised (``error`` says what); ``csv`` is
    None when no file was written; ``first_csv`` is the CSV of the run named
    by ``spec.same_as``.
    """
    if code is None:
        return Outcome(True, True, f"raised {error}")
    reasons = []
    wrong = False
    if code != spec.expect_code:
        reasons.append(f"exit {code}, expected {spec.expect_code}")
        wrong = code not in spec.finding_codes
    if spec.expect_rows is not None and code in (0, 1):
        rows = None if csv is None else data_rows(csv)
        if rows != spec.expect_rows:
            reasons.append(f"{rows} CSV rows, expected {spec.expect_rows}")
            wrong = True
    if spec.same_as is not None and csv != first_csv:
        reasons.append(f"CSV differs from {spec.same_as}")
        wrong = True
    return Outcome(bool(reasons), wrong, "; ".join(reasons))
