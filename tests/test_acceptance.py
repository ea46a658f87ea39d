"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines with the measured margins.  The criteria run once per test
session, through ``purespin verify-all --seed 7`` (the ``verify_all_run``
fixture); each test reads its criterion from that report.
"""

import importlib.util
from pathlib import Path

import pytest

from purespin.suites import ALL_CRITERIA

SEED = 7


def _fmt(value):
    """Report scalars are decimal strings; floats are shown to four digits."""
    try:
        return f"{float(value):.3e}" if any(c in value for c in ".e") else value
    except (TypeError, ValueError):
        return value


@pytest.mark.parametrize("number", sorted(ALL_CRITERIA))
def test_criterion(number, verify_all_run):
    _, full = verify_all_run
    report = next(c for c in full["checks"] if c["criterion"] == str(number))
    status = "PASS" if report["passed"] else "FAIL"
    details = ", ".join(f"{k}={_fmt(v)}" for k, v in report["details"].items())
    print(f"[{status}] criterion {number:2d} {report['name']} (seed={SEED}): {details}")
    assert report["passed"], f"criterion {number} ({report['name']}) failed: {report['details']}"


def test_report_passes_the_benchmark_check(verify_all_run):
    # the benchmark pins its own copy of the thresholds and of the detail keys it reads
    spec = importlib.util.spec_from_file_location(
        "checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    _, report = verify_all_run
    assert checks.verify_all_report(report) is None
    volume = next(c for c in report["checks"] if c["criterion"] == "7")
    assert set(volume["details"]) == {"min_abs_density", "max_oracle_error", "classes",
                                      "points_per_class"}

