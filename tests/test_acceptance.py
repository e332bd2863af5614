"""End-to-end acceptance: every headline property at its stated budget.

Each compiled check prints one PASS/FAIL line with the measured worst
deviation; the command-line checks go through a real interpreter.
"""

import json
import math
import subprocess
import sys

import pytest

from nbstates import verify


@pytest.mark.parametrize(
    "criterion",
    verify.ALL_CRITERIA,
    ids=[f.__name__.removeprefix("criterion_") for f in verify.ALL_CRITERIA],
)
def test_criterion(criterion):
    result = criterion()
    line = f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


@pytest.mark.parametrize(
    "worst,passed", [(1e-8, False), (math.nan, False), (math.nextafter(1e-8, 0.0), True)]
)
def test_within_passes_strictly_below_the_budget(worst, passed):
    result = verify._within("check", worst, "1e-8", "worst {:.3e}")
    assert result.passed is passed
    assert result.detail.endswith("(budget 1e-8)")


class TestCommandLine:
    def test_verify_command_exits_0(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nbstates", "verify"],
            capture_output=True, text=True, timeout=300,
        )
        print(proc.stdout.strip())
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = [
            ln for ln in proc.stdout.splitlines()
            if ln.startswith(("PASS", "FAIL"))
        ]
        assert len(lines) == len(verify.ALL_CRITERIA)
        assert all(ln.startswith("PASS") for ln in lines)

    def test_stats_reports_exact_mandel_q(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nbstates", "stats", "--eta", "0.8", "--m", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert round(payload["mandel_q"], 6) == -0.6875
        assert f"{payload['mandel_q']:.6f}" == "-0.687500"
