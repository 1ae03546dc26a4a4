"""Shared pytest plumbing.

Acceptance tests append their verdict lines to AC_LINES; the terminal-summary
hook echoes them after the run so they survive output capture and always
appear in the transcript.

The flipped_scan fixture swaps the two calibration-gate checks (MULLX,
CLOSED) for their top-down-scan variants, the partials that
calibration_report runs, so that run_check, run_all and the CLI produce a
deterministic failing report.
"""

from dataclasses import replace
from functools import partial

import pytest

from modpart import CHECKS, Orientation

AC_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if AC_LINES:
        terminalreporter.section("acceptance criteria")
        for line in AC_LINES:
            terminalreporter.line(line)


@pytest.fixture
def flipped_scan(monkeypatch):
    for cid in ("MULLX", "CLOSED"):
        check = CHECKS[cid]
        flipped = partial(check.fn, orientation=Orientation.TOP_DOWN)
        monkeypatch.setitem(CHECKS, cid, replace(check, fn=flipped))
