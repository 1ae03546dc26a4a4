"""Shared pytest plumbing.

Acceptance tests append their verdict lines to AC_LINES; the terminal-summary
hook echoes them after the run so they survive output capture and always
appear in the transcript.

The flipped_scan fixture builds every run that the harness starts under the
top-down scan, as calibration_report builds its flipped half, so that
run_check, run_all and the CLI's verify produce a deterministic failing
report: the calibration gate stops run_all after MULLX.

The "fuzz-deep" hypothesis profile has ten times the default number of
examples; CI runs tests/test_fuzz.py again under it
(--hypothesis-profile=fuzz-deep), while tier-1 keeps the default.
"""

import pytest
from hypothesis import settings

import modpart.harness as harness
from modpart import Orientation

AC_LINES: list[str] = []

settings.register_profile("fuzz-deep", max_examples=10 * settings.default.max_examples)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if AC_LINES:
        terminalreporter.section("acceptance criteria")
        for line in AC_LINES:
            terminalreporter.line(line)


@pytest.fixture
def flipped_scan(monkeypatch):
    new_classifier = harness._new_classifier
    monkeypatch.setattr(harness, "_new_classifier", lambda: new_classifier(Orientation.TOP_DOWN))
