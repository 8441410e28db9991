"""Print every experiment's tables in the terminal summary: pytest
captures stdout, so each case hands its report to ``experiment_report``."""

from __future__ import annotations

import pytest

_REPORTS: list[str] = []


@pytest.fixture
def experiment_report():
    return _REPORTS.append


def pytest_terminal_summary(terminalreporter):
    if _REPORTS:
        terminalreporter.write_sep("=", "experiment results")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
