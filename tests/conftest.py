"""Shared pytest plumbing.

Acceptance tests register one verdict line per criterion through the
``record_verdict`` fixture; the lines are echoed after the run, since pytest
captures stdout of passing tests.
"""

import pytest

ACCEPTANCE_VERDICTS = []


@pytest.fixture
def record_verdict():
    return ACCEPTANCE_VERDICTS.append


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)
