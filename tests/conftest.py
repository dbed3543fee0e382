"""Shared pytest plumbing.

Acceptance tests register one verdict line per criterion through the
``record_verdict`` fixture; the lines are echoed after the run, since pytest
captures stdout of passing tests.  Memory tests measure the tables an
object holds through the ``array_bytes`` fixture.
"""

import numpy as np
import pytest

ACCEPTANCE_VERDICTS = []


@pytest.fixture
def record_verdict():
    return ACCEPTANCE_VERDICTS.append


def _array_bytes(obj, seen, skip=("mesh",)):
    """Bytes of the numpy buffers reachable from ``obj`` through dicts,
    lists, tuples and instance attributes, each buffer counted once.
    Attributes named in ``skip`` are not followed, so by default a dof map
    counts only its own tables and not its mesh's."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if obj.base is not None or id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if id(obj) in seen:
        return 0
    if isinstance(obj, dict):
        seen.add(id(obj))
        return sum(_array_bytes(value, seen, skip) for value in obj.values())
    if isinstance(obj, (list, tuple)):
        seen.add(id(obj))
        return sum(_array_bytes(value, seen, skip) for value in obj)
    if hasattr(obj, "__dict__"):
        seen.add(id(obj))
        return sum(_array_bytes(value, seen, skip)
                   for key, value in vars(obj).items() if key not in skip)
    return 0


@pytest.fixture
def array_bytes():
    """``array_bytes(obj, seen, skip=("mesh",))``: see ``_array_bytes``."""
    return _array_bytes


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)
