import random

import pytest
from hypothesis import settings

# More examples for the laws CI runs with --hypothesis-profile=ci; the
# default profile is untouched.  No deadline, since a shared runner's pauses
# say nothing about the law under test.
settings.register_profile("ci", max_examples=1000, deadline=None)

# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def rng():
    return random.Random(20260814)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
