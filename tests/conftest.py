import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# the file descriptor to which test_cli.deadline's backstop writes its traceback
# before it ends the process: stderr, or under pytest a copy of the terminal's
# stderr taken while no output is captured, since the run ends before pytest
# would show what a test captured
STDERR_FD = 2


def pytest_configure(config):
    global STDERR_FD
    STDERR_FD = os.dup(2)
