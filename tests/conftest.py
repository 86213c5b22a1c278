"""A time budget for every test: a test that hangs ends the run with a
traceback of where it hung, instead of running on with no output."""

import faulthandler
import os

import pytest

TEST_SECONDS = 120  # far above the slowest test, about 5 s

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output is not captured: a
    # traceback written to a test's captured output is lost with the process
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_budget(pytestconfig):
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True, file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
