"""A time limit on every test: one that loops forever fails instead of
hanging the suite.  The slowest test takes under 10 s on a 2-vCPU VM, so
60 s leaves room for a slower machine and still ends a looping test file
in minutes."""

import signal

import pytest

TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s time limit (tests/conftest.py)")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
