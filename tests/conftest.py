"""A time limit on every test, from the standard library alone.

The hypothesis tests run with ``deadline=None``, so a change that makes the
solver loop forever would hang the suite instead of failing it.  A test
whose call still runs ``TEST_TIME_LIMIT_S`` seconds after it started fails
with the stack it was running (as ``faulthandler`` prints it), and the run
goes on.  The signal handler raises ``TimeLimitExceeded``, which is not an
``Exception``, so hypothesis does not catch it to shrink (and rerun) the
example; the hook turns it into a plain failure, whose report reads no
source lines (the interrupted frame may have none).  The slowest test,
acceptance criterion 5, takes about 85 s on two cores.  Where there is no
``SIGALRM`` (Windows) there is no limit.
"""

import faulthandler
import signal
import tempfile

import pytest

TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(BaseException):
    pass


def _over_time(signum, frame):
    with tempfile.TemporaryFile("w+") as out:
        faulthandler.dump_traceback(out, all_threads=False)
        out.seek(0)
        raise TimeLimitExceeded(out.read())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    except TimeLimitExceeded as stop:
        stack = str(stop)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail(f"still running after {TEST_TIME_LIMIT_S} s; the stack:\n{stack}", pytrace=False)
