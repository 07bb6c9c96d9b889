"""Pin BLAS to one thread: the arrays here are small-k GEMMs where thread
fan-out costs more than it saves, and single-threaded runs are deterministic.
Must run before numpy is imported anywhere in the session.  Every test also
checks that it leaves no more threads running than it started with."""
import os
import sys
import threading

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, os.path.dirname(__file__))

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves more threads running than it started with."""
    before = threading.active_count()
    yield
    left = threading.active_count() - before
    assert left <= 0, f"{left} more thread(s) running: {threading.enumerate()}"
