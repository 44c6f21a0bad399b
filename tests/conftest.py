import ctypes
import mmap
import os

import pytest

from attnseg import worker


@pytest.fixture(autouse=True)
def no_worker_across_tests():
    """Close the decode worker after every test.  The worker keeps the
    code it was forked with, so one forked under a test's monkeypatch
    would run that patched code in later tests."""
    yield
    worker.close_worker()


@pytest.fixture
def dispatches(monkeypatch):
    """Let encoder.forward use the decode worker wherever the platform
    has one, as on a machine with 2 CPUs, and count the direction runs
    it sends there: the returned list gets one entry per send."""
    if not hasattr(os, "memfd_create"):
        pytest.skip("the decode worker needs os.memfd_create")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    sent = []
    send = worker._Worker.send

    def counted(self, *args):
        sent.append(self.pid)
        return send(self, *args)

    monkeypatch.setattr(worker._Worker, "send", counted)
    return sent


@pytest.fixture
def region(monkeypatch):
    """A fresh shared region of 32 MiB in place of this process's own,
    so that the test's loads take their blocks from an empty region,
    whatever earlier tests loaded."""
    if not hasattr(os, "memfd_create"):
        pytest.skip("the shared region needs os.memfd_create")
    fresh = worker._Region(2 ** 25)
    monkeypatch.setattr(worker, "_region", fresh)
    yield fresh
    # the test's pages go back to the system; the addresses stay mapped,
    # so an array that a failed test's traceback holds reads zeros
    madvise = ctypes.CDLL(None).madvise
    madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    madvise(fresh.address, fresh.capacity, mmap.MADV_REMOVE)
