import os

import numpy as np
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
def in_process(monkeypatch):
    """in_process(run) returns run() with every direction of its forward
    passes in this process, whatever the decode worker's dispatch rule,
    which holds again once run() returns."""
    def call(run):
        with monkeypatch.context() as mp:
            mp.setattr(worker, "FORK_MIN_TOKENS", np.inf)
            return run()
    return call


@pytest.fixture
def region(monkeypatch):
    """A fresh shared region of 32 MiB in place of this process's own,
    so that the test's loads take their blocks from an empty region,
    whatever earlier tests loaded.  Its mapping goes once neither the
    test nor any array that views its blocks holds it, so an array that
    a failed test's traceback holds still reads its values."""
    if not hasattr(os, "memfd_create"):
        pytest.skip("the shared region needs os.memfd_create")
    fresh = worker._Region(2 ** 25)
    monkeypatch.setattr(worker, "_region", fresh)
    return fresh
