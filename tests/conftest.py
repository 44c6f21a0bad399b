import os

import pytest

from attnseg import encoder


@pytest.fixture(autouse=True)
def no_worker_across_tests():
    """Close the decode worker after every test.  The worker keeps the
    code it was forked with, so one forked under a test's monkeypatch
    would run that patched code in later tests."""
    yield
    encoder.close_worker()


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
    send = encoder._Worker.send

    def counted(self, *args):
        sent.append(self.pid)
        return send(self, *args)

    monkeypatch.setattr(encoder._Worker, "send", counted)
    return sent
