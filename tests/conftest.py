import os

import pytest


@pytest.fixture
def forking(monkeypatch):
    """Let encoder.forward fork wherever os.fork exists, as on a machine
    with 2 CPUs, and count its forks: the returned list gets one entry
    per os.fork call."""
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is not available here")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks
