"""Shared fixtures for the test suite."""

import contextlib

import pytest

from repro.net import Host
from repro.sim import Simulator

@pytest.fixture
def sim():
    """A fresh seeded simulator per test."""
    return Simulator(seed=1234)


def run(sim, gen, until=None):
    """Convenience: drive a generator process to completion."""
    return sim.run_process(gen, until=until)


@contextlib.contextmanager
def tracked_hosts():
    """Collect every :class:`Host` constructed inside the block."""
    hosts = []
    original = Host.__init__

    def tracking(self, *args, **kwargs):
        original(self, *args, **kwargs)
        hosts.append(self)

    Host.__init__ = tracking
    try:
        yield hosts
    finally:
        Host.__init__ = original


def leaked_requests(hosts):
    """``host: count`` for hosts still waiting on a reply although their
    simulator has nothing left to run.  A request with a deadline keeps
    its timer in the heap, so what shows here is a wait that can never
    end: the signature of a missing deadline."""
    return {host.name: host.outstanding_requests for host in hosts
            if host.outstanding_requests and host.sim.pending_event_count == 0}


@pytest.fixture(autouse=True)
def no_request_outlives_quiescence():
    """Tests (the fault matrix above all) crash hosts and cut links
    mid-exchange; none may leave a waiter parked on a reply that will
    never come."""
    with tracked_hosts() as hosts:
        yield
    assert not leaked_requests(hosts)
