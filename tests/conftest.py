"""Shared fixtures for the test suite."""

import contextlib

import pytest

from repro.memproto import CoherenceAgent
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
def tracked(cls):
    """Collect every instance of ``cls`` constructed inside the block."""
    built = []
    original = cls.__init__

    def tracking(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    cls.__init__ = tracking
    try:
        yield built
    finally:
        cls.__init__ = original


def tracked_hosts():
    """Collect every :class:`Host` constructed inside the block."""
    return tracked(Host)


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


AGENT_TABLES = ("_pending", "_acquiring", "_out", "_evicting")


@pytest.fixture(autouse=True)
def no_coherence_state_outlives_quiescence():
    """The coherence agent is held to the same rule: once its simulator
    has nothing left to run, every wait is over, no line is being
    fetched, no frame is being batched and no eviction is waiting for
    its ack.  Every wait has a deadline, so no test is exempt."""
    with tracked(CoherenceAgent) as agents:
        yield
    leaked = {agent.host.name: [t for t in AGENT_TABLES if getattr(agent, t)]
              for agent in agents if agent.sim.pending_event_count == 0}
    assert not any(leaked.values()), leaked
