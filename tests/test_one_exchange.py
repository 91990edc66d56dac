"""One request/reply primitive, and only one.

``Host.request`` replaced ten private pending-future tables; these tests
fail CI when an eleventh appears, or when a request is left without a
deadline (it shows as a waiter that outlives its simulator's last
event; ``tests/conftest.py`` holds every tier-1 test to the same
rule after every test).
"""

import ast
import pathlib

import pytest

from repro.bench import select

from .conftest import leaked_requests, tracked_hosts

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

# Where a ``Future`` is still the right tool: the kernel that defines
# it, and three cells that no single reply packet completes.
FUTURE_ALLOWED = {
    "memproto/coherence.py",  # its one _Wait: a grant and acks, from several hosts
    "pubsub/bus.py",          # publisher credit, released by consumer grants
    "core/proxies.py",        # a prefetch batch many dereferences wait on
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"), filename=rel)


def test_no_private_reply_future_outside_the_host():
    future_importers = set()
    for rel, tree in _modules():
        if rel.startswith("sim/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name == "Future" for alias in node.names):
                future_importers.add(rel)
    assert future_importers <= FUTURE_ALLOWED, (
        "wait for a reply with `yield host.request(packet, timeout_us)`, "
        f"not a private Future: {sorted(future_importers - FUTURE_ALLOWED)}")


@pytest.mark.parametrize("spec", select(), ids=lambda spec: spec.name)
def test_quick_scenario_leaves_no_request_waiting(spec):
    with tracked_hosts() as hosts:
        spec.run(1, True)
    assert not leaked_requests(hosts)
