"""Routes for tests that price placement or transfers without building a
network: ``hops`` identical links, by default 2 us and 100 Gbps each,
with no switch delay between them."""

from repro.net import Path


def uniform(hops: int, latency_us: float = 2.0,
            bandwidth_gbps: float = 100.0) -> Path:
    """The path across ``hops`` identical links (none: a node to itself);
    each link serialises the whole frame again."""
    return Path(hops, hops * latency_us, hops * 8e-3 / bandwidth_gbps)


def hops_apart(hops: int):
    """A distance function that puts any two distinct nodes ``hops``
    links apart."""
    here, there = uniform(0), uniform(hops)
    return lambda a, b: here if a == b else there
