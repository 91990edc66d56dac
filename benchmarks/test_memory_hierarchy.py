"""E6 / §1: the latency hierarchy that motivates revisiting DSM.

Paper: "while referencing remote memory incurs 100x higher latency than
accessing local DRAM, it is 100x faster than accessing local SSD."

Regenerates the hierarchy table and shows the consequence the argument
rests on: placement decisions that prefer *remote memory* over local
storage-class alternatives.
"""

import pytest

from repro.core import DEFAULT_HIERARCHY, CostModel, LatencyHierarchy

from conftest import print_table


def test_hierarchy_table():
    h = DEFAULT_HIERARCHY
    rows = [
        ["local DRAM", h.local_dram_us, 1.0],
        ["remote memory", h.remote_memory_us, h.remote_memory_us / h.local_dram_us],
        ["local SSD", h.local_ssd_us, h.local_ssd_us / h.local_dram_us],
    ]
    print_table(
        "Access latency hierarchy (per word/cache line)",
        ["tier", "latency_us", "x DRAM"],
        rows,
    )


def test_remote_memory_100x_dram():
    assert DEFAULT_HIERARCHY.remote_vs_dram == pytest.approx(100.0)


def test_remote_memory_100x_faster_than_ssd():
    assert DEFAULT_HIERARCHY.ssd_vs_remote == pytest.approx(100.0)


def test_working_set_placement_consequence():
    """The argument in action: serving a 64B record 10,000 times from
    remote memory beats re-reading it from local SSD by ~100x — the
    quantitative case for reaching across the network instead of down
    the storage stack."""

    h = DEFAULT_HIERARCHY
    accesses = 10_000
    remote_total = accesses * h.remote_memory_us
    ssd_total = accesses * h.local_ssd_us
    assert ssd_total / remote_total == pytest.approx(100.0)


def test_hierarchy_is_configurable_but_ordered():
    custom = LatencyHierarchy(local_dram_us=0.08, remote_memory_us=4.0,
                              local_ssd_us=90.0)
    assert custom.remote_vs_dram == pytest.approx(50.0)
    model = CostModel(hierarchy=custom)
    assert model.hierarchy.ssd_vs_remote == pytest.approx(22.5)
