"""E3 / §3.2: exact-match identity-table capacity on the switch.

Paper: "With 64-bit ID fields, we could store ~1.8M exact entries and
with 128-bit IDs, we could fit ~850K.  To scale to larger deployments,
we will explore hierarchical identifier overlay schemes."

Regenerates the two reported capacities from the SRAM geometry model,
sweeps intermediate key widths, and checks that the match-action table
finds every ID it installed.
"""

import pytest

from repro.core import IDAllocator, collision_probability
from repro.net import MatchActionTable, SramModel, TOFINO_SRAM

from conftest import print_table


def test_capacity_table():
    capacities = {bits: TOFINO_SRAM.capacity(bits) for bits in (32, 48, 64, 96, 128)}
    print_table(
        "Switch exact-match capacity vs identifier width (Tofino SRAM model)",
        ["key_bits", "entries", "words/entry"],
        [[bits, cap, TOFINO_SRAM.words_per_entry(bits)]
         for bits, cap in sorted(capacities.items())],
    )


def test_paper_numbers_64_bit():
    assert TOFINO_SRAM.capacity(64) == pytest.approx(1_800_000, rel=0.02)


def test_paper_numbers_128_bit():
    assert TOFINO_SRAM.capacity(128) == pytest.approx(850_000, rel=0.02)


def test_half_width_doubles_capacity_roughly():
    ratio = TOFINO_SRAM.capacity(64) / TOFINO_SRAM.capacity(128)
    assert 1.8 < ratio < 2.4


def test_narrow_ids_would_need_an_arbiter():
    """Why not spend 64-bit IDs for the doubled table: §3.1 allocates
    IDs by secure random numbers with no central arbiter, which is safe
    only while collisions are negligible.  At a billion objects random
    64-bit IDs collide with probability ~2.7%; 128-bit ones ~1.5e-21."""
    objects = 10**9
    narrow = collision_probability(objects, bits=64)
    wide = collision_probability(objects, bits=128)
    print(f"\nP(collision) among {objects:.0e} random IDs: "
          f"64-bit {narrow:.3g}, 128-bit {wide:.3g}")
    assert 0.02 < narrow < 0.04
    assert wide < 1e-20


def test_hierarchical_overlay_extends_reach():
    """The paper's proposed mitigation: hierarchical identifiers let one
    exact entry cover a prefix of the space.  With a 64-bit 'region'
    level above full 128-bit IDs, the same SRAM addresses far more
    objects (at the price of a second lookup at the region gateway)."""

    flat_objects = TOFINO_SRAM.capacity(128)
    # Overlay: the core switch stores 64-bit region entries; each
    # region gateway resolves its own (up to) 850K local objects.
    regions = TOFINO_SRAM.capacity(64)
    overlay_objects = regions * TOFINO_SRAM.capacity(128)
    assert overlay_objects > 1_000 * flat_objects


def test_install_lookup_throughput():
    """Install 2,000 IDs, then find every one of them."""
    allocator = IDAllocator(seed=3)
    ids = [allocator.allocate() for _ in range(2_000)]
    table = MatchActionTable("bench", key_bits=128, capacity_override=4_000)
    for i, oid in enumerate(ids):
        table.install(oid, i % 8)
    hits = sum(1 for oid in ids if table.lookup(oid) is not None)
    assert hits == len(ids)


def test_capacity_wall_is_hard():
    sram = SramModel(total_words=100)
    table = MatchActionTable("tiny", key_bits=64, sram=sram)
    allocator = IDAllocator(seed=4)
    installed = 0
    for _ in range(200):
        if table.try_install(allocator.allocate(), 0):
            installed += 1
    assert installed == sram.capacity(64)
    assert table.insert_failures == 200 - installed
