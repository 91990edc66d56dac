"""E15 / §3.2+§4: hierarchical identifier overlay over WAN regions.

Paper: "To scale to larger deployments, we will explore hierarchical
identifier overlay schemes" and "[we] will consider overlay networks to
layer on WAN routing."

Measures the two properties the overlay buys:

* **bounded switch state** — each region's rack switch holds identity
  entries only for locally homed objects, so total deployable objects
  scale with the number of regions instead of hitting one table's wall;
* **locality pricing** — intra-region accesses never touch the WAN;
  cross-region accesses pay exactly the gateway round trip.
"""

import pytest

from repro.discovery import SCHEME_CONTROLLER, Testbed
from repro.net import build_multi_region
from repro.sim import Simulator, summarize

from conftest import print_table

OBJECTS_PER_REGION = 8
WAN_LATENCY_US = 2_000.0  # build_multi_region's gateway-to-core links


def run_overlay(n_regions: int, seed: int = 67):
    """Build regions, populate objects, access local + remote mixes."""
    sim = Simulator(seed=seed)
    mr = build_multi_region(sim, n_regions=n_regions, hosts_per_region=2)
    # Identity routes come from the overlay's regional control plane:
    # the network has no controller host.
    bed = Testbed(SCHEME_CONTROLLER, mr.network, 256,
                  responders=[f"r{r}_h1" for r in range(n_regions)],
                  driver="r0_h0")
    objects = {}
    for r, holder in enumerate(bed.responders):
        region = f"r{r}"
        objects[region] = []
        for _ in range(OBJECTS_PER_REGION):
            oid = bed.create_object(holder)
            mr.register_local_object(oid, region, holder)
            objects[region].append(oid)
    accessor = bed.accessor
    local_records, remote_records = [], []

    def driver():
        for oid in objects["r0"]:
            record = yield sim.spawn(accessor.access(oid))
            local_records.append(record)
        for r in range(1, n_regions):
            for oid in objects[f"r{r}"][:3]:
                record = yield sim.spawn(accessor.access(oid))
                remote_records.append(record)
        return None

    sim.run_process(driver())
    assert all(r.ok for r in local_records + remote_records)
    max_table = max(len(s.identity_table) for s in mr.network.switches)
    return {
        "local_mean_us": summarize([r.latency_us for r in local_records]).mean,
        "remote_mean_us": summarize([r.latency_us for r in remote_records]).mean,
        "max_table_entries": max_table,
        "total_objects": n_regions * OBJECTS_PER_REGION,
    }


@pytest.fixture(scope="module")
def sweep():
    return {n: run_overlay(n) for n in (2, 3, 5)}


def test_overlay_table(sweep):
    rows = [[n, stats["total_objects"], stats["max_table_entries"],
             stats["local_mean_us"], stats["remote_mean_us"]]
            for n, stats in sorted(sweep.items())]
    print_table(
        f"WAN overlay: per-region switch state and access locality "
        f"({OBJECTS_PER_REGION} objects/region)",
        ["regions", "objects", "max_tbl_entries", "local_us", "remote_us"],
        rows,
    )


def test_switch_state_independent_of_deployment_size(sweep):
    # The hierarchical claim: per-switch state is the *regional*
    # population no matter how many regions exist.
    for stats in sweep.values():
        assert stats["max_table_entries"] == OBJECTS_PER_REGION


def test_total_objects_scale_with_regions(sweep):
    totals = [sweep[n]["total_objects"] for n in sorted(sweep)]
    assert totals == sorted(totals)
    assert totals[-1] == 5 * OBJECTS_PER_REGION


def test_local_accesses_never_pay_wan(sweep):
    for stats in sweep.values():
        assert stats["local_mean_us"] < WAN_LATENCY_US / 10


def test_remote_accesses_pay_exactly_the_gateway_trip(sweep):
    for stats in sweep.values():
        # gateway->core->gateway is two WAN links each way.
        assert stats["remote_mean_us"] > 4 * WAN_LATENCY_US
        assert stats["remote_mean_us"] < 5 * WAN_LATENCY_US
