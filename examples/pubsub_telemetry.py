#!/usr/bin/env python
"""Packet subscriptions: identity-routed pub/sub in the network (§3.2).

Topics are object IDs.  Subscribing installs identity routes (multicast
port sets) in the switches; publishing sends one identity-routed packet
the switches replicate — no broker host on the data path.  Predicates
over a user-defined packet format compile to exact-match rules, with
residuals filtered at the subscriber NIC.

Run:  python examples/pubsub_telemetry.py
"""

from repro import Simulator, Timeout, build_paper_topology
from repro.core import IDAllocator
from repro.pubsub import (
    And,
    Eq,
    FormatField,
    InRange,
    PacketFormat,
    PubSubFabric,
)

TELEMETRY = PacketFormat("telemetry", [
    FormatField("sensor_kind", 16),   # 0=thermal 1=vibration 2=power
    FormatField("severity", 8),       # 0..255
    FormatField("rack", 8),
])


def main():
    sim = Simulator(seed=31)
    net = build_paper_topology(sim)
    fabric = PubSubFabric(net, TELEMETRY)
    alerts_topic = IDAllocator(seed=32).allocate()
    print(f"topic (an object ID): {alerts_topic}")

    inbox = {"resp1": [], "resp2": []}
    subs = [fabric.subscribe(
        "resp1", alerts_topic,
        lambda fields, payload: inbox["resp1"].append(fields),
        predicate=And(Eq("sensor_kind", 0), InRange("severity", 200, 255)),
    ), fabric.subscribe(
        "resp2", alerts_topic,
        lambda fields, payload: inbox["resp2"].append(fields),
        predicate=Eq("rack", 7),
    )]
    print("resp1 subscribes to: critical thermal events (kind=0, sev>=200)")
    print("resp2 subscribes to: anything from rack 7\n")

    events = [
        {"sensor_kind": 0, "severity": 250, "rack": 7},   # both
        {"sensor_kind": 0, "severity": 10, "rack": 7},    # resp2 only
        {"sensor_kind": 1, "severity": 255, "rack": 3},   # neither
        {"sensor_kind": 0, "severity": 220, "rack": 1},   # resp1 only
    ]

    def publisher():
        for event in events:
            fabric.publish("driver", alerts_topic, event, b"telemetry-blob")
        yield Timeout(2_000)

    sim.run_process(publisher())

    for name, received in inbox.items():
        print(f"{name} received {len(received)} event(s):")
        for fields in received:
            print(f"   {fields}")
    assert len(inbox["resp1"]) == 2
    assert len(inbox["resp2"]) == 2

    ruleset = fabric.compiled_rules()
    print(f"\ncompiled to {ruleset.entries_used()} exact-match switch rules "
          f"({ruleset.sram_words_used()} SRAM words) "
          f"+ {len(ruleset.residuals)} host-side residual predicate(s)")
    total = fabric.tracer.counters["pubsub.delivered"]
    filtered = fabric.tracer.counters["pubsub.residual_filtered"]
    print(f"fabric stats: {total} delivered, {filtered} filtered at the NIC")

    # The last subscriber leaving withdraws the topic's identity routes:
    # every switch frees the table entry, and a later publication is
    # delivered to no one.
    for sub in subs:
        fabric.unsubscribe(sub)
    assert not any(alerts_topic in switch.identity_table
                   for switch in net.switches)

    def late_publisher():
        fabric.publish("driver", alerts_topic, events[0], b"telemetry-blob")
        yield Timeout(2_000)

    sim.run_process(late_publisher())
    assert fabric.tracer.counters["pubsub.delivered"] == total
    print("both unsubscribed: routes withdrawn from every switch, "
          "a late publication reached no one")


if __name__ == "__main__":
    main()
