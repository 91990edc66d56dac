"""E2 / Figure 3: E2E access time as the destination cache goes stale.

Paper: "Figure 3 shows what happens as the destination cache in E2E
grows stale.  Rebroadcasts cause a significant amount of overhead, as
the average number of RTTs goes up from 1 to 2.  As staleness becomes
overwhelming, the variability drops again since nearly all accesses
require 2 round trips.  Situations where the network can absorb some of
the cost here... can reduce network traffic and latency."

Also runs the two §4-suggested mitigations as ablations: old-holder
request forwarding (the network absorbing the cost) and the controller
scheme under the same movement churn.
"""

import pytest

from repro.discovery import SCHEME_CONTROLLER, SCHEME_E2E, run_fig3_point

from conftest import print_table

SWEEP = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]


@pytest.fixture(scope="module")
def sweeps():
    return {
        SCHEME_E2E: [run_fig3_point(pct) for pct in SWEEP],
        "forwarding": [
            run_fig3_point(pct, use_forwarding_hints=True) for pct in SWEEP
        ],
        SCHEME_CONTROLLER: [
            run_fig3_point(pct, scheme=SCHEME_CONTROLLER) for pct in SWEEP
        ],
    }


def test_fig3_regenerate(sweeps):
    rows = []
    for pct, plain, fwd, ctl in zip(SWEEP, sweeps[SCHEME_E2E], sweeps["forwarding"],
                                    sweeps[SCHEME_CONTROLLER]):
        rows.append([
            pct,
            plain.mean_rtt_us, plain.stdev_rtt_us, plain.mean_round_trips,
            fwd.mean_rtt_us, ctl.mean_rtt_us,
        ])
    print_table(
        "Figure 3: E2E access time vs % accesses to moved objects",
        ["moved%", "e2e_mean_us", "e2e_sd", "e2e_rtts",
         "fwd_mean_us", "ctl_mean_us"],
        rows,
    )


def test_mean_rises_from_one_to_two_rtts(sweeps):
    points = sweeps[SCHEME_E2E]
    assert points[0].mean_round_trips == pytest.approx(1.0, abs=0.05)
    assert points[-1].mean_round_trips > 1.75
    assert points[-1].mean_rtt_us > 1.6 * points[0].mean_rtt_us


def test_variability_peaks_then_drops(sweeps):
    """The paper's distinctive non-monotone variance shape."""
    points = sweeps[SCHEME_E2E]
    stdevs = [p.stdev_rtt_us for p in points]
    mid = max(stdevs[3:7])
    assert mid > stdevs[0]
    assert mid > stdevs[-1]


def test_growth_is_monotone_in_thirds(sweeps):
    points = sweeps[SCHEME_E2E]
    means = [p.mean_rtt_us for p in points]
    assert sum(means[:3]) < sum(means[3:6]) < sum(means[-3:])


def test_forwarding_absorbs_the_cost(sweeps):
    """Old-holder forwarding removes both the rebroadcasts and most of
    the added latency — the §4 closing observation."""
    for plain, forwarded in zip(sweeps[SCHEME_E2E][5:], sweeps["forwarding"][5:]):
        assert forwarded.mean_rtt_us < plain.mean_rtt_us
        assert forwarded.broadcasts_per_100 == 0


def test_controller_immune_to_staleness(sweeps):
    points = sweeps[SCHEME_CONTROLLER]
    base = points[0].mean_rtt_us
    for point in points:
        assert point.failures == 0
        assert point.mean_rtt_us == pytest.approx(base, rel=0.25)


def test_no_access_failures(sweeps):
    for series in sweeps.values():
        assert all(p.failures == 0 for p in series)
