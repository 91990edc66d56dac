"""E1 / Figure 2: access RTT and broadcast load vs. fraction of new objects.

Paper: "Figure 2 shows RTT of both methods when accessing a mix of new
and old objects... Our results show that switch processing overhead is
minimal, even as new objects proliferate."

Regenerates both series of the figure: the controller scheme's flat
1-RTT unicast line, the E2E scheme's RTT climbing toward 2 RTTs, and the
secondary axis (broadcast messages per 100 accesses) growing linearly
with the new-object percentage.
"""

import pytest

from repro.discovery import SCHEME_CONTROLLER, SCHEME_E2E, run_fig2_point

from conftest import print_table

SWEEP = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]
N_ACCESSES = 100


def _run_sweep(scheme):
    return [run_fig2_point(scheme, pct, n_accesses=N_ACCESSES) for pct in SWEEP]


@pytest.fixture(scope="module")
def sweeps():
    return {
        SCHEME_CONTROLLER: _run_sweep(SCHEME_CONTROLLER),
        SCHEME_E2E: _run_sweep(SCHEME_E2E),
    }


def test_fig2_regenerate(sweeps):
    """Print the full figure data."""
    rows = []
    for pct, ctl, e2e in zip(SWEEP, sweeps[SCHEME_CONTROLLER], sweeps[SCHEME_E2E]):
        rows.append([
            pct,
            ctl.mean_rtt_us, ctl.stdev_rtt_us, ctl.broadcasts_per_100,
            e2e.mean_rtt_us, e2e.stdev_rtt_us, e2e.broadcasts_per_100,
        ])
    print_table(
        "Figure 2: RTT vs % accesses to new objects (controller | E2E)",
        ["new%", "ctl_mean_us", "ctl_sd", "ctl_bc/100",
         "e2e_mean_us", "e2e_sd", "e2e_bc/100"],
        rows,
    )


def test_controller_rtt_flat(sweeps):
    """Controller latency is uniform: new objects are advertised off the
    access path, so the line does not rise with new%."""
    points = sweeps[SCHEME_CONTROLLER]
    base = points[0].mean_rtt_us
    assert all(p.mean_rtt_us == pytest.approx(base, rel=0.05) for p in points)


def test_controller_never_broadcasts(sweeps):
    assert all(p.broadcasts_per_100 == 0 for p in sweeps[SCHEME_CONTROLLER])


def test_e2e_rtt_grows_with_new_fraction(sweeps):
    points = sweeps[SCHEME_E2E]
    assert points[-1].mean_rtt_us > 1.5 * points[0].mean_rtt_us
    # Monotone-ish growth: compare thirds of the sweep.
    first_third = sum(p.mean_rtt_us for p in points[:3])
    last_third = sum(p.mean_rtt_us for p in points[-3:])
    assert last_third > first_third


def test_e2e_broadcasts_track_new_percentage(sweeps):
    """Broadcast count per 100 accesses is roughly the new-object
    percentage (one discovery broadcast per first access)."""
    for pct, point in zip(SWEEP, sweeps[SCHEME_E2E]):
        assert point.broadcasts_per_100 == pytest.approx(pct, abs=18)


def test_e2e_approaches_two_round_trips(sweeps):
    assert sweeps[SCHEME_E2E][-1].mean_round_trips > 1.7


def test_switch_processing_overhead_minimal(sweeps):
    """The paper's headline: identity routing in the switch adds minimal
    overhead even as new objects proliferate — controller-scheme access
    latency is dominated by propagation, not switch processing."""
    point = sweeps[SCHEME_CONTROLLER][-1]
    # 0.5us of pipeline delay per switch crossing; a 3-hop path crosses
    # 2 switches each way. Processing is < 10% of the access RTT.
    processing_share = (2 * 2 * 0.5) / point.mean_rtt_us
    assert processing_share < 0.10


def test_no_access_failures(sweeps):
    for scheme_points in sweeps.values():
        assert all(p.failures == 0 for p in scheme_points)
