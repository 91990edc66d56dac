"""Regression gating: diff two BENCH.json documents.

``python -m repro bench compare BASELINE CANDIDATE`` loads two result
files written by the runner and reports, per scenario:

* the relative change in ``ops_per_sim_sec`` — the deterministic
  throughput of the *modelled* system (more broadcasts per access,
  more retransmissions, more hops all push it down), gated by
  ``--threshold``;
* counter drifts, reported but never gated — they explain *why* a
  rate moved.

Exit codes: 0 clean, 1 at least one regression past its threshold,
2 unusable input (missing file, schema mismatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .runner import BenchError, load_document

__all__ = ["CompareReport", "ScenarioDelta", "compare_documents", "compare_files"]

#: Default gate on the deterministic simulated rate (10% slower fails).
DEFAULT_THRESHOLD = 0.10


@dataclass
class ScenarioDelta:
    """One scenario's baseline-vs-candidate movement."""

    name: str
    sim_rate_change: Optional[float]  # relative; None when not comparable
    counter_drift: Dict[str, int] = field(default_factory=dict)
    regressed: bool = False
    notes: List[str] = field(default_factory=list)


@dataclass
class CompareReport:
    """The full diff: per-scenario deltas plus membership changes."""

    deltas: List[ScenarioDelta]
    only_in_baseline: List[str]
    only_in_candidate: List[str]

    @property
    def regressions(self) -> List[ScenarioDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _rel_change(baseline: float, candidate: float) -> Optional[float]:
    if baseline <= 0:
        return None
    return (candidate - baseline) / baseline


def compare_documents(
    baseline: dict,
    candidate: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> CompareReport:
    """Diff two loaded result documents; pure function, no I/O."""
    base_scen = baseline["scenarios"]
    cand_scen = candidate["scenarios"]
    shared = sorted(set(base_scen) & set(cand_scen))
    deltas: List[ScenarioDelta] = []
    for name in shared:
        b, c = base_scen[name], cand_scen[name]
        delta = ScenarioDelta(
            name=name,
            sim_rate_change=_rel_change(b.get("ops_per_sim_sec", 0.0),
                                        c.get("ops_per_sim_sec", 0.0)),
        )
        if delta.sim_rate_change is not None and delta.sim_rate_change < -threshold:
            delta.regressed = True
            delta.notes.append(
                f"simulated rate fell {-delta.sim_rate_change:.1%} "
                f"(threshold {threshold:.0%})")
        b_counters = b.get("counters", {})
        c_counters = c.get("counters", {})
        for key in sorted(set(b_counters) | set(c_counters)):
            drift = c_counters.get(key, 0) - b_counters.get(key, 0)
            if drift != 0:
                delta.counter_drift[key] = drift
        deltas.append(delta)
    return CompareReport(
        deltas=deltas,
        only_in_baseline=sorted(set(base_scen) - set(cand_scen)),
        only_in_candidate=sorted(set(cand_scen) - set(base_scen)),
    )


def _format_change(change: Optional[float]) -> str:
    if change is None:
        return "     n/a"
    return f"{change:+8.1%}"


def compare_files(
    baseline_path: str,
    candidate_path: str,
    threshold: float = DEFAULT_THRESHOLD,
) -> int:
    """Load, diff, print a report, and return the process exit code."""
    try:
        baseline = load_document(baseline_path)
        candidate = load_document(candidate_path)
    except (OSError, ValueError, BenchError) as exc:
        print(f"compare: {exc}")
        return 2
    report = compare_documents(baseline, candidate, threshold=threshold)
    print(f"comparing {baseline_path} (baseline) -> {candidate_path} (candidate)")
    print(f"  {'scenario':28s} {'sim rate':>8s}")
    for delta in report.deltas:
        marker = "  REGRESSED" if delta.regressed else ""
        print(f"  {delta.name:28s} {_format_change(delta.sim_rate_change)}{marker}")
        for note in delta.notes:
            print(f"      {note}")
        for key, drift in delta.counter_drift.items():
            print(f"      counter {key}: {drift:+d}")
    for name in report.only_in_baseline:
        print(f"  {name}: only in baseline (removed?)")
    for name in report.only_in_candidate:
        print(f"  {name}: only in candidate (new)")
    if not report.ok:
        print(f"FAIL: {len(report.regressions)} scenario(s) regressed")
        return 1
    print("ok: no regressions past threshold")
    return 0
