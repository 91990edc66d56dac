"""Per-node suspicion state feeding placement.

The §5 partial-failure problem is not just surviving one timeout — it
is *not sending the next invocation to the same dead host*.  The
:class:`HealthLedger` is the runtime's memory of who recently failed to
answer: invocation deadlines mark an executor suspected, successful
replies (or any reply traffic from the node) clear it, and suspicion
expires on its own after ``SUSPICION_TTL_US`` so a recovered host is
eventually trusted again even if it never happens to serve a request.

``GlobalSpaceRuntime.live_profiles`` consults the ledger and inflates a
suspected node's apparent queue depth by ``SUSPECT_PENALTY_JOBS``, so
placement deprioritizes it without hard-excluding it — a suspected node
can still win if it is the only feasible candidate (it may well be
alive; suspicion is a guess, not a verdict).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..obs.keys import K_HEALTH_CLEARED, K_HEALTH_SUSPECTED
from ..sim import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = ["HealthLedger"]


class HealthLedger:
    """Suspicion timestamps per node name, with TTL expiry."""

    # Queue depth a suspected node's profile is charged with.
    SUSPECT_PENALTY_JOBS = 1_000

    # How long one suspicion lasts unless a reply clears it first.
    SUSPICION_TTL_US = 1_000_000.0

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.tracer = Tracer()
        self._suspect_until: Dict[str, float] = {}
        self._listeners: List[Callable[[str], None]] = []

    def add_listener(self, fn: Callable[[str], None]) -> None:
        """Call ``fn(node)`` on every suspicion-state transition.

        This is what lets consumers (the runtime's live-profile cache)
        maintain derived state incrementally instead of re-querying the
        ledger per placement decision.
        """
        self._listeners.append(fn)

    def _notify(self, node: str) -> None:
        for fn in self._listeners:
            fn(node)

    # -- state transitions -------------------------------------------------
    def suspect(self, node: str) -> None:
        """Mark ``node`` suspected until now + TTL (timeouts land here)."""
        self._suspect_until[node] = self.sim.now + self.SUSPICION_TTL_US
        self.tracer.count(K_HEALTH_SUSPECTED)
        self._notify(node)

    def clear(self, node: str) -> None:
        """Clear suspicion of ``node`` (a reply proves it is alive)."""
        if self._suspect_until.pop(node, None) is not None:
            self.tracer.count(K_HEALTH_CLEARED)
            self._notify(node)

    # -- queries -----------------------------------------------------------
    def is_suspected(self, node: str) -> bool:
        """True while ``node``'s suspicion has not expired or cleared."""
        until = self._suspect_until.get(node)
        if until is None:
            return False
        if self.sim.now >= until:
            del self._suspect_until[node]
            return False
        return True

    def suspected(self) -> Set[str]:
        """Names of every currently suspected node."""
        return {name for name in list(self._suspect_until)
                if self.is_suspected(name)}

    def suspicion_expiry(self, node: str) -> Optional[float]:
        """Sim time when ``node``'s current suspicion lapses on its own
        (``None`` when not suspected).  TTL expiry fires no listener —
        nothing *happens* at that instant — so cached views use this
        horizon to know when their entry goes stale by time alone."""
        until = self._suspect_until.get(node)
        if until is None or self.sim.now >= until:
            return None
        return until

    def penalty_jobs(self, node: str) -> int:
        """Queue-depth surcharge placement folds into a node's profile."""
        return self.SUSPECT_PENALTY_JOBS if self.is_suspected(node) else 0

    def __repr__(self) -> str:
        return f"<HealthLedger suspected={sorted(self.suspected())}>"
