"""Arming fault plans against a live network.

The :class:`FaultInjector` turns the pure-data events of a
:class:`~repro.faults.plan.FaultPlan` into scheduled simulator
callbacks: host crashes flip :meth:`Host.fail`, link events flip
:meth:`Link.fail`/:meth:`Link.recover` or swap loss rates, partitions
install cross-group ingress filters via
:meth:`Network.set_partition`.  Every applied event is counted under
the ``faults.injected.<kind>`` prefix family on the injector's tracer
(registered as ``faults.injector`` with the network's metrics
registry), so a metrics snapshot records exactly what the run was
subjected to.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.keys import K_FAULTS_INJECTED
from ..sim import Tracer
from ..net.topology import Network
from . import plan as p
from .plan import FaultEvent, FaultPlan, FaultPlanError

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto one network's simulator."""

    def __init__(self, network: Network, plan: FaultPlan,
                 tracer: Optional[Tracer] = None):
        self.network = network
        self.sim = network.sim
        self.plan = plan
        self.tracer = tracer if tracer is not None else Tracer()
        network.metrics.register("faults.injector", self.tracer, replace=True)
        self._handles: List[list] = []
        # Loss rates saved at degrade time so RESTORE puts back whatever
        # the link was configured with, not a hard-coded zero.
        self._saved_loss: Dict[Tuple[str, str], float] = {}
        self._armed = False

    # -- lifecycle ---------------------------------------------------------
    def arm(self) -> int:
        """Schedule every plan event; returns the number scheduled.

        Events in the past (relative to ``sim.now``) are rejected —
        plans are written against a run's t=0.
        """
        if self._armed:
            raise FaultPlanError("fault plan already armed")
        self._armed = True
        for event in self.plan.events:
            if event.at_us < self.sim.now:
                raise FaultPlanError(
                    f"{event.kind} at t={event.at_us} is in the past "
                    f"(sim is at t={self.sim.now})")
            self._handles.append(
                self.sim.schedule_at(event.at_us, self._apply, event))
        return len(self._handles)

    def cancel(self) -> None:
        """Cancel every not-yet-fired event (already-applied faults
        stay applied)."""
        for handle in self._handles:
            self.sim.cancel(handle)
        self._handles = []

    # -- event application -------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        handler = self._HANDLERS[event.kind]
        handler(self, event)
        self.tracer.count(K_FAULTS_INJECTED + event.kind)
        self.tracer.event(self.sim.now, "fault", kind=event.kind,
                          target=list(event.target))

    def _apply_crash(self, event: FaultEvent) -> None:
        self.network.host(event.target[0]).fail()

    def _apply_recover(self, event: FaultEvent) -> None:
        self.network.host(event.target[0]).recover()

    def _apply_link_down(self, event: FaultEvent) -> None:
        self.network.link_between(*event.target).fail()

    def _apply_link_up(self, event: FaultEvent) -> None:
        self.network.link_between(*event.target).recover()

    def _apply_degrade(self, event: FaultEvent) -> None:
        link = self.network.link_between(*event.target)
        key = tuple(sorted(event.target))
        self._saved_loss.setdefault(key, link.loss_rate)
        link.loss_rate = event.params["loss"]

    def _apply_restore(self, event: FaultEvent) -> None:
        link = self.network.link_between(*event.target)
        key = tuple(sorted(event.target))
        link.loss_rate = self._saved_loss.pop(key, 0.0)

    def _apply_partition(self, event: FaultEvent) -> None:
        self.network.set_partition(event.params["groups"])

    def _apply_heal(self, event: FaultEvent) -> None:
        self.network.clear_partition()

    _HANDLERS = {
        p.KIND_CRASH: _apply_crash,
        p.KIND_RECOVER: _apply_recover,
        p.KIND_LINK_DOWN: _apply_link_down,
        p.KIND_LINK_UP: _apply_link_up,
        p.KIND_DEGRADE: _apply_degrade,
        p.KIND_RESTORE: _apply_restore,
        p.KIND_PARTITION: _apply_partition,
        p.KIND_HEAL: _apply_heal,
    }

    def __repr__(self) -> str:
        state = "armed" if self._armed else "idle"
        return f"<FaultInjector {state} plan={self.plan!r}>"
