"""The cluster-wide metrics registry.

Every node and protocol layer in the reproduction owns a
:class:`~repro.sim.Tracer`; before this layer existed each one was an
island.  A :class:`MetricsRegistry` names them hierarchically
(``net.host.n0``, ``discovery.e2e``, ``runtime.node.n2``, …) so one call
sees the whole cluster:

* :meth:`snapshot` — every counter and sample series, flattened to
  ``"<tracer-name>:<key>"`` (the ``:`` separates the *where* from the
  *what*; key names themselves are dotted);
* :meth:`merge` — combine snapshots from independent runs/registries
  (counters add, series concatenate);
* :meth:`checkpoint` / :meth:`since` / :meth:`diff` — what changed
  between two points of a run (counter deltas, new-sample counts).

The :class:`~repro.net.topology.Network` registers hosts, switches, and
the shared link tracer automatically; the runtime adds its engine,
placement, and per-node tracers; the discovery schemes self-register
when given a registry.  Naming rules live in OBSERVABILITY.md.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import NullTracer, Tracer

__all__ = ["MetricsRegistry", "RegistryError"]

# Hierarchical tracer names: dot-separated segments of word characters
# and dashes ("net.host.n0", "discovery.e2e").
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+(\.[A-Za-z0-9_-]+)*$")

# Separates the tracer's registry name from the key it recorded.
NAME_KEY_SEP = ":"


class RegistryError(Exception):
    """Bad registrations: invalid names, conflicting entries."""


class MetricsRegistry:
    """Hierarchically named tracers with cluster-wide snapshot/merge/diff."""

    def __init__(self) -> None:
        self._tracers: "OrderedDict[str, Tracer]" = OrderedDict()
        self._checkpoints: Dict[str, Dict[str, Any]] = {}

    # -- registration --------------------------------------------------------
    def register(self, name: str, tracer: Optional[Tracer] = None,
                 replace: bool = False) -> Tracer:
        """Register ``tracer`` under the hierarchical ``name``.

        With ``tracer=None`` a fresh one is created (get-or-create for
        layers that do not construct their own).  Re-registering the
        *same* tracer object is a no-op; a different tracer under an
        existing name raises unless ``replace=True`` (which a rebuilt
        runtime over an existing network uses).
        """
        if not _NAME_RE.match(name):
            raise RegistryError(f"invalid tracer name {name!r} "
                                "(want dot-separated segments, e.g. 'net.host.n0')")
        existing = self._tracers.get(name)
        if tracer is None:
            tracer = existing if existing is not None else Tracer()
        if existing is not None and existing is not tracer and not replace:
            raise RegistryError(f"tracer name {name!r} already registered")
        self._tracers[name] = tracer
        return tracer

    def get(self, name: str) -> Tracer:
        """Tracer by name; raises ``KeyError`` if unknown."""
        return self._tracers[name]

    def items(self) -> List[Tuple[str, Tracer]]:
        """(name, tracer) pairs, sorted by name."""
        return sorted(self._tracers.items())

    def __contains__(self, name: str) -> bool:
        return name in self._tracers

    def __len__(self) -> int:
        return len(self._tracers)

    # -- snapshot ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flatten every registered tracer into one cluster-wide view.

        Returns ``{"counters": {full_key: int},
        "series": {full_key: [samples...]}}`` where ``full_key`` is
        ``"<tracer-name>:<key>"``.  Series keep their raw samples so
        snapshots merge losslessly; summarize at presentation time.
        """
        counters: Dict[str, int] = {}
        series: Dict[str, List[float]] = {}
        for name, tracer in self.items():
            if isinstance(tracer, NullTracer):
                # Untraced node: nothing was recorded, so contribute no
                # keys rather than scanning (always-empty) collections.
                continue
            for key, value in tracer.counters.as_dict().items():
                counters[f"{name}{NAME_KEY_SEP}{key}"] = value
            for key in tracer.series.keys():
                series[f"{name}{NAME_KEY_SEP}{key}"] = tracer.series.samples(key)
        return {"counters": counters, "series": series}

    @staticmethod
    def merge(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
        """Combine snapshots (e.g. from independent simulations):
        counters under the same full key add, series concatenate."""
        counters: Dict[str, int] = {}
        series: Dict[str, List[float]] = {}
        for snap in snapshots:
            for key, value in snap.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + value
            for key, samples in snap.get("series", {}).items():
                series.setdefault(key, []).extend(samples)
        return {"counters": counters, "series": series}

    @staticmethod
    def diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
        """What happened between two snapshots of the *same* registry.

        Counters report deltas (zero deltas omitted; keys absent from
        ``before`` count from 0).  Series report how many new samples
        arrived, under the same full keys.
        """
        counters: Dict[str, int] = {}
        keys = set(after.get("counters", {})) | set(before.get("counters", {}))
        for key in keys:
            delta = (after.get("counters", {}).get(key, 0)
                     - before.get("counters", {}).get(key, 0))
            if delta != 0:
                counters[key] = delta
        series: Dict[str, int] = {}
        skeys = set(after.get("series", {})) | set(before.get("series", {}))
        for key in skeys:
            delta = (len(after.get("series", {}).get(key, ()))
                     - len(before.get("series", {}).get(key, ())))
            if delta != 0:
                series[key] = delta
        return {"counters": counters, "series": series}

    # -- checkpoints ---------------------------------------------------------
    def checkpoint(self, label: str) -> Dict[str, Any]:
        """Store (and return) the current snapshot under ``label``."""
        snap = self.snapshot()
        self._checkpoints[label] = snap
        return snap

    def since(self, label: str) -> Dict[str, Any]:
        """Diff of the current state against the named checkpoint."""
        if label not in self._checkpoints:
            raise KeyError(f"no checkpoint {label!r}")
        return self.diff(self.snapshot(), self._checkpoints[label])

    def __repr__(self) -> str:
        return f"<MetricsRegistry tracers={len(self._tracers)}>"
