"""The cluster-wide metrics registry.

Every node and protocol layer in the reproduction owns a
:class:`~repro.sim.Tracer`; before this layer existed each one was an
island.  A :class:`MetricsRegistry` names them hierarchically
(``net.host.n0``, ``discovery.e2e``, ``runtime.node.n2``, …) so one call,
:meth:`~MetricsRegistry.snapshot`, sees the whole cluster: every counter
and sample series flattened to ``"<tracer-name>:<key>"`` (the ``:``
separates the *where* from the *what*; key names themselves are dotted).

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
    """Hierarchically named tracers with one cluster-wide snapshot."""

    def __init__(self) -> None:
        self._tracers: "OrderedDict[str, Tracer]" = OrderedDict()

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
        ``"<tracer-name>:<key>"``.  Series keep their raw samples;
        summarize at presentation time.
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

    def __repr__(self) -> str:
        return f"<MetricsRegistry tracers={len(self._tracers)}>"
