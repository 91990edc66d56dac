"""Trace and metrics exporters: JSON lines and Chrome ``trace_event``.

Two formats, both plain JSON:

* **JSONL** — one self-describing object per line (``{"type": "span",
  ...}``, ``{"type": "counter", ...}``); trivially grep/jq-able and the
  stable interchange format for downstream tooling.
* **Chrome trace** — the ``trace_event`` format's JSON Object form
  (``{"traceEvents": [...]}``) that ``chrome://tracing`` and Perfetto
  load directly.  Spans become complete (``"ph": "X"``) events whose
  ``ts``/``dur`` are already microseconds (the simulation unit *is* the
  trace_event unit).  Each trace id maps to a ``pid`` and each node
  name to a ``tid``, with ``"M"`` metadata events carrying the
  human-readable names.

:func:`chrome_trace_to_spans` reimports the span events, so an exported
file round-trips (the shape test in ``tests/test_obs.py`` relies on
this).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

from .span import Span

__all__ = [
    "spans_to_jsonl",
    "snapshot_to_jsonl",
    "to_chrome_trace",
    "chrome_trace_to_spans",
    "write_chrome_trace",
]

# Span fields that ride in a chrome event's "args" under reserved names
# so the reimporter can reconstruct identity and parentage.
_ARG_SPAN_ID = "span_id"
_ARG_PARENT_ID = "parent_id"
_ARG_NODE = "node"


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One ``{"type": "span", ...}`` JSON object per line."""
    lines = []
    for span in spans:
        entry = {"type": "span"}
        entry.update(span.as_dict())
        lines.append(json.dumps(entry, sort_keys=True, default=str))
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_to_jsonl(snapshot: Dict[str, Any]) -> str:
    """A registry snapshot as counter/series JSON lines."""
    lines = []
    for key in sorted(snapshot.get("counters", {})):
        lines.append(json.dumps(
            {"type": "counter", "key": key,
             "value": snapshot["counters"][key]}, sort_keys=True))
    for key in sorted(snapshot.get("series", {})):
        lines.append(json.dumps(
            {"type": "series", "key": key,
             "samples": snapshot["series"][key]}, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _jsonable(value: Any) -> Any:
    """Chrome's args values must be JSON scalars/containers."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def to_chrome_trace(spans: Sequence[Span],
                    skip_unfinished: bool = True) -> Dict[str, Any]:
    """Build a ``trace_event`` JSON-Object-format document.

    Unfinished spans (a failed invocation's open phases) are skipped by
    default — chrome has no well-defined rendering for a complete event
    without a duration.  Pass ``skip_unfinished=False`` to export them
    with ``dur=0`` and an ``unfinished`` arg instead.
    """
    trace_events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}
    named_pids: Dict[int, None] = {}

    def tid_for(node: str) -> int:
        if node not in tids:
            tids[node] = len(tids)
        return tids[node]

    for span in spans:
        if not span.finished and skip_unfinished:
            continue
        args: Dict[str, Any] = {k: _jsonable(v) for k, v in span.tags.items()}
        args[_ARG_SPAN_ID] = span.span_id
        if span.parent_id is not None:
            args[_ARG_PARENT_ID] = span.parent_id
        args[_ARG_NODE] = span.node
        if not span.finished:
            args["unfinished"] = True
        trace_events.append({
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": span.start_us,
            "dur": (span.duration_us if span.finished else 0.0),
            "pid": span.trace_id,
            "tid": tid_for(span.node),
            "args": args,
        })
        named_pids.setdefault(span.trace_id)
    metadata: List[Dict[str, Any]] = []
    for pid in named_pids:
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"trace {pid}"},
        })
    for node, tid in tids.items():
        for pid in named_pids:
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": node},
            })
    trace_events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
    return {
        "traceEvents": metadata + [e for e in trace_events if e["ph"] != "M"],
        "displayTimeUnit": "ms",  # chrome zoom preference; ts stays in µs
        "otherData": {"source": "repro.obs", "clock": "simulated-us"},
    }


def chrome_trace_to_spans(document: Dict[str, Any]) -> List[Span]:
    """Reimport the span events of a chrome trace document.

    Only complete (``"X"``) events are spans; metadata and instants are
    skipped.  The reserved ``args`` fields restore ids, parent links,
    and node names; remaining args become tags.
    """
    spans: List[Span] = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop(_ARG_SPAN_ID, None)
        parent_id = args.pop(_ARG_PARENT_ID, None)
        node = args.pop(_ARG_NODE, "")
        args.pop("unfinished", None)
        spans.append(Span(
            span_id=span_id if span_id is not None else len(spans) + 1,
            name=event["name"],
            trace_id=event["pid"],
            start_us=event["ts"],
            end_us=event["ts"] + event["dur"],
            parent_id=parent_id,
            node=node,
            tags=args,
        ))
    spans.sort(key=lambda s: (s.start_us, s.span_id))
    return spans


def write_chrome_trace(path: str, spans: Sequence[Span]) -> Dict[str, Any]:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the dict."""
    document = to_chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    return document
