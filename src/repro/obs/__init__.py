"""Observability: spans, the cluster-wide metrics registry, exporters.

This layer sits directly on :mod:`repro.sim` (it imports nothing above
it), so every other layer — net, core, runtime, discovery — can emit
spans and register tracers without import cycles.  OBSERVABILITY.md's
"## Vocabulary" tables are the trace-key vocabulary (``keys`` holds only
the constants instrumentation sites share); it also has usage recipes.
"""

from .export import (
    chrome_trace_to_spans,
    snapshot_to_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
    write_chrome_trace,
)
from .registry import MetricsRegistry, RegistryError
from .span import Span, SpanRecorder

__all__ = [
    "Span",
    "SpanRecorder",
    "MetricsRegistry",
    "RegistryError",
    "spans_to_jsonl",
    "snapshot_to_jsonl",
    "to_chrome_trace",
    "chrome_trace_to_spans",
    "write_chrome_trace",
]
