"""Observability: spans, the cluster-wide metrics registry, exporters.

This layer sits directly on :mod:`repro.sim` (it imports nothing above
it), so every other layer — net, core, runtime, discovery — can emit
spans and register tracers without import cycles.  See OBSERVABILITY.md
for the trace-key vocabulary and usage recipes.
"""

from .export import (
    chrome_trace_to_spans,
    snapshot_to_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
    write_chrome_trace,
)
from .keys import VOCABULARY, KeySpec
from .registry import MetricsRegistry, RegistryError
from .span import Span, SpanRecorder

__all__ = [
    "Span",
    "SpanRecorder",
    "MetricsRegistry",
    "RegistryError",
    "KeySpec",
    "VOCABULARY",
    "spans_to_jsonl",
    "snapshot_to_jsonl",
    "to_chrome_trace",
    "chrome_trace_to_spans",
    "write_chrome_trace",
]
