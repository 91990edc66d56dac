"""Discrete-event simulation kernel for the reproduction.

Exports the event loop (:class:`Simulator`), process machinery, the
synchronization primitives used throughout the network substrate, and the
measurement helpers the benchmark harness reads its numbers from.
"""

from .loop import (
    MSEC,
    SEC,
    USEC,
    AllOf,
    Process,
    Signal,
    SimError,
    Simulator,
    Timeout,
)
from .primitives import Future, Resource, Store
from .trace import (
    NULL_TRACER,
    Counter,
    NullTracer,
    SampleSeries,
    Summary,
    Tracer,
    percentile,
    summarize,
)

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Signal",
    "AllOf",
    "SimError",
    "Store",
    "Resource",
    "Future",
    "Counter",
    "SampleSeries",
    "Summary",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "summarize",
    "percentile",
    "USEC",
    "MSEC",
    "SEC",
]
