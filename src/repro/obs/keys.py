"""Named constants for the trace keys instrumentation sites share.

The vocabulary itself (every counter, series, event and span name the
instrumented hot paths may use, with its kind and unit) is the table
under "## Vocabulary" in OBSERVABILITY.md, and nowhere else.
``scripts/check_docs.py`` checks each row there (kind, unit, one row
per key), that each key is emitted by the source and read by something
other than the call that records it (a test, a claim, a script or a
``BENCHMARK.json`` metric), and that every key recorded on an
instrumented path has a row.

The ``SPAN_*`` and ``K_*`` constants exist so instrumentation sites and
tests never hand-type these strings; generic span names like
``compute`` could not otherwise be grepped for reliably.
"""

from __future__ import annotations

__all__ = [
    "SPAN_INVOKE", "SPAN_PLACEMENT", "SPAN_REQUEST", "SPAN_STAGE_IN",
    "SPAN_FETCH", "SPAN_QUEUE", "SPAN_COMPUTE", "SPAN_RETURN",
    "K_INVOCATIONS", "K_PLACED_AT", "K_INVOKE_US",
    "K_INVOKE_RETRIES", "K_INVOKE_FAILOVER", "K_INVOKE_DEADLINE",
    "K_HEALTH_SUSPECTED", "K_HEALTH_CLEARED", "K_FAULTS_INJECTED",
]


# -- span names (one tree per invocation; root is `invoke`) -------------------
SPAN_INVOKE = "invoke"
SPAN_PLACEMENT = "placement"
SPAN_REQUEST = "request"
SPAN_STAGE_IN = "stage_in"
SPAN_FETCH = "fetch"
SPAN_QUEUE = "queue"
SPAN_COMPUTE = "compute"
SPAN_RETURN = "return"

# -- counter/series constants used at instrumentation sites ------------------
K_INVOCATIONS = "runtime.invocations"
K_PLACED_AT = "runtime.placed_at."  # prefix family; suffix = node name
K_INVOKE_US = "runtime.invoke_us"
K_INVOKE_RETRIES = "invoke.retries"
K_INVOKE_FAILOVER = "invoke.failover"
K_INVOKE_DEADLINE = "invoke.deadline_exceeded"
K_HEALTH_SUSPECTED = "health.suspected"
K_HEALTH_CLEARED = "health.cleared"
K_FAULTS_INJECTED = "faults.injected."  # prefix family; suffix = event kind

