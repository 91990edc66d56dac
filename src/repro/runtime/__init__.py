"""The global-space runtime: cluster nodes, execution contexts, and the
rendezvous invocation engine — the paper's headline programming model."""

from .engine import (
    MODE_EAGER,
    MODE_ISOLATED,
    MODE_LAZY,
    MODE_PROXIED,
    GlobalSpaceRuntime,
    InvokeResult,
    InvokeTimeout,
    ReservationTable,
    RetryPolicy,
)
from .node import (
    ClusterNode,
    ExecutionContext,
    FetchTimeout,
    NodeProxyBackend,
    RuntimeError_,
)
from .plan import Plan, PlanResult, PlanStep, run_plan

__all__ = [
    "ReservationTable",
    "MODE_ISOLATED",
    "GlobalSpaceRuntime",
    "InvokeResult",
    "InvokeTimeout",
    "RetryPolicy",
    "ClusterNode",
    "ExecutionContext",
    "FetchTimeout",
    "RuntimeError_",
    "MODE_EAGER",
    "MODE_LAZY",
    "MODE_PROXIED",
    "NodeProxyBackend",
    "Plan",
    "PlanStep",
    "PlanResult",
    "run_plan",
]
