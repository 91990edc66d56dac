"""Multi-step invocation plans: the §5 query-planning co-design.

"We plan to explore placement issues through a co-design between query
planning and optimization, and network-level scheduling.  The structure
of the global address space... affords the system a view into the data
layout, allowing lower levels of the stack to participate in making more
intelligent placement decisions."

A :class:`Plan` is a linear pipeline of invocation steps whose
intermediate results flow between executors as *objects*: each step's
output is materialized where it ran, registered in the replica
directory, and pulled by the next step's executor — never detouring
through the invoker.  Each step is placed by the same rendezvous engine,
which now sees the true location of every intermediate, so the pipeline
migrates across the cluster following its data.

The contrast (benchmarked in E16) is the RPC idiom: every step returns
its full result to the invoker, which re-sends it as the next call's
argument — 2x the intermediate bytes over the invoker's links per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..core.objectid import ObjectID
from ..core.refs import GlobalRef
from .engine import MODE_EAGER, GlobalSpaceRuntime, InvokeResult
from .node import RuntimeError_

__all__ = ["PlanStep", "Plan", "PlanResult", "run_plan"]


@dataclass
class PlanStep:
    """One pipeline stage.

    ``inputs_from`` wires argument names to earlier steps' outputs (the
    value is decoded from the intermediate object at the executor);
    ``data_refs`` name external objects the step reads directly.
    """

    name: str
    code_ref: GlobalRef
    data_refs: Dict[str, GlobalRef] = field(default_factory=dict)
    inputs_from: Dict[str, str] = field(default_factory=dict)
    values: Dict[str, Any] = field(default_factory=dict)
    flops: float = 1e6


@dataclass
class Plan:
    """An ordered pipeline of steps (later steps may consume earlier
    outputs; a step may only reference steps before it)."""

    steps: List[PlanStep]

    def __post_init__(self) -> None:
        seen = set()
        names = [s.name for s in self.steps]
        if len(set(names)) != len(names):
            raise RuntimeError_("plan has duplicate step names")
        for step in self.steps:
            for producer in step.inputs_from.values():
                if producer not in seen:
                    raise RuntimeError_(
                        f"step {step.name!r} consumes {producer!r} which "
                        "does not precede it"
                    )
            seen.add(step.name)


@dataclass
class PlanResult:
    """The pipeline's final value plus its placement story."""

    value: Any
    latency_us: float
    step_results: List[InvokeResult]

    @property
    def executed_at(self) -> List[str]:
        """Executor node of each step, in order."""
        return [r.executed_at for r in self.step_results]


def run_plan(runtime: GlobalSpaceRuntime, invoker: str, plan: Plan,
             candidates: Optional[Iterable[str]] = None):
    """Process: execute ``plan`` from ``invoker``; returns :class:`PlanResult`.

    Each step is an eager invocation.  Every step except the last
    materializes its result where it ran; the final step's (small,
    by-value) result returns to the invoker, priced as 1 KiB.
    """
    sim = runtime.sim
    start = sim.now
    step_results: List[InvokeResult] = []
    intermediates: Dict[str, GlobalRef] = {}
    final_value: Any = None
    for index, step in enumerate(plan.steps):
        is_last = index == len(plan.steps) - 1
        data_refs = dict(step.data_refs)
        decode_args = []
        for arg, producer in step.inputs_from.items():
            data_refs[arg] = intermediates[producer]
            decode_args.append(arg)
        result = yield sim.spawn(runtime.invoke(
            invoker, step.code_ref,
            data_refs=data_refs,
            values=step.values,
            flops=step.flops,
            result_bytes=1024,
            mode=MODE_EAGER,
            candidates=candidates,
            decode_args=decode_args,
            materialize_result=not is_last,
        ))
        step_results.append(result)
        if is_last:
            final_value = result.value
        else:
            descriptor = result.value
            oid = ObjectID.from_hex(descriptor["__materialized__"])
            intermediates[step.name] = GlobalRef(oid, 0, "read")
    return PlanResult(
        value=final_value,
        latency_us=sim.now - start,
        step_results=step_results,
    )
