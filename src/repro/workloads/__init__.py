"""Workloads: the paper's motivating applications, runnable over both
the RPC baseline and the global object space."""

from .inference import (
    Activation,
    ModelPartition,
    SparseModel,
    build_partition_chain,
    dot_product,
    partition_flops,
    personalize,
    read_partition_object,
    register_proxied_serving,
    write_partition_object,
)
from .kvstore import ObjectKVClient, ObjectKVService, RpcKVClient, RpcKVService
from .scenario import STRATEGIES, Scenario, StrategyResult, build_scenario, run_strategy
from .traversal import (
    LIST_NODE,
    build_linked_list,
    local_traverse,
    register_proxied_traversal,
    register_traversal,
)

__all__ = [
    "ModelPartition",
    "SparseModel",
    "Activation",
    "dot_product",
    "partition_flops",
    "personalize",
    "write_partition_object",
    "read_partition_object",
    "build_partition_chain",
    "register_proxied_serving",
    "RpcKVService",
    "RpcKVClient",
    "ObjectKVService",
    "ObjectKVClient",
    "LIST_NODE",
    "build_linked_list",
    "local_traverse",
    "register_traversal",
    "register_proxied_traversal",
    "Scenario",
    "StrategyResult",
    "build_scenario",
    "run_strategy",
    "STRATEGIES",
]
