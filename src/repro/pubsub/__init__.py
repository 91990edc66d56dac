"""Packet subscriptions: predicates over user-defined packet formats,
compiled to switch rules; identity-routed pub/sub over the fabric; an
event bus with delivery contracts and credit-based backpressure."""

from .bus import (
    AT_LEAST_ONCE,
    AT_MOST_ONCE,
    BusError,
    BusSubscriber,
    EventBus,
)
from .compiler import CompiledRule, CompileError, RuleSet, compile_subscriptions
from .fabric import PubSubFabric, Subscription
from .formats import FormatError, FormatField, PacketFormat
from .predicates import TRUE, And, Eq, InRange, Or, Predicate, PredicateError

__all__ = [
    "EventBus",
    "BusSubscriber",
    "BusError",
    "AT_MOST_ONCE",
    "AT_LEAST_ONCE",
    "Predicate",
    "Eq",
    "InRange",
    "And",
    "Or",
    "TRUE",
    "PredicateError",
    "PacketFormat",
    "FormatField",
    "FormatError",
    "compile_subscriptions",
    "RuleSet",
    "CompiledRule",
    "CompileError",
    "PubSubFabric",
    "Subscription",
]
