"""Compiling subscriptions into forwarding rules.

The Packet Subscriptions compiler splits each subscription into:

* **exact rules** — conjunctions of equality atoms become exact-match
  table entries (ranges of at most ``MAX_RANGE_EXPANSION`` values are
  expanded into one entry per value, the classic TCAM-avoidance trick);
* **residual predicates** — anything that cannot be expressed as a
  bounded set of exact entries stays at the subscriber host, with the
  switch falling back to a coarser match.

The compiler accounts SRAM usage through :class:`~repro.net.pipeline.SramModel`,
so the §3.2 capacity numbers bound how many subscriptions fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..net.pipeline import SramModel, TOFINO_SRAM
from .formats import PacketFormat
from .predicates import Eq, InRange, Predicate, PredicateError

__all__ = ["CompiledRule", "RuleSet", "compile_subscriptions", "CompileError"]


class CompileError(Exception):
    """Raised when a subscription cannot be compiled within limits."""


@dataclass(frozen=True)
class CompiledRule:
    """One exact-match entry: field tuple -> value tuple -> subscriber."""

    fields: Tuple[str, ...]
    values: Tuple[Any, ...]
    subscription_id: int

    def matches(self, publication: Dict[str, Any]) -> bool:
        """Whether this matches the given field values."""
        return all(publication.get(f) == v for f, v in zip(self.fields, self.values))


@dataclass
class RuleSet:
    """The compiler's output for a batch of subscriptions."""

    format: PacketFormat
    rules: List[CompiledRule] = field(default_factory=list)
    residuals: List[Tuple[int, Predicate]] = field(default_factory=list)

    def classify(self, publication: Dict[str, Any]) -> Set[int]:
        """Subscription ids this publication should reach."""
        hits = {rule.subscription_id for rule in self.rules if rule.matches(publication)}
        hits |= {sid for sid, predicate in self.residuals if predicate.matches(publication)}
        return hits

    def entries_used(self) -> int:
        """Number of exact-match entries compiled."""
        return len(self.rules)

    def sram_words_used(self, sram: SramModel = TOFINO_SRAM) -> int:
        """SRAM words these rules occupy under the capacity model."""
        total = 0
        for rule in self.rules:
            key_bits = self.format.key_bits(rule.fields)
            total += sram.words_per_entry(key_bits)
        return total

    def fits(self, sram: SramModel = TOFINO_SRAM) -> bool:
        """Whether the compiled rules fit the SRAM budget."""
        return self.sram_words_used(sram) <= sram.total_words


# A range atom wider than this many values stays a host-side residual.
MAX_RANGE_EXPANSION = 64


def _term_to_rules(
    fmt: PacketFormat,
    term: List[Predicate],
    subscription_id: int,
) -> Optional[List[CompiledRule]]:
    """Turn one DNF conjunction into exact rules, or None if it must
    stay a residual."""
    exact: Dict[str, Any] = {}
    ranges: List[InRange] = []
    for atom in term:
        if isinstance(atom, Eq):
            if atom.field in exact and exact[atom.field] != atom.value:
                return []  # contradictory conjunction: matches nothing
            if atom.field not in fmt:
                return None  # field invisible to the switch parser
            exact[atom.field] = atom.value
        elif isinstance(atom, InRange):
            if atom.field not in fmt:
                return None
            ranges.append(atom)
        else:  # pragma: no cover - And/Or never appear inside DNF terms
            raise CompileError(f"non-atomic predicate in DNF term: {atom!r}")
    # Expand narrow ranges into per-value exact entries.
    combos: List[Dict[str, Any]] = [dict(exact)]
    expansion = 1
    for r in ranges:
        expansion *= r.width
        if expansion > MAX_RANGE_EXPANSION:
            return None  # too wide: keep the whole term at the host
        next_combos = []
        for combo in combos:
            for value in range(r.lo, r.hi + 1):
                if r.field in combo and combo[r.field] != value:
                    continue
                candidate = dict(combo)
                candidate[r.field] = value
                next_combos.append(candidate)
        combos = next_combos
    rules = []
    for combo in combos:
        names = tuple(sorted(combo))
        rules.append(CompiledRule(
            fields=names,
            values=tuple(combo[name] for name in names),
            subscription_id=subscription_id,
        ))
    return rules


def compile_subscriptions(
    fmt: PacketFormat,
    subscriptions: List[Tuple[int, Predicate]],
    sram: SramModel = TOFINO_SRAM,
) -> RuleSet:
    """Compile ``(subscription id, predicate)`` pairs against ``fmt``.

    Raises :class:`CompileError` if the compiled rules exceed the SRAM
    budget — the capacity wall of §3.2.
    """
    ruleset = RuleSet(format=fmt)
    for sid, predicate in subscriptions:
        try:
            terms = predicate.dnf()
        except PredicateError as exc:
            raise CompileError(f"subscription {sid}: {exc}") from exc
        for term in terms:
            if not term:
                # TRUE term: matches every publication; purely host-side.
                ruleset.residuals.append((sid, predicate))
                continue
            rules = _term_to_rules(fmt, term, sid)
            if rules is None:
                ruleset.residuals.append((sid, predicate))
            else:
                ruleset.rules.extend(rules)
    if not ruleset.fits(sram):
        raise CompileError(
            f"compiled rules need {ruleset.sram_words_used(sram)} SRAM words, "
            f"budget is {sram.total_words}"
        )
    return ruleset
