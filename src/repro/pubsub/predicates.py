"""Subscription predicates over user-defined packet fields.

Packet Subscriptions [Jepsen et al., CoNEXT '20] let receivers express
interest as predicates over fields of user-defined packet formats; a
compiler turns them into switch forwarding rules.  This module is the
predicate language: equality and range atoms over named fields, composed
with conjunction and disjunction, normalized to DNF for rule generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["Predicate", "Eq", "InRange", "And", "Or", "TRUE", "PredicateError"]


class PredicateError(Exception):
    """Raised for malformed predicates (unknown combinators, bad ranges)."""


class Predicate:
    """Base class: a boolean function over a field-value mapping."""

    def matches(self, values: Dict[str, Any]) -> bool:
        """Whether this matches the given field values."""
        raise NotImplementedError

    def dnf(self) -> List[List["Predicate"]]:
        """Disjunctive normal form: a list of conjunctions of atoms."""
        raise NotImplementedError

    # Operator sugar: ``p & q``, ``p | q``.
    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)


@dataclass(frozen=True)
class Eq(Predicate):
    """field == value (an exact-match atom: one switch-table entry)."""

    field: str
    value: Any

    def matches(self, values: Dict[str, Any]) -> bool:
        """Whether this matches the given field values."""
        return values.get(self.field) == self.value

    def dnf(self) -> List[List[Predicate]]:
        """Disjunctive normal form as a list of atom conjunctions."""
        return [[self]]

    def __repr__(self) -> str:
        return f"({self.field} == {self.value!r})"


@dataclass(frozen=True)
class InRange(Predicate):
    """lo <= field <= hi (a range atom: host-side residual, or expanded
    into multiple exact entries by the compiler when narrow enough)."""

    field: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise PredicateError(f"empty range [{self.lo}, {self.hi}]")

    def matches(self, values: Dict[str, Any]) -> bool:
        """Whether this matches the given field values."""
        value = values.get(self.field)
        return isinstance(value, int) and self.lo <= value <= self.hi

    def dnf(self) -> List[List[Predicate]]:
        """Disjunctive normal form as a list of atom conjunctions."""
        return [[self]]

    @property
    def width(self) -> int:
        """Number of values the range covers."""
        return self.hi - self.lo + 1

    def __repr__(self) -> str:
        return f"({self.lo} <= {self.field} <= {self.hi})"


class And(Predicate):
    """Conjunction of sub-predicates."""

    def __init__(self, *children: Predicate):
        if not children:
            raise PredicateError("And needs at least one child")
        self.children = tuple(children)

    def matches(self, values: Dict[str, Any]) -> bool:
        """Whether this matches the given field values."""
        return all(child.matches(values) for child in self.children)

    def dnf(self) -> List[List[Predicate]]:
        # Cartesian product of the children's DNF terms.
        """Disjunctive normal form as a list of atom conjunctions."""
        terms: List[List[Predicate]] = [[]]
        for child in self.children:
            expanded = []
            for term in terms:
                for child_term in child.dnf():
                    expanded.append(term + child_term)
            terms = expanded
        return terms

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.children)) + ")"


class Or(Predicate):
    """Disjunction of sub-predicates."""

    def __init__(self, *children: Predicate):
        if not children:
            raise PredicateError("Or needs at least one child")
        self.children = tuple(children)

    def matches(self, values: Dict[str, Any]) -> bool:
        """Whether this matches the given field values."""
        return any(child.matches(values) for child in self.children)

    def dnf(self) -> List[List[Predicate]]:
        """Disjunctive normal form as a list of atom conjunctions."""
        terms: List[List[Predicate]] = []
        for child in self.children:
            terms.extend(child.dnf())
        return terms

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.children)) + ")"


class _True(Predicate):
    """Matches everything (subscribe to the whole topic)."""

    def matches(self, values: Dict[str, Any]) -> bool:
        """Whether this matches the given field values."""
        return True

    def dnf(self) -> List[List[Predicate]]:
        """Disjunctive normal form as a list of atom conjunctions."""
        return [[]]

    def __repr__(self) -> str:
        return "TRUE"


TRUE = _True()
