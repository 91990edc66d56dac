"""Match-action pipeline model (the P4/Tofino substitute).

§3.2 reports what fits on an Intel Tofino when routing on explicit
identifiers: "With 64-bit ID fields, we could store ~1.8M exact entries
and with 128-bit IDs, we could fit ~850K."  This module models an
exact-match table backed by a fixed SRAM budget, with the two calibration
constants (word width and multi-word utilization) fit to exactly those
two reported points — experiment E3 checks the fit.

The :class:`MatchActionTable` is what the simulated switch's forwarding
pipeline consults; it enforces the entry capacity so scaling experiments
(E12) hit the same wall a real switch would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Generic, Hashable, Optional, TypeVar

__all__ = [
    "SramModel",
    "MatchActionTable",
    "TableFullError",
    "TOFINO_SRAM",
]

K = TypeVar("K", bound=Hashable)


class TableFullError(Exception):
    """Raised when inserting into a table at capacity."""


@dataclass(frozen=True)
class SramModel:
    """Exact-match capacity model for a fixed SRAM budget.

    An entry with a ``key_bits``-wide key plus ``OVERHEAD_BITS`` of
    action/valid/version metadata occupies ``ceil(total / WORD_BITS)``
    SRAM words.  Entries that span multiple words hash/pack less
    efficiently, captured by ``MULTIWORD_UTILIZATION``.

    Calibration: 80-bit words, 16 overhead bits and 0.944 utilization
    put 64-bit keys at 1.80M entries and 128-bit keys at ~850K for the
    default budget — the two §3.2 data points.
    """

    total_words: int = 1_800_000

    WORD_BITS = 80
    OVERHEAD_BITS = 16
    MULTIWORD_UTILIZATION = 0.944

    def __post_init__(self) -> None:
        if self.total_words <= 0:
            raise ValueError("SRAM geometry must be positive")

    def words_per_entry(self, key_bits: int) -> int:
        """SRAM words one entry of ``key_bits`` occupies."""
        if key_bits <= 0:
            raise ValueError("key width must be positive")
        return math.ceil((key_bits + self.OVERHEAD_BITS) / self.WORD_BITS)

    def capacity(self, key_bits: int) -> int:
        """Max exact-match entries for keys of ``key_bits`` width."""
        words = self.words_per_entry(key_bits)
        utilization = 1.0 if words == 1 else self.MULTIWORD_UTILIZATION
        return int(self.total_words * utilization / words)


TOFINO_SRAM = SramModel()


class MatchActionTable(Generic[K]):
    """An exact-match table with SRAM-backed capacity accounting.

    Keys are whatever the pipeline matches on (object IDs here); values
    are actions — for the forwarding use case, an egress port index.
    """

    def __init__(
        self,
        name: str,
        key_bits: int,
        sram: SramModel = TOFINO_SRAM,
        capacity_override: Optional[int] = None,
    ):
        self.name = name
        self.key_bits = key_bits
        self.sram = sram
        self.capacity = (
            capacity_override if capacity_override is not None else sram.capacity(key_bits)
        )
        if self.capacity <= 0:
            raise ValueError(f"table {name!r} has zero capacity")
        self._entries: Dict[K, Any] = {}
        self.hits = 0
        self.misses = 0
        self.insert_failures = 0

    def install(self, key: K, action: Any) -> None:
        """Insert or update an entry; raises :class:`TableFullError` when
        a *new* key would exceed capacity."""
        if key not in self._entries and len(self._entries) >= self.capacity:
            self.insert_failures += 1
            raise TableFullError(
                f"table {self.name!r} full ({self.capacity} entries of "
                f"{self.key_bits}-bit keys)"
            )
        self._entries[key] = action

    def try_install(self, key: K, action: Any) -> bool:
        """Install variant that reports failure instead of raising."""
        try:
            self.install(key, action)
            return True
        except TableFullError:
            return False

    def lookup(self, key: K) -> Optional[Any]:
        """Match; returns the action or None, updating hit/miss counters."""
        action = self._entries.get(key)
        if action is None:
            self.misses += 1
        else:
            self.hits += 1
        return action

    def remove(self, key: K) -> bool:
        """Delete an entry; True if it existed."""
        return self._entries.pop(key, None) is not None

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> float:
        """Fraction of table capacity in use."""
        return len(self._entries) / self.capacity

    def __repr__(self) -> str:
        return (
            f"<MatchActionTable {self.name} {len(self)}/{self.capacity} "
            f"({self.key_bits}-bit keys)>"
        )
