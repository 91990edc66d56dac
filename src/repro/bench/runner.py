"""The deterministic benchmark runner behind ``python -m repro bench``.

Scenarios are registered by name (see :mod:`repro.bench.scenarios`) and
each produces a :class:`ScenarioResult`: how many operations the run
performed, how much simulated time elapsed, and which observability
counters it wants recorded.  The runner assembles a schema-versioned
document whose fields (``ops``, ``sim_time_us``, ``ops_per_sim_sec``,
``counters``) depend only on the seed, so a ``BENCH.json`` is
byte-identical across same-seed runs (CI relies on this, and tests
assert it).  The runner never reads the host clock: host time is
measured in one place, ``benchmarks/perf/``.

The regression gate lives in :mod:`repro.bench.compare`, which diffs
two such documents and exits non-zero past a threshold.  BENCHMARKS.md
documents the scenario catalogue and the schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Callable, Dict, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "BenchError",
    "ScenarioResult",
    "ScenarioSpec",
    "register",
    "scenario_names",
    "select",
    "run_scenarios",
    "results_document",
    "dump_document",
]

#: Bumped whenever the document layout changes; compare refuses to diff
#: documents with different schema versions.
SCHEMA_VERSION = "repro-bench/1"

#: Float fields are rounded to this many decimals before serialization —
#: purely cosmetic (Python float repr is already deterministic).
_ROUND = 3


class BenchError(Exception):
    """Unknown scenarios, empty selections, malformed result files."""


@dataclass
class ScenarioResult:
    """What one scenario run measured (everything here is seed-deterministic)."""

    ops: int
    sim_time_us: float
    counters: Dict[str, int] = field(default_factory=dict)

    def ops_per_sim_sec(self) -> float:
        """Operations per *simulated* second (the deterministic rate)."""
        if self.sim_time_us <= 0:
            return 0.0
        return self.ops / (self.sim_time_us / 1e6)


@dataclass
class ScenarioSpec:
    """A named benchmark: a function plus its quick/full parameter sets."""

    name: str
    description: str
    fn: Callable[[int, dict], ScenarioResult]
    quick: dict
    full: dict

    def run(self, seed: int, use_quick: bool) -> ScenarioResult:
        return self.fn(seed, dict(self.quick if use_quick else self.full))


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(name: str, description: str, quick: dict, full: dict):
    """Decorator registering a scenario function under ``name``."""

    def wrap(fn: Callable[[int, dict], ScenarioResult]):
        if name in _REGISTRY:
            raise BenchError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioSpec(name, description, fn, quick, full)
        return fn

    return wrap


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def select(pattern: Optional[str] = None) -> List[ScenarioSpec]:
    """Scenarios whose name matches ``pattern`` (substring or glob);
    all of them when ``pattern`` is None."""
    _ensure_loaded()
    specs = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    if pattern is None:
        return specs
    picked = [s for s in specs
              if pattern in s.name or fnmatch(s.name, pattern)]
    if not picked:
        raise BenchError(
            f"no scenario matches {pattern!r} "
            f"(have: {', '.join(sorted(_REGISTRY))})")
    return picked


def _ensure_loaded() -> None:
    # Scenario definitions self-register on import; deferred so that
    # `import repro.bench` stays cheap for non-bench users.
    from . import scenarios  # noqa: F401


def run_scenarios(
    specs: List[ScenarioSpec],
    seed: int = 1,
    quick: bool = False,
    report: Optional[Callable[[str], None]] = None,
) -> Dict[str, dict]:
    """Run ``specs`` in name order; returns ``{name: record}``."""
    records: Dict[str, dict] = {}
    for spec in specs:
        result = spec.run(seed, quick)
        record = {
            "description": spec.description,
            "ops": result.ops,
            "sim_time_us": round(result.sim_time_us, _ROUND),
            "ops_per_sim_sec": round(result.ops_per_sim_sec(), _ROUND),
            "counters": dict(sorted(result.counters.items())),
        }
        records[spec.name] = record
        if report is not None:
            report(
                f"  {spec.name:28s} {result.ops:>9d} ops  "
                f"{record['ops_per_sim_sec']:>14,.0f} ops/s sim")
    return records


def results_document(records: Dict[str, dict], seed: int, quick: bool) -> dict:
    """Assemble the schema-versioned document for serialization: it
    depends only on the seed and the scenario set."""
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "mode": "quick" if quick else "full",
        "scenarios": dict(records),
    }


def dump_document(document: dict, path: str) -> None:
    """Write the document as canonical JSON (sorted keys, 2-space
    indent, trailing newline) so equal documents are equal bytes."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_document(path: str) -> dict:
    """Read a results file, validating the schema version."""
    with open(path) as fh:
        document = json.load(fh)
    schema = document.get("schema")
    if schema != SCHEMA_VERSION:
        raise BenchError(
            f"{path}: schema {schema!r} does not match {SCHEMA_VERSION!r}")
    if not isinstance(document.get("scenarios"), dict):
        raise BenchError(f"{path}: missing 'scenarios' mapping")
    return document
