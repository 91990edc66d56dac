"""Canonical benchmark subsystem: ``python -m repro bench``.

The runner (:mod:`repro.bench.runner`) executes the registered scenario
catalogue (:mod:`repro.bench.scenarios`) deterministically and writes a
schema-versioned ``BENCH.json``; :mod:`repro.bench.compare` diffs two
such files and gates regressions.  See BENCHMARKS.md for the scenario
catalogue, the JSON schema, and the thresholds CI applies.
"""

from .compare import (
    DEFAULT_THRESHOLD,
    CompareReport,
    ScenarioDelta,
    compare_documents,
    compare_files,
)
from .runner import (
    SCHEMA_VERSION,
    BenchError,
    ScenarioResult,
    ScenarioSpec,
    dump_document,
    load_document,
    register,
    results_document,
    run_scenarios,
    scenario_names,
    select,
)

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
    "load_document",
    "CompareReport",
    "ScenarioDelta",
    "compare_documents",
    "compare_files",
    "DEFAULT_THRESHOLD",
]
