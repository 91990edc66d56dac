#!/usr/bin/env python3
"""Hold OBSERVABILITY.md and ``repro.obs.keys.VOCABULARY`` in lockstep.

Three checks, each of which must pass for the vocabulary to be trusted:

1. **Docs == code.**  The vocabulary tables in OBSERVABILITY.md (every
   ``| `key` | kind | unit | description |`` row under "## Vocabulary")
   must list exactly the entries of ``VOCABULARY``, in order.
2. **Documented => emitted.**  Every vocabulary key must be recorded
   somewhere in ``src/repro`` outside ``obs/keys.py`` — as a quoted
   literal, or (for span names and the ``runtime.*`` keys, which are
   emitted through constants) as a use of the ``SPAN_*``/``K_*``
   constant.
3. **Emitted => documented.**  Every dotted key literal recorded on an
   instrumented hot path (``.count(``/``.sample(``/``.incr(``/
   ``.record(`` call sites and ``.cell(`` bind sites in the files listed
   below) must be in the vocabulary, either exactly or via a
   ``<prefix>.*`` family.

A fourth check holds BENCHMARKS.md in the same discipline: the rows of
its "## Scenario catalogue" table must list exactly the scenarios the
bench runner registers (``repro.bench.scenario_names()``).

A fifth check holds PROXIES.md's "## Key vocabulary" table in lockstep
with the ``proxy.*``/``prefetch.*`` subset of ``VOCABULARY``: the
subsystem doc must carry exactly those rows, in vocabulary order, with
the same kind/unit/description as the code (and therefore as
OBSERVABILITY.md, by check 1).

Run directly (exit 0/1) or through ``tests/test_check_docs.py``.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Dict, List, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOC = REPO / "OBSERVABILITY.md"
BENCH_DOC = REPO / "BENCHMARKS.md"
PROXY_DOC = REPO / "PROXIES.md"

# Key prefixes whose vocabulary rows PROXIES.md must mirror.
PROXY_PREFIXES = ("proxy.", "prefetch.")

sys.path.insert(0, str(REPO / "src"))

from repro.obs import keys as keymod  # noqa: E402  (path set above)

# A vocabulary table row: | `key` | kind | unit | description |
ROW_RE = re.compile(
    r"^\|\s*`([^`]+)`\s*\|\s*(\S+)\s*\|\s*(\S+)\s*\|\s*(.+?)\s*\|\s*$")

# Dotted key literal on a recording line ("host.tx_bytes", not "drop").
KEY_LITERAL_RE = re.compile(r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"')

RECORDING_CALLS = (".count(", ".sample(", ".incr(", ".record(", ".cell(")

# The hot paths the vocabulary claims to cover — the "emitted =>
# documented" direction is scoped to these files (OBSERVABILITY.md's
# Scope section names the families that intentionally stay outside).
INSTRUMENTED = (
    "sim/trace.py",
    "core/placement.py",
    "net/host.py",
    "net/switch.py",
    "net/link.py",
    "runtime/engine.py",
    "runtime/node.py",
    "faults/health.py",
    "faults/injector.py",
    "discovery/base.py",
    "discovery/e2e.py",
    "discovery/hybrid.py",
    "discovery/controller.py",
    "discovery/sharded.py",
    "memproto/transport.py",
    "memproto/coherence.py",
    "memproto/pool.py",
    "core/proxies.py",
    "loadgen/generator.py",
    "pubsub/fabric.py",
    "pubsub/bus.py",
)

# Keys emitted through a named constant rather than a string literal.
CONSTANT_EMITTED: Dict[str, str] = {
    keymod.SPAN_INVOKE: "SPAN_INVOKE",
    keymod.SPAN_PLACEMENT: "SPAN_PLACEMENT",
    keymod.SPAN_REQUEST: "SPAN_REQUEST",
    keymod.SPAN_STAGE_IN: "SPAN_STAGE_IN",
    keymod.SPAN_FETCH: "SPAN_FETCH",
    keymod.SPAN_QUEUE: "SPAN_QUEUE",
    keymod.SPAN_COMPUTE: "SPAN_COMPUTE",
    keymod.SPAN_RETURN: "SPAN_RETURN",
    keymod.K_INVOCATIONS: "K_INVOCATIONS",
    keymod.K_PLACED_AT.rstrip(".") + ".*": "K_PLACED_AT",
    keymod.K_INVOKE_US: "K_INVOKE_US",
    keymod.K_INVOKE_RETRIES: "K_INVOKE_RETRIES",
    keymod.K_INVOKE_FAILOVER: "K_INVOKE_FAILOVER",
    keymod.K_INVOKE_DEADLINE: "K_INVOKE_DEADLINE",
    keymod.K_HEALTH_SUSPECTED: "K_HEALTH_SUSPECTED",
    keymod.K_HEALTH_CLEARED: "K_HEALTH_CLEARED",
    keymod.K_FAULTS_INJECTED.rstrip(".") + ".*": "K_FAULTS_INJECTED",
}


def parse_doc_rows() -> List[Tuple[str, str, str, str]]:
    """The (key, kind, unit, description) rows under "## Vocabulary"."""
    rows: List[Tuple[str, str, str, str]] = []
    in_vocab = False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_vocab = line.strip() == "## Vocabulary"
            continue
        if not in_vocab:
            continue
        match = ROW_RE.match(line)
        if match:
            rows.append(match.groups())
    return rows


def source_corpus() -> str:
    """All repro source except the vocabulary declaration itself."""
    parts = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "obs" / "keys.py":
            continue
        parts.append(path.read_text(encoding="utf-8"))
    return "\n".join(parts)


def check_docs_match_code() -> List[str]:
    documented = parse_doc_rows()
    declared = [(s.name, s.kind, s.unit, s.description)
                for s in keymod.VOCABULARY]
    problems = []
    doc_names = {row[0] for row in documented}
    code_names = {row[0] for row in declared}
    for name in sorted(code_names - doc_names):
        problems.append(f"key {name!r} is in VOCABULARY but not in "
                        f"OBSERVABILITY.md")
    for name in sorted(doc_names - code_names):
        problems.append(f"key {name!r} is documented in OBSERVABILITY.md "
                        f"but not in VOCABULARY")
    if not problems and documented != declared:
        for doc_row, code_row in zip(documented, declared):
            if doc_row != code_row:
                problems.append(
                    f"row mismatch for {code_row[0]!r}: docs say "
                    f"{doc_row!r}, code says {code_row!r}")
    return problems


def check_documented_keys_emitted() -> List[str]:
    corpus = source_corpus()
    problems = []
    for spec in keymod.VOCABULARY:
        if spec.name in CONSTANT_EMITTED:
            needle = CONSTANT_EMITTED[spec.name]
            if not re.search(rf"\b{needle}\b", corpus):
                problems.append(
                    f"documented key {spec.name!r} (constant {needle}) is "
                    f"never used in src/repro")
            continue
        if spec.name.endswith(".*"):
            prefix = re.escape(spec.name[:-1])  # keep the trailing dot
            if not re.search(rf'f?"{prefix}', corpus):
                problems.append(
                    f"documented prefix family {spec.name!r} is never "
                    f"emitted in src/repro")
            continue
        if spec.kind == "event":
            if not re.search(rf'\.event\([^)]*"{re.escape(spec.name)}"',
                             corpus):
                problems.append(
                    f"documented event kind {spec.name!r} is never "
                    f"recorded in src/repro")
            continue
        if f'"{spec.name}"' not in corpus:
            problems.append(
                f"documented key {spec.name!r} is never emitted in "
                f"src/repro")
    return problems


def check_emitted_keys_documented() -> List[str]:
    specs = {spec.name for spec in keymod.VOCABULARY}
    families = [name[:-1] for name in specs if name.endswith(".*")]
    problems = []
    for rel in INSTRUMENTED:
        path = SRC / rel
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if not any(call in line for call in RECORDING_CALLS):
                continue
            for key in KEY_LITERAL_RE.findall(line):
                if key in specs:
                    continue
                if any(key.startswith(prefix) for prefix in families):
                    continue
                problems.append(
                    f"{rel}:{lineno} records {key!r}, which is not in "
                    f"the OBSERVABILITY.md vocabulary")
    return problems


def parse_bench_doc_scenarios() -> List[str]:
    """Scenario names from BENCHMARKS.md's "## Scenario catalogue" table."""
    names: List[str] = []
    in_catalogue = False
    for line in BENCH_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_catalogue = line.strip() == "## Scenario catalogue"
            continue
        if not in_catalogue:
            continue
        match = re.match(r"^\|\s*`([^`]+)`\s*\|", line)
        if match:
            names.append(match.group(1))
    return names


def check_bench_docs_match_registry() -> List[str]:
    from repro.bench import scenario_names
    documented = parse_bench_doc_scenarios()
    registered = scenario_names()
    problems = []
    for name in sorted(set(registered) - set(documented)):
        problems.append(f"bench scenario {name!r} is registered but not in "
                        f"BENCHMARKS.md's catalogue table")
    for name in sorted(set(documented) - set(registered)):
        problems.append(f"bench scenario {name!r} is in BENCHMARKS.md but "
                        f"not registered in repro.bench")
    return problems


def parse_proxy_doc_rows() -> List[Tuple[str, str, str, str]]:
    """The (key, kind, unit, description) rows under PROXIES.md's
    "## Key vocabulary" heading."""
    rows: List[Tuple[str, str, str, str]] = []
    in_vocab = False
    for line in PROXY_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_vocab = line.strip() == "## Key vocabulary"
            continue
        if not in_vocab:
            continue
        match = ROW_RE.match(line)
        if match:
            rows.append(match.groups())
    return rows


def check_proxy_doc_matches_code() -> List[str]:
    if not PROXY_DOC.exists():
        return ["PROXIES.md is missing (the proxy subsystem doc carries "
                "the proxy.*/prefetch.* vocabulary rows)"]
    documented = parse_proxy_doc_rows()
    declared = [(s.name, s.kind, s.unit, s.description)
                for s in keymod.VOCABULARY
                if s.name.startswith(PROXY_PREFIXES)]
    problems = []
    doc_names = {row[0] for row in documented}
    code_names = {row[0] for row in declared}
    for name in sorted(code_names - doc_names):
        problems.append(f"key {name!r} is in VOCABULARY but not in "
                        f"PROXIES.md's key table")
    for name in sorted(doc_names - code_names):
        problems.append(f"key {name!r} is documented in PROXIES.md but is "
                        f"not a proxy.*/prefetch.* VOCABULARY entry")
    if not problems and documented != declared:
        for doc_row, code_row in zip(documented, declared):
            if doc_row != code_row:
                problems.append(
                    f"PROXIES.md row mismatch for {code_row[0]!r}: doc says "
                    f"{doc_row!r}, code says {code_row!r}")
    return problems


def run_all() -> List[str]:
    """All problems from all five checks (empty means consistent)."""
    return (check_docs_match_code()
            + check_documented_keys_emitted()
            + check_emitted_keys_documented()
            + check_bench_docs_match_registry()
            + check_proxy_doc_matches_code())


def main() -> int:
    problems = run_all()
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    n_keys = len(keymod.VOCABULARY)
    n_scenarios = len(parse_bench_doc_scenarios())
    n_proxy = len(parse_proxy_doc_rows())
    print(f"check_docs: OBSERVABILITY.md and repro.obs.keys agree "
          f"({n_keys} keys, {len(INSTRUMENTED)} instrumented files); "
          f"BENCHMARKS.md and repro.bench agree ({n_scenarios} scenarios); "
          f"PROXIES.md carries the {n_proxy} proxy/prefetch keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
