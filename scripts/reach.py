#!/usr/bin/env python3
"""Every function in ``src/repro`` runs under a claim, or it is listed.

A *claim* is what the repository says about itself outside its unit
tests: the paper-claim experiments (E1-E19), the quick bench catalogue
with its CI baseline gate, the perf harness's smoke run and every
example.  This script runs those (the *claims set*) and, beside them,
tier-1 (the *tests set*) under a profile hook that records every Python
function entered, subprocesses included.  A function is named
``path::co_qualname``, e.g. ``src/repro/sim/loop.py::Simulator.run``.

Every non-dunder function defined in ``src/repro`` that no claim runs
must have an entry in ``tests/reach_allowlist.txt``, in the section
that says whether the tests set runs it ("tests only") or not ("run by
nothing"), with one reason: ``failure path``, ``cli``, ``interface``
(an abstract-base method or a ``NullTracer`` twin) or ``item <n>`` (the
ROADMAP item that will give it a claim or delete it).

    python scripts/reach.py --check   # exit 1 on any finding below
    python scripts/reach.py --write   # rewrite the list to match

Findings: an unclaimed function with no entry; an entry for a function
a claim now runs, or that no longer exists; an entry in the wrong
section.  So the list can only shrink unless someone adds to it by
hand.  ``--write`` keeps every reason, drops what ``--check`` calls
stale and lists new functions with the reason ``?``, which
``tests/test_reach_allowlist.py`` rejects until one is given.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH``; it
writes one file per process.  pytest runs get a plugin that re-arms the
hook at every test phase, because some tests install a profiler of
their own.  Needs CPython 3.11+ (``co_qualname``); takes two to three
minutes, most of it tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ALLOWLIST = REPO / "tests" / "reach_allowlist.txt"

RUN_BY_NOTHING = "run by nothing"
TESTS_ONLY = "tests only"
SECTIONS = (RUN_BY_NOTHING, TESTS_ONLY)
REASONS = ("failure path", "cli", "interface")  # or "item <n>"

HEADER = """\
# Functions in src/repro that no claim runs, each with one reason:
# failure path | cli | interface | item <n> (the ROADMAP item that gives
# it a claim or deletes it).  Checked by scripts/reach.py --check (which
# profiles the claims and tier-1) and by tests/test_reach_allowlist.py.
"""

HOOK = '''\
import atexit
import os
import sys
import threading

_seen = set()
_add = _seen.add


def _hook(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def arm():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _dump():
    sys.setprofile(None)
    names = {f"{code.co_filename}::{code.co_qualname}" for code in _seen}
    path = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w", encoding="utf-8") as out:
        out.write("\\n".join(sorted(names)))


atexit.register(_dump)
arm()
'''

PLUGIN = '''\
import pytest
import sitecustomize


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    sitecustomize.arm()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    sitecustomize.arm()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_teardown(item):
    sitecustomize.arm()
'''

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "reach_plugin",
          "-p", "no:cacheprovider"]


def claims_commands(scratch):
    """The claims set: what CI runs to back the repository's claims."""
    bench = str(scratch / "BENCH.json")
    commands = [
        PYTEST + ["benchmarks", "--ignore=benchmarks/perf", "--benchmark-disable"],
        [sys.executable, "-m", "repro", "bench", "--quick", "--json", bench],
        [sys.executable, "-m", "repro", "bench", "compare",
         "benchmarks/baselines/BENCH-quick-baseline.json", bench],
        [sys.executable, "benchmarks/perf/run.py", "--smoke"],
    ]
    for example in sorted((REPO / "examples").glob("*.py")):
        commands.append([sys.executable, str(example.relative_to(REPO))])
    return commands


TESTS = PYTEST  # tier-1


# ---------------------------------------------------------------------------
# what is defined
# ---------------------------------------------------------------------------

def is_dunder(qualname):
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def defined_functions(path):
    """The ``co_qualname`` of every function ``path`` defines (lambdas
    and comprehensions aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def function_ids():
    """``path::qualname`` of every non-dunder function in ``src/repro``."""
    ids = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        ids.update(f"{rel}::{q}" for q in defined_functions(path) if not is_dunder(q))
    return ids


# ---------------------------------------------------------------------------
# what runs
# ---------------------------------------------------------------------------

def _env(scratch, name):
    """The environment a process of one set runs in: the hook first on
    the path, recording into ``scratch/name``."""
    out = scratch / name
    out.mkdir(exist_ok=True)
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([str(scratch), str(REPO / "src")]),
                REPRO_REACH_OUT=str(out))


def _failed(name, command, code, log):
    print(f"reach: the {name} set failed: {' '.join(command)} exited {code}\n"
          f"{log.read_text(encoding='utf-8')[-4000:]}", file=sys.stderr)
    raise SystemExit(2)


def _collect(out):
    """Every ``src/repro`` function the processes recorded in ``out`` ran."""
    lines = set()
    for record in out.glob("*.txt"):
        lines.update(record.read_text(encoding="utf-8").splitlines())
    ran, paths = set(), {}
    for line in lines:
        filename, _, qualname = line.partition("::")
        if filename not in paths:
            path = pathlib.Path(filename).resolve()
            paths[filename] = (path.relative_to(REPO).as_posix()
                               if path.is_relative_to(SRC) else None)
        if paths[filename]:
            ran.add(f"{paths[filename]}::{qualname}")
    return ran


def profile():
    """``(claimed, tested)``: the functions each set runs.  Tier-1 runs
    in the background while the claims run one after another."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = pathlib.Path(tmp)
        (scratch / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        (scratch / "reach_plugin.py").write_text(PLUGIN, encoding="utf-8")
        tests_log = scratch / "tests.log"
        with open(tests_log, "w", encoding="utf-8") as log:
            tests = subprocess.Popen(TESTS, cwd=REPO, env=_env(scratch, "tests"),
                                     stdout=log, stderr=subprocess.STDOUT)
        claims_log = scratch / "claims.log"
        for command in claims_commands(scratch):
            with open(claims_log, "w", encoding="utf-8") as log:
                code = subprocess.call(command, cwd=REPO, env=_env(scratch, "claims"),
                                       stdout=log, stderr=subprocess.STDOUT)
            if code:
                tests.kill()
                tests.wait()
                _failed("claims", command, code, claims_log)
        if tests.wait():
            _failed("tests", TESTS, tests.returncode, tests_log)
        return _collect(scratch / "claims"), _collect(scratch / "tests")


# ---------------------------------------------------------------------------
# the list
# ---------------------------------------------------------------------------

def read_allowlist(path=ALLOWLIST):
    """``{id: (section, reason)}``, plus ``(lineno, message)`` problems
    with the file's form."""
    entries, problems, section, order = {}, [], None, {s: [] for s in SECTIONS}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in SECTIONS:
                problems.append((lineno, f"unknown section [{section}]"))
            continue
        ident, _, reason = line.partition("  ")
        reason = reason.strip()
        if section not in SECTIONS:
            problems.append((lineno, "entry outside a known section"))
            continue
        if ident in entries:
            problems.append((lineno, f"duplicate entry {ident}"))
        if not valid_reason(reason):
            problems.append((lineno, f"{ident}: reason {reason!r} is not one of "
                                     f"{', '.join(REASONS)} or 'item <n>'"))
        entries[ident] = (section, reason)
        order[section].append(ident)
    for section, idents in order.items():
        if idents != sorted(idents):
            problems.append((0, f"[{section}] is not sorted"))
    return entries, problems


def valid_reason(reason):
    if reason in REASONS:
        return True
    word, _, number = reason.partition(" ")
    return word == "item" and number.isdigit()


def render(entries):
    lines = [HEADER]
    for section in SECTIONS:
        lines.append(f"[{section}]")
        lines.extend(f"{ident}  {reason}" for ident, (where, reason)
                     in sorted(entries.items()) if where == section)
        lines.append("")
    return "\n".join(lines)


def findings(listed, defined, claimed, tested):
    """What ``--check`` fails on, one line each."""
    out = []
    for ident in sorted(defined - claimed):
        if ident not in listed:
            out.append(f"unlisted: {ident} runs under no claim; give it one, "
                       f"delete it or list it with a reason")
    for ident, (section, _) in sorted(listed.items()):
        if ident not in defined:
            out.append(f"stale: {ident} no longer exists; drop its entry")
        elif ident in claimed:
            out.append(f"stale: {ident} now runs under a claim; drop its entry")
        else:
            where = TESTS_ONLY if ident in tested else RUN_BY_NOTHING
            if where != section:
                out.append(f"misfiled: {ident} belongs in [{where}]")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if the list does not match what runs")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the list to match what runs")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        parser.error("needs Python 3.11+ (co_qualname)")

    listed, problems = read_allowlist()
    defined = function_ids()
    claimed, tested = profile()
    if args.write:
        entries = {ident: (TESTS_ONLY if ident in tested else RUN_BY_NOTHING,
                           listed.get(ident, (None, "?"))[1])
                   for ident in defined - claimed}
        ALLOWLIST.write_text(render(entries), encoding="utf-8")
        print(f"reach: wrote {len(entries)} entries to {ALLOWLIST.relative_to(REPO)}")
        return 0
    report = [f"{ALLOWLIST.name}:{n}: {m}" for n, m in problems]
    report += findings(listed, defined, claimed, tested)
    for line in report:
        print(line)
    unclaimed = defined - claimed
    print(f"reach: {len(defined)} functions, {len(unclaimed)} under no claim "
          f"({len(unclaimed & tested)} tests only), {len(report)} findings")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
