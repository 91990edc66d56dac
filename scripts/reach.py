#!/usr/bin/env python3
"""Every function in ``src/repro`` runs under a claim, and every option
takes a second value under one, or it is listed.

A *claim* is what the repository says about itself outside its unit
tests: the paper-claim experiments (E1-E19), the quick bench catalogue
with its CI baseline gate, the perf harness's smoke run, every example
and the CLI's ``selfcheck``, ``report`` and ``trace`` commands.  This
script runs those (the *claims set*) and, beside them, tier-1 (the
*tests set*) under a profile hook that records every Python function
entered, subprocesses included.  A function is named
``path::co_qualname``, e.g. ``src/repro/sim/loop.py::Simulator.run``.

Every non-dunder function defined in ``src/repro`` that no claim runs
must have an entry in ``tests/reach_allowlist.txt``, in the section
that says whether the tests set runs it ("tests only") or not ("run by
nothing").

An *option* is a defaulted parameter of a function a claim runs, named
``path::qualname(parameter)``; the fields of a dataclass or NamedTuple
are options of its generated ``__init__`` / ``__new__``.  The hook
also records, for each option, whether any call gave it a value other
than its default (a generator's arguments are read when it first
runs, not at each resumption).  An option no claim sets takes one value
wherever the repository makes its claims, so it is a constant: make it
one, or list it in "options set by tests only" or "options set by
nothing", by whether a test sets it.

Each entry has one reason: ``failure path`` (safety code), ``cli``,
``interface`` (an abstract-base method, a ``NullTracer`` twin, the
load/store and kernel arguments, a signature ``benchmarks/perf/``
calls), ``record`` (a field of a data record filled per instance) or
``item <n>`` (the ROADMAP item that will give it a claim or delete it).

    python scripts/reach.py --check   # exit 1 on any finding below
    python scripts/reach.py --write   # rewrite the list to match

Findings: an unclaimed function or an unset option with no entry; an
entry for a function a claim now runs or an option a claim now sets,
or for one that no longer exists (an option of a function no claim
runs is stale too: list the function); an entry in the wrong section.
So the list can only shrink unless someone adds to it by hand.
``--write`` keeps every reason, drops what ``--check`` calls stale and
lists new entries with the reason ``?``, which
``tests/test_reach_allowlist.py`` rejects until one is given.  The
tests set is tier-1 without that file's three tests of the committed
list (``LIST_TESTS``), so ``--write`` runs on a stale list, and
``--check`` reports what they would fail on as findings.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH``; it
writes one file per process.  pytest runs get a plugin that re-arms the
hook at every test phase, because some tests install a profiler of
their own.  Needs CPython 3.11+ (``co_qualname``); takes about three
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
SET_BY_NOTHING = "options set by nothing"
SET_BY_TESTS = "options set by tests only"
SECTIONS = (RUN_BY_NOTHING, TESTS_ONLY, SET_BY_NOTHING, SET_BY_TESTS)
OPTION_SECTIONS = (SET_BY_NOTHING, SET_BY_TESTS)
REASONS = ("failure path", "cli", "interface", "record")  # or "item <n>"

HEADER = """\
# What in src/repro no claim uses, each with one reason: failure path |
# cli | interface | record | item <n> (the ROADMAP item that gives it a
# claim or deletes it).  The first two sections list functions no claim
# runs; the last two list defaulted parameters of claimed functions that
# no claim sets to a second value.  Checked by scripts/reach.py --check
# (which profiles the claims and tier-1) and by
# tests/test_reach_allowlist.py.
"""

HOOK = '''\
import atexit
import dis
import gc
import os
import sys
import threading

SRC = os.environ["REPRO_REACH_SRC"]
# Every code object entered, mapped to what its calls still need checked:
# [(option id, name, default), ...], or None once nothing is left.
_plans = {}
_get = _plans.get
_first = {}           # generator code -> offset of its first RESUME
_defaulted = set()    # option ids of every function entered
_set = set()          # option ids some call gave a non-default value
_UNSET = object()


def _function(frame, code):
    \"\"\"``(function, qualname)`` behind ``frame``, or ``(None, None)``.\"\"\"
    def owned(owner):
        for klass in owner.__mro__:
            found = klass.__dict__.get(code.co_name)
            found = getattr(found, "__func__", found)
            if getattr(found, "__code__", None) is code:
                return found, klass
        return None, None

    if code.co_argcount:
        first = frame.f_locals.get(code.co_varnames[0])
        func, klass = owned(first if isinstance(first, type) else type(first))
        if func is not None and code.co_filename != "<string>":
            return func, code.co_qualname
        if func is not None:
            # A dataclass or NamedTuple method is compiled from a string:
            # its class names it.
            return func, f"{klass.__qualname__}.{code.co_name}"
    if code.co_filename == "<string>":
        return None, None
    func = frame.f_globals.get(code.co_name)
    if getattr(func, "__code__", None) is code:
        return func, code.co_qualname
    for func in gc.get_referrers(code):
        if getattr(func, "__code__", None) is code:
            return func, code.co_qualname
    return None, None


def _plan(frame, code):
    \"\"\"The defaulted parameters of ``code``'s function, when it is
    defined in ``src/repro``.\"\"\"
    if not code.co_filename.startswith(SRC) and code.co_filename != "<string>":
        return None
    func, qualname = _function(frame, code)
    if func is None:
        return None
    filename = code.co_filename
    if filename == "<string>":
        filename = getattr(sys.modules.get(func.__module__), "__file__", "") or ""
        if not filename.startswith(SRC):
            return None
    positional = code.co_varnames[:code.co_argcount]
    defaults = func.__defaults__ or ()
    pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
    pairs += sorted((func.__kwdefaults__ or {}).items())
    if not pairs:
        return None
    plan = [(f"{filename}::{qualname}({name})", name, default)
            for name, default in pairs]
    _defaulted.update(ident for ident, _, _ in plan)
    if code.co_flags & 0x2A0:  # generator, coroutine, async generator
        _first[code] = next(i.offset for i in dis.get_instructions(code)
                            if i.opname == "RESUME")
    return plan


def _differs(value, default):
    if value is default:
        return False
    try:
        return not (value == default)
    except Exception:
        return True


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        plan = _get(code, _UNSET)
        if plan is not None:
            _check(frame, code, plan)


def _check(frame, code, plan):
    if plan is _UNSET:
        plan = _plans[code] = _plan(frame, code)
        if plan is None:
            return
    first = _first.get(code)
    if first is not None and frame.f_lasti != first:
        return  # a generator resuming, not called
    values = frame.f_locals
    given = {ident for ident, name, default in plan
             if _differs(values.get(name, default), default)}
    if given:
        _set.update(given)
        # Once every option of a function has been given a second value
        # the hook stops looking at its calls.
        _plans[code] = [entry for entry in plan if entry[0] not in given] or None


def arm():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _dump():
    sys.setprofile(None)
    names = {f"{code.co_filename}::{code.co_qualname}" for code in _plans}
    lines = sorted(names) + sorted(f"default {i}" for i in _defaulted)
    lines += sorted(f"set {i}" for i in _set)
    path = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w", encoding="utf-8") as out:
        out.write("\\n".join(lines))


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
    repro = [sys.executable, "-m", "repro"]
    commands = [
        PYTEST + ["benchmarks", "--ignore=benchmarks/perf"],
        repro + ["bench", "--quick", "--json", bench],
        repro + ["bench", "compare",
                 "benchmarks/baselines/BENCH-quick-baseline.json", bench],
        [sys.executable, "benchmarks/perf/run.py", "--smoke"],
        repro + ["selfcheck"],
        repro + ["report"],
        repro + ["trace", "quickstart", "--out", str(scratch / "trace.json")],
    ]
    for example in sorted((REPO / "examples").glob("*.py")):
        commands.append([sys.executable, str(example.relative_to(REPO))])
    return commands


# The tier-1 tests that read the committed list fail on a stale one,
# which ``--write`` is there to rewrite, so the tests set leaves them
# out: ``--check`` reports the same faults as findings (the list's form
# problems, and ``stale: ... no longer exists``).
LIST_TESTS = ("test_the_list_is_well_formed",
              "test_every_entry_names_a_function_in_src",
              "test_every_option_entry_names_a_defaulted_parameter_in_src")
TESTS = PYTEST + [f"--deselect=tests/test_reach_allowlist.py::{name}"
                  for name in LIST_TESTS]  # tier-1


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


def _init_false(call):
    """Whether ``call`` (a decorator or a ``field(...)``) says ``init=False``."""
    return isinstance(call, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in call.keywords)


def _named(node, name):
    """Whether ``node`` is ``name`` or ``x.name``, or a call or a
    subscript of either."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def defined_options(path):
    """``qualname(parameter)`` of every defaulted parameter ``path``
    defines, the fields of its dataclasses and NamedTuples included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                found.update(f"{prefix}{child.name}({a.arg})" for a in named)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                if any(_named(d, "dataclass") and not _init_false(d)
                       for d in child.decorator_list):
                    init = f"{prefix}{child.name}.__init__"
                elif any(_named(b, "NamedTuple") for b in child.bases):
                    init = f"{prefix}{child.name}.__new__"
                else:
                    init = None
                if init:
                    found.update(
                        f"{init}({field.target.id})" for field in child.body
                        if isinstance(field, ast.AnnAssign) and field.value is not None
                        and isinstance(field.target, ast.Name)
                        and not _named(field.annotation, "ClassVar")
                        and not _init_false(field.value))
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def option_ids():
    """``path::qualname(parameter)`` of every option in ``src/repro``."""
    ids = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        ids.update(f"{rel}::{o}" for o in defined_options(path))
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
                REPRO_REACH_OUT=str(out), REPRO_REACH_SRC=str(SRC) + os.sep)


def _failed(name, command, code, log):
    print(f"reach: the {name} set failed: {' '.join(command)} exited {code}\n"
          f"{log.read_text(encoding='utf-8')[-4000:]}", file=sys.stderr)
    raise SystemExit(2)


class Ran:
    """What the processes of one set recorded: the ``src/repro``
    functions entered, the options (``path::qualname(parameter)``) of
    those functions, and the options some call set to another value."""

    def __init__(self, functions=(), options=(), set_options=()):
        self.functions = set(functions)
        self.options = set(options)
        self.set_options = set(set_options)


def _collect(out):
    """What the processes that recorded into ``out`` ran."""
    lines = set()
    for record in out.glob("*.txt"):
        lines.update(record.read_text(encoding="utf-8").splitlines())
    ran, paths = Ran(), {}
    for line in lines:
        kind, _, ident = line.rpartition(" ")
        filename, _, qualname = ident.partition("::")
        if filename not in paths:
            path = pathlib.Path(filename).resolve()
            paths[filename] = (path.relative_to(REPO).as_posix()
                               if path.is_relative_to(SRC) else None)
        if paths[filename]:
            into = {"": ran.functions, "default": ran.options,
                    "set": ran.set_options}[kind]
            into.add(f"{paths[filename]}::{qualname}")
    return ran


def profile():
    """``(claims, tests)``: a :class:`Ran` for each set.  Tier-1 runs
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
        if ident.endswith(")") != (section in OPTION_SECTIONS):
            problems.append((lineno, f"{ident}: an option goes in an options "
                                     f"section, a function in a function one"))
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
    """What ``--check`` fails on for functions, one line each."""
    out = []
    for ident in sorted(defined - claimed):
        if ident not in listed:
            out.append(f"unlisted: {ident} runs under no claim; give it one, "
                       f"delete it or list it with a reason")
    for ident, (section, _) in sorted(listed.items()):
        if section in OPTION_SECTIONS:
            continue
        if ident not in defined:
            out.append(f"stale: {ident} no longer exists; drop its entry")
        elif ident in claimed:
            out.append(f"stale: {ident} now runs under a claim; drop its entry")
        else:
            where = TESTS_ONLY if ident in tested else RUN_BY_NOTHING
            if where != section:
                out.append(f"misfiled: {ident} belongs in [{where}]")
    return out


def option_findings(listed, defined, claims, tests):
    """What ``--check`` fails on for options, one line each.  An option
    is a defaulted parameter ``path::qualname(name)`` of a function a
    claim runs; ``defined`` is every defaulted parameter in the source,
    ``claims`` and ``tests`` are each set's :class:`Ran`."""
    out = []
    for ident in sorted(claims.options - claims.set_options):
        if ident not in listed:
            out.append(f"unlisted: {ident} takes one value under every claim; "
                       f"make it a constant or list it with a reason")
    for ident, (section, _) in sorted(listed.items()):
        if section not in OPTION_SECTIONS:
            continue
        if ident not in defined:
            out.append(f"stale: {ident} no longer exists; drop its entry")
        elif ident in claims.set_options:
            out.append(f"stale: {ident} is now set by a claim; drop its entry")
        elif ident not in claims.options:
            out.append(f"stale: {ident} belongs to a function no claim runs; "
                       f"drop its entry")
        else:
            where = SET_BY_TESTS if ident in tests.set_options else SET_BY_NOTHING
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
    claims, tests = profile()
    if args.write:
        entries = {ident: (TESTS_ONLY if ident in tests.functions else RUN_BY_NOTHING,
                           listed.get(ident, (None, "?"))[1])
                   for ident in defined - claims.functions}
        entries.update(
            (ident, (SET_BY_TESTS if ident in tests.set_options else SET_BY_NOTHING,
                     listed.get(ident, (None, "?"))[1]))
            for ident in claims.options - claims.set_options)
        ALLOWLIST.write_text(render(entries), encoding="utf-8")
        print(f"reach: wrote {len(entries)} entries to {ALLOWLIST.relative_to(REPO)}")
        return 0
    report = [f"{ALLOWLIST.name}:{n}: {m}" for n, m in problems]
    report += findings(listed, defined, claims.functions, tests.functions)
    report += option_findings(listed, option_ids(), claims, tests)
    for line in report:
        print(line)
    unclaimed = defined - claims.functions
    unset = claims.options - claims.set_options
    print(f"reach: {len(defined)} functions, {len(unclaimed)} under no claim "
          f"({len(unclaimed & tests.functions)} tests only); "
          f"{len(claims.options)} options of claimed functions, {len(unset)} "
          f"set by no claim ({len(unset & tests.set_options)} by tests only); "
          f"{len(report)} findings")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
