"""``tests/reach_allowlist.txt`` stays true to the source without the
profile: every entry names a function or a defaulted parameter that
exists, carries one allowed reason, and each section is sorted with no
duplicates.

Whether a claim runs a listed function takes the profile of
``scripts/reach.py --check`` (two to three minutes, its own CI job);
this file holds the list's form and the check's logic, so a change that
deletes a listed function has to drop its entry too.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_the_list_is_well_formed():
    _, problems = reach.read_allowlist()
    assert problems == []


def test_every_entry_names_a_function_in_src():
    entries, _ = reach.read_allowlist()
    listed = {ident for ident, (section, _) in entries.items()
              if section not in reach.OPTION_SECTIONS}
    assert sorted(listed - reach.function_ids()) == []


def test_form_problems_are_caught(tmp_path):
    bad = tmp_path / "list.txt"
    bad.write_text(
        "[run by nothing]\n"
        "src/repro/b.py::f  cli\n"
        "src/repro/a.py::f  item 3\n"
        "src/repro/a.py::f  cli\n"
        "src/repro/c.py::f  unused\n"
        "[elsewhere]\n",
        encoding="utf-8")
    _, problems = reach.read_allowlist(bad)
    messages = " | ".join(message for _, message in problems)
    assert "duplicate entry src/repro/a.py::f" in messages
    assert "reason 'unused'" in messages
    assert "unknown section [elsewhere]" in messages
    assert "[run by nothing] is not sorted" in messages


def test_reasons():
    assert all(reach.valid_reason(r) for r in ("failure path", "cli", "interface",
                                                "record", "item 2", "item 16"))
    assert not any(reach.valid_reason(r) for r in ("", "?", "item", "item x",
                                                    "tests", "CLI"))


def test_check_findings():
    listed = {
        "a::kept": (reach.TESTS_ONLY, "cli"),
        "a::claimed": (reach.TESTS_ONLY, "cli"),
        "a::gone": (reach.RUN_BY_NOTHING, "item 2"),
        "a::misfiled": (reach.RUN_BY_NOTHING, "failure path"),
    }
    defined = {"a::kept", "a::claimed", "a::misfiled", "a::new", "a::run"}
    claimed = {"a::claimed", "a::run"}
    tested = {"a::kept", "a::misfiled", "a::new"}
    found = reach.findings(listed, defined, claimed, tested)
    assert [line.split()[:2] for line in found] == [
        ["unlisted:", "a::new"],
        ["stale:", "a::claimed"],
        ["stale:", "a::gone"],
        ["misfiled:", "a::misfiled"],
    ]


def test_every_option_entry_names_a_defaulted_parameter_in_src():
    entries, _ = reach.read_allowlist()
    listed = {ident for ident, (section, _) in entries.items()
              if section in reach.OPTION_SECTIONS}
    assert sorted(listed - reach.option_ids()) == []


def test_options_are_found_in_signatures_dataclasses_and_namedtuples(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, NamedTuple\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "class K:\n"
        "    def m(self, x, y=None):\n"
        "        def inner(z=0): pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(default=0, init=False)\n"
        "    K: ClassVar[int] = 3\n"
        "    CONSTANT = 4\n"
        "@dataclass(init=False)\n"
        "class H:\n"
        "    a: int = 0\n"
        "class T(NamedTuple):\n"
        "    a: int\n"
        "    b: int = 0\n",
        encoding="utf-8")
    assert reach.defined_options(source) == {
        "f(b)", "f(d)", "K.m(y)", "K.m.<locals>.inner(z)",
        "D.__init__(b)", "D.__init__(c)", "T.__new__(b)"}


def test_option_form_problems_are_caught(tmp_path):
    bad = tmp_path / "list.txt"
    bad.write_text(
        "[options set by nothing]\n"
        "src/repro/a.py::f(x)  record\n"
        "src/repro/a.py::g  record\n"
        "[tests only]\n"
        "src/repro/a.py::h(y)  cli\n",
        encoding="utf-8")
    _, problems = reach.read_allowlist(bad)
    assert [line for line, _ in problems] == [3, 5]


def test_option_findings():
    listed = {
        "a::f(kept)": (reach.SET_BY_TESTS, "record"),
        "a::f(claimed)": (reach.SET_BY_NOTHING, "interface"),
        "a::gone(x)": (reach.SET_BY_NOTHING, "item 2"),
        "a::unclaimed(x)": (reach.SET_BY_NOTHING, "cli"),
        "a::f(misfiled)": (reach.SET_BY_NOTHING, "failure path"),
    }
    defined = {"a::f(kept)", "a::f(claimed)", "a::unclaimed(x)",
               "a::f(misfiled)", "a::f(new)", "a::f(set)"}
    claims = reach.Ran(options={"a::f(kept)", "a::f(claimed)", "a::f(misfiled)",
                                "a::f(new)", "a::f(set)"},
                       set_options={"a::f(claimed)", "a::f(set)"})
    tests = reach.Ran(set_options={"a::f(kept)", "a::f(misfiled)"})
    found = reach.option_findings(listed, defined, claims, tests)
    assert [line.split()[:2] for line in found] == [
        ["unlisted:", "a::f(new)"],
        ["stale:", "a::f(claimed)"],
        ["misfiled:", "a::f(misfiled)"],
        ["stale:", "a::gone(x)"],
        ["stale:", "a::unclaimed(x)"],
    ]


def test_the_hook_records_a_second_value_once_per_call(tmp_path, monkeypatch):
    """The profile hook, run on a scratch package: an option counts as
    set only when a call passes a value other than its default; a
    dataclass field is named through its class; a generator's
    arguments are read when it is first entered, not at resumptions."""
    if sys.version_info < (3, 11):
        pytest.skip("the hook names functions by co_qualname (3.11+)")
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, c=None): return a\n"
        "def gen(n, step=1):\n"
        "    while True:\n"
        "        n = yield n\n"
        "@dataclass\n"
        "class D:\n"
        "    x: int = 0\n"
        "    y: int = 0\n",
        encoding="utf-8")
    (tmp_path / "sitecustomize.py").write_text(reach.HOOK, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    script = ("import m\n"
              "m.f(0); m.f(1, b=1); m.f(2, c=3)\n"
              "g = m.gen(0); next(g); g.send(5)\n"
              "m.D(x=0, y=2)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]),
               REPRO_REACH_OUT=str(out), REPRO_REACH_SRC=str(src) + os.sep)
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    monkeypatch.setattr(reach, "REPO", tmp_path)
    monkeypatch.setattr(reach, "SRC", src)
    ran = reach._collect(out)
    assert {"src/repro/m.py::f", "src/repro/m.py::gen"} <= ran.functions
    assert ran.options == {
        "src/repro/m.py::f(b)", "src/repro/m.py::f(c)",
        "src/repro/m.py::gen(step)",
        "src/repro/m.py::D.__init__(x)", "src/repro/m.py::D.__init__(y)"}
    assert ran.set_options == {"src/repro/m.py::f(c)",
                               "src/repro/m.py::D.__init__(y)"}


def test_the_tests_set_leaves_out_only_the_tests_of_the_committed_list():
    """``--write`` must run on a stale list, which the tests above that
    read the committed list fail on; ``--check`` reports the same faults
    as findings instead."""
    module = sys.modules[__name__]
    for name in reach.LIST_TESTS:
        assert callable(getattr(module, name)), name
    assert reach.TESTS == reach.PYTEST + [
        f"--deselect=tests/test_reach_allowlist.py::{name}"
        for name in reach.LIST_TESTS]
    # What the left-out tests check, --check finds: a function entry or
    # an option entry that names nothing in the source, even one the
    # profile hook recorded.
    listed = {"a::gone": (reach.TESTS_ONLY, "cli"),
              "a::f(gone)": (reach.SET_BY_TESTS, "cli")}
    assert reach.findings(listed, set(), set(), set()) == [
        "stale: a::gone no longer exists; drop its entry"]
    claims = reach.Ran(options={"a::f(gone)"})
    assert reach.option_findings(listed, set(), claims, reach.Ran()) == [
        "stale: a::f(gone) no longer exists; drop its entry"]
