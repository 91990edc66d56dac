"""``tests/reach_allowlist.txt`` stays true to the source without the
profile: every entry names a function that exists, carries one allowed
reason, and each section is sorted with no duplicates.

Whether a claim runs a listed function takes the profile of
``scripts/reach.py --check`` (two to three minutes, its own CI job);
this file holds the list's form and the check's logic, so a change that
deletes a listed function has to drop its entry too.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_the_list_is_well_formed():
    _, problems = reach.read_allowlist()
    assert problems == []


def test_every_entry_names_a_function_in_src():
    entries, _ = reach.read_allowlist()
    assert sorted(set(entries) - reach.function_ids()) == []


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
                                                "item 2", "item 16"))
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
