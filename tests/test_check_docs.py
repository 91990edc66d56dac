"""The docs/vocabulary lockstep checker (``scripts/check_docs.py``).

Running it as part of the suite is what makes OBSERVABILITY.md
trustworthy: renaming a key in either place fails CI, not a reader.
"""

import importlib.util
import pathlib


SCRIPT = (pathlib.Path(__file__).resolve().parent.parent
          / "scripts" / "check_docs.py")

spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)

from repro.obs import keys as keymod  # noqa: E402


def test_docs_and_code_agree():
    assert check_docs.run_all() == []


def test_doc_tables_parse_completely():
    rows = check_docs.parse_doc_rows()
    assert len(rows) == len(keymod.VOCABULARY)
    # Rows keep VOCABULARY order, so the docs read in declaration order.
    assert [r[0] for r in rows] == [s.name for s in keymod.VOCABULARY]


def test_detects_missing_doc_row(monkeypatch):
    monkeypatch.setattr(check_docs.keymod, "VOCABULARY",
                        keymod.VOCABULARY + (keymod.KeySpec(
                            "host.phantom", "counter", "1", "Never emitted."),))
    problems = check_docs.run_all()
    assert any("host.phantom" in p and "OBSERVABILITY.md" in p
               for p in problems)
    # The phantom key is also never emitted by the source.
    assert any("host.phantom" in p and "never emitted" in p
               for p in problems)


def test_detects_undocumented_emission(tmp_path, monkeypatch):
    rogue = tmp_path / "rogue.py"
    rogue.write_text('tracer.count("host.rogue_key")\n', encoding="utf-8")
    monkeypatch.setattr(check_docs, "SRC", tmp_path)
    monkeypatch.setattr(check_docs, "INSTRUMENTED", ("rogue.py",))
    problems = check_docs.check_emitted_keys_documented()
    assert problems and "host.rogue_key" in problems[0]


def test_every_documented_key_has_a_reader():
    assert check_docs.check_documented_keys_read() == []


PHANTOM = keymod.KeySpec("host.phantom_rx", "counter", "1", "Never read.")


def _reader_problems(tmp_path, monkeypatch, source):
    """The reader check over one module holding ``source``, for a
    vocabulary of the phantom key alone."""
    (tmp_path / "module.py").write_text(source, encoding="utf-8")
    monkeypatch.setattr(check_docs.keymod, "VOCABULARY", (PHANTOM,))
    monkeypatch.setattr(check_docs, "READER_ROOTS", (tmp_path,))
    monkeypatch.setattr(check_docs, "READER_TEXT", ())
    return check_docs.check_documented_keys_read()


def test_an_emitted_key_nothing_reads_is_named(tmp_path, monkeypatch):
    problems = _reader_problems(tmp_path, monkeypatch,
                                'tracer.count("host.phantom_rx")\n')
    assert len(problems) == 1 and "host.phantom_rx" in problems[0]


def test_recording_calls_and_the_docs_do_not_read(tmp_path, monkeypatch):
    (tmp_path / "OBSERVABILITY.md").write_text(
        "| `host.phantom_rx` | counter | 1 | Never read. |\n", encoding="utf-8")
    problems = _reader_problems(tmp_path, monkeypatch, (
        'tracer.count("host.phantom_rx")\n'
        'tracer.sample(f"host.phantom_rx", 1.0)\n'
        'cell = tracer.cell("host.phantom_rx" if up else "host.phantom_rx")\n'))
    assert len(problems) == 1 and "host.phantom_rx" in problems[0]


def test_a_startswith_prefix_reads_the_keys_it_covers(tmp_path, monkeypatch):
    assert _reader_problems(tmp_path, monkeypatch, (
        'tracer.count("host.phantom_rx")\n'
        'dropped = sum(v for k, v in counters.items()\n'
        '              if k.startswith("host.phantom_"))\n')) == []


def test_a_snapshot_key_in_a_test_reads_the_key(tmp_path, monkeypatch):
    assert _reader_problems(tmp_path, monkeypatch, (
        'assert counters["net.host.h0:host.phantom_rx"] == 1\n')) == []


def test_main_exit_code_reflects_consistency(capsys):
    assert check_docs.main() == 0
    assert "agree" in capsys.readouterr().out
