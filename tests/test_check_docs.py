"""The docs checker (``scripts/check_docs.py``).

Running it as part of the suite is what makes OBSERVABILITY.md
trustworthy: its vocabulary rows are the only declaration of the trace
keys, so a key renamed, dropped or mistyped in either the code or the
rows fails CI, not a reader.
"""

import importlib.util
import pathlib
import re

import pytest


SCRIPT = (pathlib.Path(__file__).resolve().parent.parent
          / "scripts" / "check_docs.py")

spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)

TX_ROW = "| `host.tx` | counter | 1 | Packets sent. |\n"
PHANTOM = ("host.phantom_rx", "counter", "1", "Never read.")


def _mutant_doc(tmp_path, monkeypatch, old, new):
    """Point the checker at a copy of OBSERVABILITY.md with ``old``
    replaced by ``new``, and return all its problems."""
    text = check_docs.DOC.read_text(encoding="utf-8")
    assert old in text
    mutant = tmp_path / "OBSERVABILITY.md"
    mutant.write_text(text.replace(old, new, 1), encoding="utf-8")
    monkeypatch.setattr(check_docs, "DOC", mutant)
    return check_docs.run_all()


def test_docs_and_code_agree():
    assert check_docs.run_all() == []


def test_doc_tables_parse_completely():
    # A malformed row would drop its key from the vocabulary silently:
    # every key-shaped line under "## Vocabulary" must parse.
    text = check_docs.DOC.read_text(encoding="utf-8")
    vocab = re.split(r"^## ", text, flags=re.M)
    section = next(part for part in vocab if part.startswith("Vocabulary\n"))
    key_lines = [line for line in section.splitlines()
                 if line.startswith("| `")]
    rows = check_docs.parse_doc_rows()
    assert len(rows) == len(key_lines) > 100
    assert ("host.tx", "counter", "1", "Packets sent.") in rows


def test_detects_missing_doc_row(tmp_path, monkeypatch):
    row = next(line for line in check_docs.DOC.read_text(
        encoding="utf-8").splitlines(keepends=True)
        if line.startswith("| `coherence.timeout` |"))
    problems = _mutant_doc(tmp_path, monkeypatch, row, "")
    assert any("'coherence.timeout'" in p and "not in the OBSERVABILITY.md"
               in p for p in problems)


def test_detects_a_row_nothing_emits(tmp_path, monkeypatch):
    problems = _mutant_doc(
        tmp_path, monkeypatch, TX_ROW,
        TX_ROW + "| `host.phantom` | counter | 1 | Never emitted. |\n")
    assert any("'host.phantom'" in p and "never emitted" in p
               for p in problems)


EVENT_ROW = ("| `event.*` | counter | 1 | Tally per event category "
             "(Tracer.event). |\n")


@pytest.mark.parametrize("old, new, problem", [
    (TX_ROW, "| `host.tx` | counter | ms | Packets sent. |\n",
     "key 'host.tx' has unit 'ms', not one of µs, bytes, 1"),
    (TX_ROW, "| `host.tx` | gauge | 1 | Packets sent. |\n",
     "key 'host.tx' has kind 'gauge', not one of counter, series, event, "
     "span"),
    (TX_ROW, TX_ROW + TX_ROW, "key 'host.tx' has more than one row"),
    # `event.*` already covers what Tracer.event emits; a row of its own
    # for one category would declare that key twice.
    (EVENT_ROW, EVENT_ROW + "| `event.drop` | counter | 1 | Drops. |\n",
     "key 'event.drop' has a row and is covered by the family row "
     "'event.*'"),
], ids=["unit", "kind", "twice", "under-a-family"])
def test_a_malformed_row_is_named(tmp_path, monkeypatch, old, new, problem):
    assert problem in _mutant_doc(tmp_path, monkeypatch, old, new)


def test_detects_undocumented_emission(tmp_path, monkeypatch):
    rogue = tmp_path / "rogue.py"
    rogue.write_text('tracer.count("host.rogue_key")\n', encoding="utf-8")
    monkeypatch.setattr(check_docs, "SRC", tmp_path)
    monkeypatch.setattr(check_docs, "INSTRUMENTED", ("rogue.py",))
    problems = check_docs.check_emitted_keys_documented(
        check_docs.parse_doc_rows())
    assert problems and "host.rogue_key" in problems[0]


def test_a_family_row_covers_the_suffixes_it_emits(tmp_path, monkeypatch):
    (tmp_path / "rogue.py").write_text(
        'tracer.count("host.phantom_rx.n0")\n', encoding="utf-8")
    monkeypatch.setattr(check_docs, "SRC", tmp_path)
    monkeypatch.setattr(check_docs, "INSTRUMENTED", ("rogue.py",))
    family = ("host.phantom_rx.*", "counter", "1", "Per node.")
    assert check_docs.check_emitted_keys_documented([family]) == []
    assert check_docs.check_emitted_keys_documented([PHANTOM]) != []


def test_every_documented_key_has_a_reader():
    assert check_docs.check_documented_keys_read(
        check_docs.parse_doc_rows()) == []


def _reader_problems(tmp_path, monkeypatch, source):
    """The reader check over one module holding ``source``, for a
    vocabulary of the phantom key alone."""
    (tmp_path / "module.py").write_text(source, encoding="utf-8")
    monkeypatch.setattr(check_docs, "READER_ROOTS", (tmp_path,))
    monkeypatch.setattr(check_docs, "READER_TEXT", ())
    return check_docs.check_documented_keys_read([PHANTOM])


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


def test_a_drifted_catalogue_description_is_named(tmp_path, monkeypatch):
    text = check_docs.BENCH_DOC.read_text(encoding="utf-8")
    old = "bounded under a coherence scan storm |"
    assert old in text
    mutant = tmp_path / "BENCHMARKS.md"
    mutant.write_text(text.replace(old, "bounded beside a coherence scan "
                                        "storm |"), encoding="utf-8")
    monkeypatch.setattr(check_docs, "BENCH_DOC", mutant)
    problems = check_docs.check_bench_docs_match_registry()
    assert len(problems) == 1
    assert "'coherence.storm_fairness'" in problems[0]
    assert "beside" in problems[0] and "under" in problems[0]


def test_main_exit_code_reflects_consistency(capsys):
    assert check_docs.main() == 0
    assert "agree" in capsys.readouterr().out
