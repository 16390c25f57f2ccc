"""Corpus emission round-trip tests."""

import pytest

from repro.datagen.books import generate_books
from repro.datagen.emit import emit_tables, load_ground_truth
from repro.text.html_parser import parse_html


@pytest.fixture
def emitted(tmp_path):
    tables = generate_books({"Amazon": 5, "Barnes": 5}, seed=3)
    written = emit_tables(tables, tmp_path)
    return tables, tmp_path, written


class TestEmit:
    def test_layout(self, emitted):
        tables, root, written = emitted
        assert (root / "Barnes" / "ground_truth.json").exists()
        html_files = list((root / "Barnes").glob("*.html"))
        assert len(html_files) == 5

    def test_html_round_trips_to_same_text(self, emitted):
        tables, root, _ = emitted
        for record in tables["Barnes"]:
            path = root / "Barnes" / ("%s.html" % record.doc.doc_id)
            reparsed = parse_html(record.doc.doc_id, path.read_text(encoding="utf-8"))
            assert reparsed.text == record.doc.text
            assert reparsed.regions == record.doc.regions

    def test_ground_truth_spans_match(self, emitted):
        tables, root, _ = emitted
        truth = load_ground_truth(root / "Barnes")
        for record in tables["Barnes"]:
            entry = truth[record.doc.doc_id]
            span = record.spans["price"]
            assert entry["spans"]["price"] == {
                "start": span.start,
                "end": span.end,
                "text": span.text,
            }
            assert entry["values"]["price"] == record.values["price"]

    def test_cli_can_consume_emitted_corpus(self, emitted, capsys):
        from repro.cli import main

        _, root, _ = emitted
        program = root / "prog.alog"
        program.write_text(
            """
            books(x, <t>, <p>) :- Barnes(x), ie(@x, t, p).
            q(t, p) :- books(x, t, p), p > 0.
            ie(@x, t, p) :- from(@x, t), from(@x, p), numeric(p) = yes,
                preceded_by(p) = "Price: $".
            """,
            encoding="utf-8",
        )
        code = main(
            ["run", str(program), "--table", "Barnes=%s" % (root / "Barnes"),
             "--query", "q", "--csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        import csv
        import io

        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 6  # header + 5 records
