"""Logging integration tests: debug logs narrate executions/sessions."""

import logging

from repro.processor.executor import IFlexEngine


class TestProcessorLogging:
    def test_execute_logs_per_predicate(self, figure2_program, figure1_corpus, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.processor"):
            IFlexEngine(figure2_program, figure1_corpus).execute()
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith("houses:") for m in messages)
        assert any(m.startswith("Q:") for m in messages)

    def test_quiet_by_default(self, figure2_program, figure1_corpus, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.processor"):
            IFlexEngine(figure2_program, figure1_corpus).execute()
        assert not caplog.records

    def test_debug_off_does_not_walk_tables(
        self, figure2_program, figure1_corpus, caplog, monkeypatch
    ):
        """The per-predicate counts are computed only for a DEBUG record."""
        from repro.ctables.ctable import CompactTable
        from tests.processor.test_recursion import chain, edge_corpus, tc_program

        calls = []
        original = CompactTable.assignment_count

        def counting(table):
            calls.append(table)
            return original(table)

        monkeypatch.setattr(CompactTable, "assignment_count", counting)
        with caplog.at_level(logging.INFO, logger="repro.processor"):
            IFlexEngine(figure2_program, figure1_corpus).execute()
            IFlexEngine(tc_program(), edge_corpus(chain(3))).execute()  # fixpoint
        assert calls == []

    def test_debug_records_carry_the_counts(
        self, figure2_program, figure1_corpus, caplog
    ):
        from tests.processor.test_recursion import chain, edge_corpus, tc_program

        with caplog.at_level(logging.DEBUG, logger="repro.processor"):
            results = [
                IFlexEngine(figure2_program, figure1_corpus).execute(),
                IFlexEngine(tc_program(), edge_corpus(chain(3))).execute(),
            ]
        messages = [r.getMessage() for r in caplog.records]
        for result, name in zip(results, ("houses", "path")):
            table = result.tables[name]
            prefix = "%s: %d tuples, %d assignments (computed" % (
                name,
                table.tuple_count(),
                table.assignment_count(),
            )
            assert any(m.startswith(prefix) for m in messages), prefix
        assert any("fixpoint group" in m for m in messages)


class TestSessionLogging:
    def test_session_logs_iterations_and_questions(self, caplog):
        from repro.assistant.oracle import GroundTruth, SimulatedDeveloper
        from repro.assistant.session import RefinementSession
        from repro.assistant.strategies import SequentialStrategy
        from repro.text.corpus import Corpus
        from repro.text.html_parser import parse_html
        from repro.text.span import Span
        from repro.xlog.program import Program

        docs, spans = [], []
        for i in range(4):
            doc = parse_html("lg%d" % i, "<p><b>X%d</b> Price: $%d.00</p>" % (i, 90 + i * 10))
            start = doc.text.index("$") + 1
            spans.append(Span(doc, start, start + 5))
            docs.append(doc)
        corpus = Corpus({"base": docs})
        program = Program.parse(
            """
            rows(x, <t>, <p>) :- base(x), ie(@x, t, p).
            q(t) :- rows(x, t, p), p > 100.
            ie(@x, t, p) :- from(@x, t), from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
            query="q",
        )
        session = RefinementSession(
            program, corpus,
            SimulatedDeveloper(GroundTruth({("ie", "p"): spans}), seed=1),
            strategy=SequentialStrategy(), seed=1, max_iterations=3,
        )
        with caplog.at_level(logging.DEBUG, logger="repro.assistant"):
            session.run()
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith("iteration 1:") for m in messages)
        assert any(m.startswith("asked ") for m in messages)
