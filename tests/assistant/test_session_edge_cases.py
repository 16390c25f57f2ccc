"""Session edge cases: declining developers, exhaustion, caching."""

from repro.assistant.oracle import GroundTruth, SimulatedDeveloper
from repro.assistant.session import RefinementSession
from repro.assistant.strategies import SequentialStrategy, SimulationStrategy
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.text.span import Span
from repro.xlog.program import Program


def tiny_task(n=6):
    docs, spans = [], []
    for i in range(n):
        doc = parse_html("s%d" % i, "<p><b>T%d</b> Votes: %d</p>" % (i, 100 * (i + 1)))
        start = doc.text.index("Votes:") + 7
        spans.append(Span(doc, start, len(doc.text.rstrip())))
        docs.append(doc)
    corpus = Corpus({"base": docs})
    program = Program.parse(
        """
        rows(x, <t>, <v>) :- base(x), ie(@x, t, v).
        q(t) :- rows(x, t, v), v > 250.
        ie(@x, t, v) :- from(@x, t), from(@x, v), numeric(v) = yes.
        """,
        extensional=["base"],
        query="q",
    )
    return program, corpus, GroundTruth({("ie", "v"): spans})


class TestDecliningDeveloper:
    def test_all_declines_still_terminates(self):
        program, corpus, truth = tiny_task()
        developer = SimulatedDeveloper(truth, alpha=1.0, seed=1)
        session = RefinementSession(
            program, corpus, developer, strategy=SequentialStrategy(),
            max_iterations=6, seed=1,
        )
        trace = session.run()
        assert trace.questions_asked > 0
        assert developer.questions_answered == 0
        assert trace.final_result is not None

    def test_declines_recorded_in_trace(self):
        program, corpus, truth = tiny_task()
        developer = SimulatedDeveloper(truth, alpha=1.0, seed=1)
        session = RefinementSession(
            program, corpus, developer, strategy=SequentialStrategy(),
            max_iterations=3, seed=1,
        )
        trace = session.run()
        declined = [
            qa for r in trace.records for qa in r.questions if qa[1] is None
        ]
        assert declined


class TestExhaustion:
    def test_question_space_exhaustion_stops_session(self):
        program, corpus, truth = tiny_task()
        developer = SimulatedDeveloper(truth, seed=1)
        session = RefinementSession(
            program, corpus, developer, strategy=SequentialStrategy(),
            max_iterations=200, questions_per_iteration=10, seed=1,
        )
        trace = session.run()
        # far fewer iterations than the cap: either converged or ran out
        assert trace.iterations < 60


class TestSimulationCacheHygiene:
    def test_simulation_does_not_pollute_cache(self):
        program, corpus, truth = tiny_task()
        developer = SimulatedDeveloper(truth, seed=1)
        session = RefinementSession(
            program, corpus, developer,
            strategy=SimulationStrategy(alpha=0.1, pool_size=3), seed=1,
        )
        session._execute_subset()
        entries_before = dict(session._subset_cache._entries)
        session.simulate_refinement("ie", "v", "bold_font", "yes")
        assert session._subset_cache._entries == entries_before

    def test_simulate_invalid_refinement_is_infinite(self):
        program, corpus, truth = tiny_task()
        developer = SimulatedDeveloper(truth, seed=1)
        session = RefinementSession(program, corpus, developer, seed=1)
        session._execute_subset()
        assert session.simulate_refinement("nope", "v", "bold_font", "yes") == float("inf")


class TestSubsetFractionOverride:
    def test_explicit_fraction_respected(self):
        program, corpus, truth = tiny_task(n=6)
        developer = SimulatedDeveloper(truth, seed=1)
        session = RefinementSession(
            program, corpus, developer, subset_fraction=0.5, seed=1
        )
        assert session.subset_corpus.size_of("base") == 3

    def test_full_fraction_uses_original_corpus(self):
        program, corpus, truth = tiny_task()
        developer = SimulatedDeveloper(truth, seed=1)
        session = RefinementSession(
            program, corpus, developer, subset_fraction=1.0, seed=1
        )
        assert session.subset_corpus is corpus
