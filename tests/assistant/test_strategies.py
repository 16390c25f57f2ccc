"""Question-selection strategy tests."""

import pytest

from repro.assistant.oracle import GroundTruth, SimulatedDeveloper
from repro.assistant.session import RefinementSession
from repro.assistant.strategies import (
    SequentialStrategy,
    SimulationStrategy,
    attribute_ranking,
)
from repro.processor.context import ExecConfig
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.text.span import Span
from repro.xlog.program import PFunction, Program


def make_docs(n=4):
    docs = []
    spans = []
    for i in range(n):
        doc = parse_html(
            "doc%d" % i,
            "<p>rank %d. <b>Title %d</b> Votes: %d</p>" % (i + 1, i, 1000 * (i + 1)),
        )
        start = doc.text.index("Votes:") + 7
        spans.append(Span(doc, start, len(doc.text.rstrip())))
        docs.append(doc)
    return docs, spans


def make_session(config=None, strategy=None):
    docs, votes_spans = make_docs()
    corpus = Corpus({"base": docs})
    program = Program.parse(
        """
        movies(x, <t>, <v>) :- base(x), ie(@x, t, v).
        q(t) :- movies(x, t, v), v < 2500.
        ie(@x, t, v) :- from(@x, t), from(@x, v), numeric(v) = yes.
        """,
        extensional=["base"],
        query="q",
    )
    truth = GroundTruth({("ie", "v"): votes_spans})
    developer = SimulatedDeveloper(truth)
    return RefinementSession(
        program, corpus, developer, strategy=strategy, config=config, seed=0
    )


@pytest.fixture
def session():
    return make_session()


class TestAttributeRanking:
    def test_comparison_attr_ranked_first(self, session):
        ranking = attribute_ranking(session.program)
        assert ranking[0] == ("ie", "v")

    def test_join_attrs_outrank_comparisons(self):
        program = Program.parse(
            """
            l(x, a, p) :- base(x), ie1(@x, a, p).
            q(a) :- l(x, a, p), sim(@a, @a), p > 5.
            ie1(@x, a, p) :- from(@x, a), from(@x, p).
            """,
            extensional=["base"],
            p_functions={"sim": PFunction("sim", lambda u, v: True)},
            query="q",
        )
        ranking = attribute_ranking(program)
        assert ranking[0] == ("ie1", "a")


class TestSequentialStrategy:
    def test_selects_in_order(self, session):
        strategy = SequentialStrategy()
        session._execute_subset()
        first = strategy.select(session)
        assert first.attribute == "v"  # ranked attribute first
        session.asked.add(first.key())
        second = strategy.select(session)
        assert second.key() != first.key()

    def test_exhausts_to_none(self, session):
        strategy = SequentialStrategy()
        session._execute_subset()
        for _ in range(300):
            q = strategy.select(session)
            if q is None:
                break
            session.asked.add(q.key())
        assert strategy.select(session) is None


class TestSimulationStrategy:
    def test_selects_a_question(self, session):
        session._execute_subset()
        strategy = SimulationStrategy(alpha=0.1, pool_size=4)
        question = strategy.select(session)
        assert question is not None

    def test_prior_weights_sum_to_one(self, session):
        session._execute_subset()
        strategy = SimulationStrategy()
        from repro.assistant.questions import Question

        weighted = strategy._weighted_values(session, Question("ie", "v", "bold_font"))
        assert abs(sum(p for _, p in weighted) - 1.0) < 1e-9

    def test_impossible_answers_excluded(self, session):
        session._execute_subset()
        strategy = SimulationStrategy()
        from repro.assistant.questions import Question

        weighted = strategy._weighted_values(session, Question("ie", "v", "italic_font"))
        values = {v for v, _ in weighted}
        assert "yes" not in values  # corpus has no italics at all

    def test_parameterized_candidates(self, session):
        session._execute_subset()
        strategy = SimulationStrategy()
        from repro.assistant.questions import Question

        weighted = strategy._weighted_values(
            session, Question("ie", "v", "preceded_by")
        )
        assert weighted  # profiled candidates exist


class TestSimulationLayout:
    """Candidate simulations run unpartitioned whatever the session's layout."""

    @pytest.mark.parametrize("config", [ExecConfig(partition_docs=1)], ids=["chunks"])
    def test_simulation_config_is_unpartitioned(self, config):
        simulation = make_session(config=config)._simulation_config()
        assert simulation.partition_docs is None

    def test_chunked_session_asks_the_unpartitioned_questions(self):
        def asked(config):
            trace = make_session(
                config=config, strategy=SimulationStrategy(alpha=0.1, pool_size=4)
            ).run()
            return [
                (question.key(), answer)
                for record in trace.records
                for question, answer in record.questions
            ]

        chunked = asked(ExecConfig(partition_docs=1))
        assert chunked and chunked == asked(ExecConfig())


class TestApplicability:
    def test_region_feature_pruned_when_absent(self, session):
        from repro.assistant.questions import Question

        assert not session.applicable(Question("ie", "v", "underlined"))
        assert session.applicable(Question("ie", "v", "bold_font"))

    def test_regex_features_need_script(self, session):
        from repro.assistant.questions import Question

        assert not session.applicable(Question("ie", "v", "starts_with"))

    def test_numeric_attr_prunes_word_features(self, session):
        from repro.assistant.questions import Question

        assert not session.applicable(Question("ie", "v", "person_name"))
        assert session.applicable(Question("ie", "t", "person_name"))
