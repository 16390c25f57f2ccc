"""A refinement session must survive a poisoned document mid-refinement:
quarantine it once, record it, and keep iterating over the reduced
corpus.
"""

from types import SimpleNamespace

import pytest

from repro.assistant.oracle import GroundTruth, SimulatedDeveloper
from repro.assistant.session import RefinementSession
from repro.assistant.strategies import SimulationStrategy
from repro.errors import ExecutionFailure
from repro.features.registry import default_registry
from repro.processor.context import ExecConfig, FeatureEvaluator
from repro.processor.executor import IFlexEngine
from repro.text import parse_html
from repro.text.span import Span, doc_span
from tests.faults.harness import build_corpus, build_program, faulting_registry
from tests.processor.test_parallel import result_image

POISONED = ("d2",)


def make_truth(corpus):
    spans = []
    for doc in corpus.table("pages"):
        start = doc.text.index("$") + 1
        spans.append(Span(doc, start, doc.text.index(".00") + 3))
    return GroundTruth({("ie", "p"): spans})


def make_session(corpus, registry, **config_kwargs):
    developer = SimulatedDeveloper(make_truth(corpus), seed=1)
    return RefinementSession(
        build_program(),
        corpus,
        developer,
        features=registry,
        config=ExecConfig(**config_kwargs),
        seed=1,
        max_iterations=3,
    )


class TestSessionSurvival:
    def test_session_survives_poisoned_document(self):
        corpus = build_corpus(6)
        session = make_session(corpus, faulting_registry(POISONED), on_error="skip")
        trace = session.run()
        assert session.poisoned_docs == set(POISONED)
        assert [r.doc_id for r in trace.failure_records][:1] == ["d2"]
        assert trace.final_result is not None
        # the poisoned doc was excluded from both corpora, so later
        # iterations (and the final full run) never re-pay discovery
        assert all(
            d.doc_id != "d2"
            for d in session.corpus.table("pages")
        )
        assert all(
            d.doc_id != "d2"
            for d in session.subset_corpus.table("pages")
        )

    def test_final_result_matches_clean_session(self):
        corpus = build_corpus(6)
        poisoned_session = make_session(
            corpus, faulting_registry(POISONED), on_error="skip"
        )
        trace = poisoned_session.run()
        clean_session = make_session(
            corpus.without(POISONED), default_registry(), on_error="skip"
        )
        clean_trace = clean_session.run()
        assert result_image(trace.final_result) == result_image(
            clean_trace.final_result
        )
        assert clean_trace.failure_records == []

    def test_fail_fast_session_propagates(self):
        corpus = build_corpus(6)
        session = make_session(corpus, faulting_registry(POISONED))
        with pytest.raises(ExecutionFailure) as excinfo:
            session.run()
        assert excinfo.value.doc_id == "d2"

    def test_discovery_happens_once(self):
        # after the session quarantines the doc, a fresh engine over the
        # session's reduced corpus runs clean with the faulting registry
        corpus = build_corpus(6)
        registry = faulting_registry(POISONED)
        session = make_session(corpus, registry, on_error="skip")
        session.run()
        result = IFlexEngine(
            build_program(),
            session.corpus,
            registry,
            ExecConfig(on_error="fail-fast"),
            validate=False,
        ).execute()
        assert not result.report


class _UnwrappedDeveloper(SimulatedDeveloper):
    """Answers from the default registry: the oracle calls the feature
    itself, so a faulting wrap would fail the developer, not the engine."""

    def answer(self, question, registry):
        return super().answer(question, default_registry())


def _probe_session(on_error, poisoned):
    """The slice of a session ``SimulationStrategy`` probes through:
    two one-span anchors, ``poisoned`` ones failing their Verify."""
    docs = [
        parse_html("good", "<p><b>Alpha</b></p>"),
        parse_html("bad", "<p>beta</p>"),
    ]
    feature = default_registry().get("bold_font")
    evaluator = FeatureEvaluator()

    def verify_feature(feature, span, value):
        if span.doc.doc_id in poisoned:
            raise ExecutionFailure.wrap(
                RuntimeError("injected"),
                doc_id=span.doc.doc_id,
                operator="Verify",
                feature=feature.name,
            )
        return evaluator.verify_span(feature, span, value)

    session = SimpleNamespace(
        config=ExecConfig(on_error=on_error),
        registry=SimpleNamespace(get=lambda name: feature),
        attribute_profile=lambda *_: [doc_span(d) for d in docs],
        example_spans=lambda *_: [],
        verify_feature=verify_feature,
    )
    question = SimpleNamespace(
        ie_predicate="ie", attribute="p", feature_name="bold_font"
    )
    return session, question


class TestSimulationProbes:
    """Answer-prior probes follow the session's error policy."""

    @pytest.mark.parametrize("feature", ["bold_font", "hyperlinked", "preceded_by"])
    def test_session_finishes_when_a_probed_feature_faults(self, feature):
        from repro.experiments.tasks import build_task

        task = build_task("T1", size=30, seed=0)
        poisoned = task.corpus.table(task.corpus.table_names()[0])[0].doc_id
        session = RefinementSession(
            task.program,
            task.corpus,
            _UnwrappedDeveloper(task.truth, seed=0),
            strategy=SimulationStrategy(),
            features=faulting_registry((poisoned,), feature=feature),
            config=ExecConfig(on_error="skip"),
            max_iterations=4,
        )
        trace = session.run()
        assert trace.final_result is not None
        assert session.poisoned_docs == {poisoned}

    def test_failing_samples_are_left_out_of_the_estimate(self):
        strategy = SimulationStrategy()
        faulty = strategy._weighted_values(*_probe_session("skip", {"bad"}))
        clean_session, question = _probe_session("skip", set())
        clean_session.attribute_profile = lambda *_: [
            doc_span(parse_html("good", "<p><b>Alpha</b></p>"))
        ]
        assert faulty == strategy._weighted_values(clean_session, question)

    def test_no_surviving_sample_falls_back_to_uniform(self):
        values = SimulationStrategy()._weighted_values(
            *_probe_session("retry", {"good", "bad"})
        )
        assert [v for v, _ in values] == ["yes", "no", "distinct_yes"]
        assert all(p == pytest.approx(1 / 3) for _, p in values)

    def test_fail_fast_surfaces_the_probe_failure(self):
        with pytest.raises(ExecutionFailure) as excinfo:
            SimulationStrategy()._weighted_values(
                *_probe_session("fail-fast", {"bad"})
            )
        assert excinfo.value.doc_id == "bad"
