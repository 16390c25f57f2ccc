"""The tentpole invariant: ``skip`` over k poisoned documents is
byte-identical to a clean run over the corpus minus those documents —
on every partition layout, with exactly k fully-attributed
FailureRecords.
"""

import pytest

from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from tests.faults.harness import (
    build_corpus,
    build_ppredicate_program,
    build_program,
    faulting_registry,
)
from tests.processor.test_parallel import result_image

#: partitioned layouts, both run serially: chunks of three and of two
#: documents
LAYOUTS = {"serial": dict(partition_docs=3), "chunked": dict(partition_docs=2)}
POISONED = ("d1", "d4")


def run_engine(program, corpus, registry, **config_kwargs):
    config = ExecConfig(**config_kwargs)
    engine = IFlexEngine(program, corpus, registry, config, validate=False)
    return engine.execute()


class TestSkipEquivalence:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_skip_matches_clean_run_minus_poisoned(self, layout):
        corpus = build_corpus(6)
        result = run_engine(
            build_program(),
            corpus,
            faulting_registry(POISONED),
            on_error="skip",
            **LAYOUTS[layout],
        )
        # the reference uses the same faulting registry: with the
        # poisoned documents absent, no fault ever trips, so any
        # divergence is the error policy's fault alone
        reference = run_engine(
            build_program(),
            corpus.without(POISONED),
            faulting_registry(POISONED),
            **LAYOUTS[layout],
        )
        assert result_image(result) == result_image(reference), (
            "skip run diverged from clean-minus-poisoned on %s" % layout
        )
        report = result.report
        assert report.policy == "skip"
        assert len(report.records) == len(POISONED)
        assert sorted(report.skipped_doc_ids) == sorted(POISONED)
        for record in report.records:
            assert record.doc_id in POISONED
            # constraint application refines first, so the injected
            # fault surfaces from whichever protocol call ran first
            assert record.operator in ("Verify", "Refine")
            assert record.feature == "numeric"
            assert record.partition is not None
            assert record.exc_type == "RuntimeError"
            assert "injected fault" in record.message
        assert result.stats.failures == len(POISONED)

    def test_skip_single_worker_serial_path(self):
        # an unpartitioned run bypasses the physical layer; the policy
        # driver must contain failures on that path too (no partition
        # context to attribute, doc/operator still present)
        corpus = build_corpus(6)
        result = run_engine(
            build_program(),
            corpus,
            faulting_registry(POISONED),
            on_error="skip",
        )
        reference = run_engine(
            build_program(), corpus.without(POISONED), faulting_registry(POISONED)
        )
        assert result_image(result) == result_image(reference)
        assert sorted(result.report.skipped_doc_ids) == sorted(POISONED)
        assert all(r.partition is None for r in result.report.records)

    def test_skip_contains_ppredicate_faults(self):
        # the second injection point: a raising cleanup p-predicate is
        # attributed through its input span's document
        corpus = build_corpus(6)
        poisoned = {"d2"}
        result = run_engine(
            build_ppredicate_program(poisoned),
            corpus,
            None,
            on_error="skip",
        )
        reference = run_engine(
            build_ppredicate_program(poisoned), corpus.without(poisoned), None
        )
        assert result_image(result) == result_image(reference)
        (record,) = result.report.records
        assert record.doc_id == "d2"
        assert record.operator == "PPredicate"
        assert record.predicate == "clean"

    def test_clean_corpus_reports_nothing(self):
        corpus = build_corpus(4)
        result = run_engine(
            build_program(), corpus, faulting_registry(()), on_error="skip"
        )
        assert not result.report
        assert result.report.records == []
        assert result.stats.failures == 0 and result.stats.retries == 0

    @pytest.mark.timeout(120)
    def test_explain_analyze_skips_and_reports(self):
        corpus = build_corpus(6)
        config = ExecConfig(partition_docs=3, on_error="skip")
        engine = IFlexEngine(
            build_program(), corpus, faulting_registry(("d0",)), config, validate=False
        )
        result, text = engine.explain_analyze()
        assert result.report.skipped_doc_ids == ["d0"]
        assert "error policy 'skip'" in text
        assert "d0" in text


class TestEvaluationsAcrossAttempts:
    def test_quarantine_reruns_evaluate_alike_on_every_layout(self):
        """Partitions share the run's eval cache, so a quarantine re-run
        replays what earlier attempts evaluated: a chunked run reaches
        the feature exactly as often as an unpartitioned one."""
        calls = {}
        for layout, config in {"unpartitioned": {}, **LAYOUTS}.items():
            registry = faulting_registry(POISONED)
            result = run_engine(
                build_program(), build_corpus(6), registry, on_error="skip", **config
            )
            assert sorted(result.report.skipped_doc_ids) == sorted(POISONED)
            calls[layout] = registry.get("numeric").calls
        assert calls["serial"] == calls["chunked"] == calls["unpartitioned"], calls
