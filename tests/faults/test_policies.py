"""Error-policy behaviour: fail-fast enrichment, retry with recovery,
retry exhaustion, and the failures that no policy may contain.
"""

import pytest

from repro.errors import ExecutionFailure
from repro.features.registry import default_registry
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.policy import _PolicyDriver
from tests.faults.harness import build_corpus, build_program, faulting_registry
from tests.processor.test_parallel import result_image

#: partitioned layouts, both run serially: chunks of three and of two
#: documents
LAYOUTS = {"serial": dict(partition_docs=3), "chunked": dict(partition_docs=2)}


def make_engine(registry, corpus=None, **config_kwargs):
    return IFlexEngine(
        build_program(),
        corpus if corpus is not None else build_corpus(6),
        registry,
        ExecConfig(**config_kwargs),
        validate=False,
    )


class TestFailFast:
    def test_raises_enriched_failure_not_bare_exception(self):
        engine = make_engine(faulting_registry(("d3",)))
        with pytest.raises(ExecutionFailure) as excinfo:
            engine.execute()
        failure = excinfo.value
        assert failure.doc_id == "d3"
        assert failure.feature == "numeric"
        assert failure.operator in ("Verify", "Refine")
        assert failure.exc_type == "RuntimeError"
        assert "injected fault" in str(failure)
        assert "d3" in str(failure)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_partitioned_failure_carries_partition(self, layout):
        engine = make_engine(faulting_registry(("d5",)), **LAYOUTS[layout])
        with pytest.raises(ExecutionFailure) as excinfo:
            engine.execute()
        assert excinfo.value.doc_id == "d5"
        assert excinfo.value.partition is not None

    def test_fail_fast_is_the_default(self):
        engine = make_engine(faulting_registry(("d0",)))
        assert engine.config.on_error == "fail-fast"
        with pytest.raises(ExecutionFailure):
            engine.execute()


class TestRetry:
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_transient_fault_recovers(self, tmp_path, layout):
        # fails twice, succeeds on the third attempt: with two retries
        # budgeted the run recovers with the *full* corpus intact
        registry = faulting_registry(
            ("d2",), fail_times=2, trip_dir=tmp_path
        )
        engine = make_engine(
            registry,
            on_error="retry",
            max_retries=2,
            retry_backoff=0.0,
            **LAYOUTS[layout],
        )
        result = engine.execute()
        assert result.report.records == []
        assert result.report.retries == 2
        assert result.stats.retries == 2
        reference = IFlexEngine(
            build_program(), build_corpus(6), default_registry(), validate=False
        ).execute()
        assert result_image(result) == result_image(reference)

    def test_exhausted_retries_fall_back_to_skip(self):
        engine = make_engine(
            faulting_registry(("d2",)),
            on_error="retry",
            max_retries=1,
            retry_backoff=0.0,
        )
        result = engine.execute()
        (record,) = result.report.records
        assert record.doc_id == "d2"
        assert record.retry_count == 1
        assert result.report.retries == 1
        reference = IFlexEngine(
            build_program(),
            build_corpus(6).without(("d2",)),
            default_registry(),
            validate=False,
        ).execute()
        assert result_image(result) == result_image(reference)


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        engine = make_engine(default_registry(), on_error="ignore")
        with pytest.raises(ValueError, match="unknown error policy"):
            engine.execute()

    def test_non_attributable_failure_always_raises(self):
        engine = make_engine(default_registry(), on_error="skip")
        driver = _PolicyDriver(engine)
        with pytest.raises(ExecutionFailure, match="unattributed"):
            driver._handle(ExecutionFailure("unattributed breakage"))

    def test_engine_quarantine_rebuilds_active_corpus(self):
        engine = make_engine(default_registry(), partition_docs=2, on_error="skip")
        assert engine.active_corpus is engine.corpus
        engine._exclude_document("d1")
        assert engine.excluded_docs == {"d1"}
        ids = [
            d.doc_id
            for part in engine.physical.partitions
            for d in part.table("pages")
        ]
        assert "d1" not in ids and len(ids) == 5
