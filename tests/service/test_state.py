"""ExtractionService core: hosting, running, ingesting, invalidating."""

import pytest

from repro.processor.context import ExecConfig
from repro.service import ExtractionService, ServiceError
from repro.text.html_parser import parse_html

from tests.service.conftest import PROGRAM_SOURCE, page_doc


def build_service(**kwargs):
    return ExtractionService(**kwargs)


class TestSubmit:
    def test_submit_parses_and_hosts(self):
        service = build_service()
        service.ingest("pages", [page_doc(0)])
        host, resubmitted = service.submit_program(PROGRAM_SOURCE, query="q")
        assert not resubmitted
        assert host.program.query == "q"
        assert service.programs[host.program_id] is host

    def test_resubmit_returns_same_host(self):
        service = build_service()
        service.ingest("pages", [page_doc(0)])
        first, _ = service.submit_program(PROGRAM_SOURCE, query="q")
        second, resubmitted = service.submit_program(PROGRAM_SOURCE, query="q")
        assert resubmitted
        assert second is first

    def test_empty_source_rejected(self):
        with pytest.raises(ServiceError) as err:
            build_service().submit_program("   ")
        assert err.value.status == 400

    def test_unparseable_source_rejected(self):
        service = build_service()
        with pytest.raises(ServiceError) as err:
            service.submit_program("q(x :- nope", tables=["pages"])
        assert err.value.status == 400

    def test_tables_declarable_before_ingest(self):
        service = build_service()
        host, _ = service.submit_program(
            PROGRAM_SOURCE, query="q", tables=["pages"]
        )
        assert host.tables == ("pages",)

    def test_unknown_program_is_404(self):
        with pytest.raises(ServiceError) as err:
            build_service().get_program("zzz")
        assert err.value.status == 404

    def test_drop_program(self):
        service = build_service()
        host, _ = service.submit_program(
            PROGRAM_SOURCE, query="q", tables=["pages"]
        )
        service.drop_program(host.program_id)
        with pytest.raises(ServiceError):
            service.get_program(host.program_id)


class TestRun:
    def test_run_without_tables_conflicts(self):
        service = build_service()
        host, _ = service.submit_program(
            PROGRAM_SOURCE, query="q", tables=["pages"]
        )
        with pytest.raises(ServiceError) as err:
            service.run_program(host.program_id)
        assert err.value.status == 409

    def test_run_extracts(self):
        service = build_service()
        service.ingest("pages", [page_doc(i) for i in range(3)])
        host, _ = service.submit_program(PROGRAM_SOURCE, query="q")
        result = service.run_program(host.program_id)
        assert result.tuple_count == 3
        assert host.runs == 1
        assert host.last_summary["tuples"] == 3


class TestIngest:
    def test_ingest_validates(self):
        service = build_service()
        with pytest.raises(ServiceError):
            service.ingest("", [page_doc(0)])
        with pytest.raises(ServiceError):
            service.ingest("pages", [])

    def test_duplicate_within_batch_rejected(self):
        service = build_service()
        with pytest.raises(ServiceError):
            service.ingest("pages", [page_doc(0), page_doc(0)])

    def test_upsert_counts_replacements(self):
        service = build_service()
        added, replaced = service.ingest("pages", [page_doc(0), page_doc(1)])
        assert (added, replaced) == (2, [])
        added, replaced = service.ingest("pages", [page_doc(1), page_doc(2)])
        assert added == 1
        assert replaced == ["d1"]

    def test_edit_invalidates_resident_results(self):
        """The stale-cache regression: an in-place edit (same doc_id,
        new content) must change what a resident engine extracts."""
        service = build_service()
        service.ingest("pages", [page_doc(0)])
        host, _ = service.submit_program(PROGRAM_SOURCE, query="q")
        before = service.run_program(host.program_id)
        assert "100" in {
            a.value.text
            for t in before.query_table
            for a in t.cells[1].assignments
        }
        edited = parse_html(
            "d0", "<html><body>item 0 now costs 777 usd</body></html>"
        )
        service.ingest("pages", [edited])
        after = service.run_program(host.program_id)
        texts = {
            a.value.text
            for t in after.query_table
            for a in t.cells[1].assignments
        }
        assert "777" in texts
        assert "100" not in texts

    def test_remove_missing_is_404(self):
        service = build_service()
        with pytest.raises(ServiceError) as err:
            service.remove(["nope"])
        assert err.value.status == 404

    def test_remove_shrinks_results(self):
        service = build_service()
        service.ingest("pages", [page_doc(i) for i in range(3)])
        host, _ = service.submit_program(PROGRAM_SOURCE, query="q")
        assert service.run_program(host.program_id).tuple_count == 3
        service.remove(["d1"])
        assert service.run_program(host.program_id).tuple_count == 2


class TestSharedStores:
    def test_engines_share_service_stores(self):
        service = build_service()
        service.ingest("pages", [page_doc(0)])
        a, _ = service.submit_program(PROGRAM_SOURCE, query="q")
        b, _ = service.submit_program(
            "r(x, <p>) :- pages(x), ie(@x, p).\n"
            "ie(@x, p) :- from(@x, p), numeric(p) = yes.\n",
            query="r",
        )
        assert a.engine.eval_cache is service.eval_cache
        assert b.engine.eval_cache is service.eval_cache

    def test_result_store_shared_via_config(self, tmp_path):
        config = ExecConfig(result_cache=str(tmp_path / "rc"))
        service = build_service(config=config)
        service.ingest("pages", [page_doc(0)])
        host, _ = service.submit_program(PROGRAM_SOURCE, query="q")
        assert host.engine.result_store is service.result_store

    def test_partition_docs_defaulted(self):
        assert build_service().config.partition_docs == 1

    def test_metrics_counters_tick(self):
        service = build_service()
        service.ingest("pages", [page_doc(0)])
        host, _ = service.submit_program(PROGRAM_SOURCE, query="q")
        service.run_program(host.program_id)
        snap = service.metrics_snapshot()
        names = {m["name"] for m in snap["metrics"]}
        assert "repro.service.documents_ingested" in names
        assert "repro.service.programs_submitted" in names
        assert "repro.service.executions" in names
