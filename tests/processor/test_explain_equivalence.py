"""Differential test: ``explain_analyze`` is ``execute`` plus rendering.

Twin engines, built and warmed identically, run the same final call —
one through :meth:`IFlexEngine.execute`, one through
:meth:`IFlexEngine.explain_analyze` — and must agree on the query
table, every deterministic stats counter (result-cache hits and misses
included) and the per-predicate reuse summary.  The scenarios
cover each reuse path: cold, warm result cache, a one-document delta,
the constraints-commute incremental path, partitioned execution on
one-document and on three-document chunks, a recursive fixpoint group,
and the ``skip`` error policy.
"""

import collections

import pytest

from repro.ctables import table_key
from repro.observability.spans import Tracer
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.xlog.program import Program
from tests.faults import harness
from tests.processor.test_recursion import chain, edge_corpus, tc_program


def _t1():
    from repro.experiments.tasks import build_task

    return build_task("T1", size=20, seed=0)


def _engine(program, corpus, features=None, **config):
    return IFlexEngine(program, corpus, features, ExecConfig(**config), validate=False)


DELTA_SOURCE = """
q(x, <p>) :- pages(x), ie(@x, p).
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""


def _pages(salts=()):
    salts = dict(salts)
    return Corpus(
        {
            "pages": [
                parse_html(
                    "d%d" % i,
                    "<p>Listing %d%s Price: <b>$%d.00</b></p>"
                    % (i, salts.get(i, ""), 100 + 10 * i),
                )
                for i in range(8)
            ]
        }
    )


# Each scenario builds ``(engine, cache)`` ready for the final call in
# its own directory; both twins run the same builder.


def cold(tmp):
    task = _t1()
    return _engine(task.program, task.corpus), None


def cold_rule_cache(tmp):
    task = _t1()
    return _engine(task.program, task.corpus), RuleCache()


def warm_result_cache(tmp):
    task = _t1()
    config = dict(partition_docs=10, result_cache=str(tmp))
    _engine(task.program, task.corpus, **config).execute()
    return _engine(task.program, task.corpus, **config), None


def one_doc_delta(tmp):
    program = Program.parse(DELTA_SOURCE, extensional=["pages"], query="q")
    config = dict(partition_docs=2, result_cache=str(tmp))
    _engine(program, _pages(), **config).execute()
    return _engine(program, _pages(salts={3: " edited"}), **config), None


def added_constraint(tmp):
    corpus = Corpus(
        {"base": [parse_html("d1", "<p>Sqft: 2750. Price: <b>$351,000</b></p>")]}
    )
    program = Program.parse(
        """
        vals(x, <p>) :- base(x), ie(@x, p).
        q(x, p) :- vals(x, p), p > 1000.
        ie(@x, p) :- from(@x, p), numeric(p) = yes.
        """,
        extensional=["base"],
        query="q",
    )
    cache = RuleCache()
    _engine(program, corpus).execute(cache)
    refined = program.add_constraint("ie", "p", "preceded_by", "$")
    return _engine(refined, corpus), cache


def partitioned(**layout):
    def build(tmp):
        task = _t1()
        config = dict(result_cache=str(tmp), **layout)
        return _engine(task.program, task.corpus, **config), None

    return build


def recursive(tmp):
    return _engine(tc_program(), edge_corpus(chain(5))), RuleCache()


def skip_one_faulting_doc(tmp):
    config = dict(partition_docs=3, on_error="skip")
    engine = _engine(
        harness.build_program(),
        harness.build_corpus(6),
        harness.faulting_registry(("d0",)),
        **config,
    )
    return engine, None


SCENARIOS = {
    "cold": cold,
    "cold-rule-cache": cold_rule_cache,
    "warm-result-cache": warm_result_cache,
    "one-doc-delta": one_doc_delta,
    "added-constraint": added_constraint,
    "one-doc-chunks": partitioned(partition_docs=1),
    "chunked": partitioned(partition_docs=3),
    "recursive": recursive,
    "skip": skip_one_faulting_doc,
}


@pytest.mark.timeout(120)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_explain_analyze_matches_execute(tmp_path, scenario):
    build = SCENARIOS[scenario]
    plain_engine, plain_cache = build(tmp_path / "execute")
    analyze_engine, analyze_cache = build(tmp_path / "analyze")
    plain = plain_engine.execute(plain_cache)
    if analyze_cache is None:
        analyzed, report = analyze_engine.explain_analyze()
    else:
        analyzed, report = analyze_engine.explain_analyze(analyze_cache)
    assert analyzed.reuse_summary == plain.reuse_summary
    assert vars(analyzed.stats) == vars(plain.stats)
    assert table_key(analyzed.query_table) == table_key(plain.query_table)
    assert "eval cache:" in report


def test_scenarios_reach_their_paths(tmp_path):
    """Each scenario exercises the reuse path it is named after."""

    def run(name):
        engine, cache = SCENARIOS[name](tmp_path / name)
        return engine.execute(cache)

    assert set(run("warm-result-cache").reuse_summary.values()) == {"full"}
    assert run("one-doc-delta").stats.partitions_recomputed == 1
    assert run("added-constraint").reuse_summary["vals"] == "incremental"
    assert run("recursive").stats.fixpoint_iterations > 0
    assert run("skip").report.skipped_doc_ids == ["d0"]


class TestReuseReport:
    def test_incremental_predicate_is_reported_as_such(self, tmp_path):
        engine, cache = added_constraint(tmp_path)
        result, report = engine.explain_analyze(cache)
        assert result.reuse_summary["vals"] == "incremental"
        assert "vals: added constraint(s) applied to the cached table" in report

    def test_delta_reports_clean_partitions(self, tmp_path):
        engine, _ = one_doc_delta(tmp_path)
        result, report = engine.explain_analyze()
        assert result.stats.partitions_recomputed == 1
        assert "(3 clean partition(s) hydrated from the result cache" in report

    def test_recursive_group_reports_its_iterations(self, tmp_path):
        engine, cache = recursive(tmp_path)
        result, report = engine.explain_analyze(cache)
        assert (
            "path: recursive group evaluated semi-naively to fixpoint in %d "
            "iteration(s)" % result.stats.fixpoint_iterations
        ) in report
        _, warm = engine.explain_analyze(cache)
        assert "path: recursive group reused from the result cache" in warm


def _operator_names(tmp_path, **config):
    task = _t1()
    tracer = Tracer()
    engine = IFlexEngine(
        task.program,
        task.corpus,
        config=ExecConfig(partition_docs=10, **config),
        validate=False,
        tracer=tracer,
    )
    engine.execute()
    return collections.Counter(
        span.name for span in tracer.spans if span.category == "operator"
    )


def test_result_cache_runs_emit_every_operator_span(tmp_path):
    """The partition-cache path traces the same operators as the plain one."""
    cached = _operator_names(tmp_path, result_cache=str(tmp_path / "rc"))
    plain = _operator_names(tmp_path)
    assert cached == plain
    assert sum(plain.values()) > 4
