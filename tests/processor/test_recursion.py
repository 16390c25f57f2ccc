"""Semi-naive fixpoint execution over stratified-safe recursive groups.

Transitive closure as edge documents: each ``<p>AAA BBB</p>`` page is
one edge (fixed-width numbers so ``first_half`` splits source from
target), ``path`` is the recursive closure.  The suite pins byte
identity across partition layouts, a differential check against a hand-unrolled
program, the unsafe-cycle refusal, the ``max_fixpoint_iterations``
guard, and the warm result-cache interaction.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ctables import table_key
from repro.ctables.assignments import value_text
from repro.errors import EvaluationError, ExecutionFailure
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.xlog.program import Program

TC_SOURCE = """
edge(x, y) :- docs(d), pair(@d, x, y).
pair(@d, x, y) :- from(@d, x), numeric(x) = yes, first_half(x) = yes, from(@d, y), numeric(y) = yes, first_half(y) = no.
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y2, z), y = y2.
"""

UNSAFE_SOURCE = """
q(t)? :- docs(d), q(t).
"""


def edge_corpus(edges):
    docs = [
        parse_html("e%03d" % i, "<p>%03d %03d</p>" % (a, b))
        for i, (a, b) in enumerate(sorted(set(edges)))
    ]
    return Corpus({"docs": docs})


def tc_program(query="path"):
    return Program.parse(TC_SOURCE, extensional=["docs"], query=query)


def chain(n):
    """``n`` edges 1 -> 2 -> ... -> n+1."""
    return [(i, i + 1) for i in range(1, n + 1)]


def closure(edges):
    """Reference transitive closure, as a set of int pairs."""
    paths = set(edges)
    while True:
        new = {(x, z) for (x, y) in paths for (w, z) in edges if y == w}
        if new <= paths:
            return paths
        paths |= new


def result_pairs(result):
    """The query table as a set of int pairs (expanding assignments)."""
    pairs = set()
    for t in result.query_table:
        for left in t.cells[0].assignments:
            for right in t.cells[1].assignments:
                pairs.add(
                    (int(value_text(left.value)), int(value_text(right.value)))
                )
    return pairs


class TestFixpoint:
    def test_transitive_closure_of_a_chain(self):
        result = IFlexEngine(tc_program(), edge_corpus(chain(4))).execute()
        assert result_pairs(result) == closure(chain(4))
        # n productive iterations plus the final empty proof-of-fixpoint
        assert result.stats.fixpoint_iterations == 5

    def test_cyclic_graph_converges(self):
        edges = [(1, 2), (2, 3), (3, 1)]
        result = IFlexEngine(tc_program(), edge_corpus(edges)).execute()
        assert result_pairs(result) == closure(edges)

    def test_iteration_count_rides_on_stats_merge(self):
        result = IFlexEngine(tc_program(), edge_corpus(chain(2))).execute()
        assert result.stats.fixpoint_iterations == 3
        assert vars(result.stats)["fixpoint_iterations"] == 3


class TestBackendByteIdentity:
    @pytest.mark.parametrize(
        "config",
        [
            ExecConfig(),
            ExecConfig(partition_docs=2),
            ExecConfig(partition_docs=1),
        ],
        ids=["serial", "partitioned", "chunked"],
    )
    def test_each_backend_matches_the_serial_image(self, config):
        corpus = edge_corpus(chain(4))
        baseline = IFlexEngine(tc_program(), corpus).execute()
        result = IFlexEngine(tc_program(), corpus, config=config).execute()
        assert table_key(result.query_table) == table_key(baseline.query_table)
        assert (
            result.stats.fixpoint_iterations
            == baseline.stats.fixpoint_iterations
        )


class TestDifferentialUnrolled:
    """Recursive ``path`` vs a hand-unrolled bounded union.

    The unrolled program derives ``path`` as union of length-1..K join
    chains; on graphs whose longest simple path is under K hops, the
    value sets must agree (compared as sets — the fixpoint deduplicates,
    the unrolled union re-derives).
    """

    UNROLLED = """
edge(x, y) :- docs(d), pair(@d, x, y).
pair(@d, x, y) :- from(@d, x), numeric(x) = yes, first_half(x) = yes, from(@d, y), numeric(y) = yes, first_half(y) = no.
path1(x, y) :- edge(x, y).
path2(x, z) :- path1(x, y), edge(y2, z), y = y2.
path3(x, z) :- path2(x, y), edge(y2, z), y = y2.
path4(x, z) :- path3(x, y), edge(y2, z), y = y2.
path(x, y) :- path1(x, y).
path(x, y) :- path2(x, y).
path(x, y) :- path3(x, y).
path(x, y) :- path4(x, y).
"""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_recursive_matches_hand_unrolled(self, edges):
        corpus = edge_corpus(edges)
        recursive = IFlexEngine(tc_program(), corpus).execute()
        unrolled_program = Program.parse(
            self.UNROLLED, extensional=["docs"], query="path"
        )
        unrolled = IFlexEngine(unrolled_program, corpus).execute()
        expected = closure(sorted(set(edges)))
        # 4 distinct edges -> longest simple path has at most 4 hops,
        # so the K=4 unrolling is exhaustive
        assert result_pairs(recursive) == expected
        assert result_pairs(unrolled) == expected


class TestUnsafeRefusal:
    def test_psi_in_cycle_still_fails_alog016(self):
        program = Program.parse(
            UNSAFE_SOURCE, extensional=["docs"], query="q"
        )
        corpus = edge_corpus(chain(1))
        with pytest.raises(EvaluationError) as err:
            IFlexEngine(program, corpus, validate=False).execute()
        assert "ALOG016" in str(err.value)
        assert "cannot be stratified" in str(err.value)


class TestFixpointGuard:
    def test_exceeding_the_cap_is_an_enriched_failure(self):
        config = ExecConfig(max_fixpoint_iterations=2)
        with pytest.raises(ExecutionFailure) as err:
            IFlexEngine(
                tc_program(), edge_corpus(chain(4)), config=config
            ).execute()
        failure = err.value
        assert failure.operator == "Fixpoint"
        assert failure.predicate == "path"
        assert "max_fixpoint_iterations" in str(failure)

    def test_guard_surfaces_under_the_skip_policy_too(self):
        # not attributable to one document (doc_id is None), so the
        # skip policy cannot quarantine its way past it
        config = ExecConfig(max_fixpoint_iterations=2, on_error="skip")
        with pytest.raises(ExecutionFailure):
            IFlexEngine(
                tc_program(), edge_corpus(chain(4)), config=config
            ).execute()

    def test_generous_cap_is_untouched(self):
        config = ExecConfig(max_fixpoint_iterations=50)
        result = IFlexEngine(
            tc_program(), edge_corpus(chain(4)), config=config
        ).execute()
        assert result_pairs(result) == closure(chain(4))


class TestWarmResultCache:
    def test_second_run_reuses_the_recursive_group(self):
        corpus = edge_corpus(chain(4))
        cache = RuleCache()
        cold = IFlexEngine(tc_program(), corpus).execute(cache=cache)
        assert cold.reuse_summary["path"] == "computed"
        warm = IFlexEngine(tc_program(), corpus).execute(cache=cache)
        assert warm.reuse_summary["path"] == "full"
        assert warm.reuse_summary["edge"] == "full"
        assert table_key(warm.query_table) == table_key(cold.query_table)

    def test_corpus_change_invalidates_the_group(self):
        cache = RuleCache()
        IFlexEngine(tc_program(), edge_corpus(chain(4))).execute(cache=cache)
        grown = IFlexEngine(
            tc_program(), edge_corpus(chain(5))
        ).execute(cache=cache)
        assert grown.reuse_summary["path"] == "computed"
        assert result_pairs(grown) == closure(chain(5))
