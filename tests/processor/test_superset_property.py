"""THE core guarantee: approximate execution has superset semantics.

Section 4 of the paper promises that the plan's output *represents a
superset of the possible relations* the Alog program defines.  These
tests compare, on bounded inputs, the possible worlds of the engine's
compact-table output against the exact possible-worlds reference
evaluator of :mod:`repro.alog.semantics` — every exact world must be a
subset of some approximate world... no: every exact world must itself
be representable; superset semantics means the *set of worlds* of the
output contains every exact world.

Multi-document inputs are checked on both partition layouts: the
unpartitioned path and the service's one-document chunks (where rules
over a partition-local predicate run per chunk).  The chunked layout is
also checked through the result cache, each run a fresh engine over one
store directory: cold, warm, then a one-document edit, a two-document
edit and a removal, each answer against the oracle over its own corpus,
each run recomputing exactly the chunks no earlier run stored.
"""

import dataclasses
import tempfile

from hypothesis import given, settings, strategies as st

from repro.alog.semantics import program_possible_relations
from repro.ctables.worlds import compact_worlds
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.xlog.program import Program


#: unpartitioned, one-document chunks
LAYOUTS = (ExecConfig(), ExecConfig(partition_docs=1))


def edit_documents(corpus, count):
    """``corpus`` with one more number appended to its last ``count``
    documents (in table order)."""
    tables = [(name, list(corpus.table(name))) for name in corpus.table_names()]
    for _, docs in reversed(tables):
        for i in reversed(range(len(docs))):
            if count:
                doc = docs[i]
                docs[i] = Document(doc.doc_id, doc.text + " 9", regions=doc.regions)
                count -= 1
    return Corpus(dict(tables))


def remove_first_document(corpus):
    """``corpus`` without the first document of its first table that
    holds two, or ``None`` when no table does."""
    for name in corpus.table_names():
        docs = corpus.table(name)
        if len(docs) > 1:
            return corpus.without([docs[0].doc_id])
    return None


def check_superset(program, corpus, exact, config, max_worlds, seen=None):
    """Run a fresh engine and check its answer against ``exact``.

    With ``seen`` (the content digests of every chunk an earlier run
    stored under ``config.result_cache``), also check that the run
    recomputed exactly the chunks not among them, and add its own.
    """
    engine = IFlexEngine(program, corpus, config=config)
    result = engine.execute()
    approx = compact_worlds(result.query_table, max_worlds=max_worlds)
    missing = exact - approx
    assert not missing, "missing %d exact worlds under %r, e.g. %r" % (
        len(missing),
        config,
        next(iter(missing)),
    )
    if seen is not None:
        physical = engine.physical
        digests = [part.content_digest for part in physical.partitions]
        local = physical.partitioned and any(
            physical.fully_local(group[0])
            for group in engine.order
            if group not in engine.recursive_groups
        )
        expected = len([d for d in digests if d not in seen]) if local else 0
        assert result.stats.partitions_recomputed == expected, (config, result.stats)
        seen.update(digests)
    return result.stats


def assert_superset(program, corpus, max_worlds=100_000, configs=(ExecConfig(),)):
    exact = program_possible_relations(program, corpus, max_worlds=max_worlds)
    for config in configs:
        check_superset(program, corpus, exact, config, max_worlds)
    partitioned = [c for c in configs if c.partition_docs]
    if not partitioned:
        return
    changes = [
        changed
        for changed in (
            edit_documents(corpus, 1),
            edit_documents(corpus, 2),
            remove_first_document(corpus),
        )
        if changed is not None
    ]
    exact_changes = [
        program_possible_relations(program, changed, max_worlds=max_worlds)
        for changed in changes
    ]
    for config in partitioned:
        # fresh engines over one result-cache directory: cold, warm,
        # then every change in turn
        with tempfile.TemporaryDirectory() as directory:
            cached = dataclasses.replace(config, result_cache=directory)
            seen = set()
            check_superset(program, corpus, exact, cached, max_worlds, seen)
            warm = check_superset(program, corpus, exact, cached, max_worlds, seen)
            assert warm.result_cache_hits and not warm.partitions_recomputed, warm
            for changed, exact_changed in zip(changes, exact_changes):
                check_superset(program, changed, exact_changed, cached, max_worlds, seen)


class TestSupersetOnFixedPrograms:
    def test_plain_extraction(self):
        corpus = Corpus({"base": [Document("d", "a 12 b")]})
        program = Program.parse(
            """
            q(x, p) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
        )
        assert_superset(program, corpus)

    def test_attribute_annotation(self):
        corpus = Corpus({"base": [Document("d", "12 34")]})
        program = Program.parse(
            """
            q(x, <p>) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
        )
        assert_superset(program, corpus)

    def test_existence_annotation(self):
        corpus = Corpus({"base": [Document("d", "ab cd")]})
        program = Program.parse(
            """
            q(s)? :- base(y), ie(@y, s).
            ie(@y, s) :- from(@y, s).
            """,
            extensional=["base"],
        )
        assert_superset(program, corpus)

    def test_selection_on_annotated_choice(self):
        corpus = Corpus({"base": [Document("d", "5 500")]})
        program = Program.parse(
            """
            vals(x, <p>) :- base(x), ie(@x, p).
            q(p) :- vals(x, p), p > 100.
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
            query="q",
        )
        assert_superset(program, corpus)

    def test_join_with_comparison(self):
        corpus = Corpus(
            {
                "left": [Document("l", "7")],
                "right": [Document("r", "3 9")],
            }
        )
        program = Program.parse(
            """
            lv(x, a) :- left(x), ie1(@x, a).
            rv(y, <b>) :- right(y), ie2(@y, b).
            q(a, b) :- lv(x, a), rv(y, b), a > b.
            ie1(@x, a) :- from(@x, a), numeric(a) = yes.
            ie2(@y, b) :- from(@y, b), numeric(b) = yes.
            """,
            extensional=["left", "right"],
            query="q",
        )
        assert_superset(program, corpus, configs=LAYOUTS)

    def test_selection_on_annotated_choice_over_two_documents(self):
        # under one-document chunks the selection over ``vals`` is a
        # chained predicate: it runs chunk by chunk
        corpus = Corpus(
            {"base": [Document("d1", "5 500"), Document("d2", "700 7 90")]}
        )
        program = Program.parse(
            """
            vals(x, <p>) :- base(x), ie(@x, p).
            q(p) :- vals(x, p), p > 100.
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
            query="q",
        )
        assert_superset(program, corpus, configs=LAYOUTS)

    def test_annotation_without_a_doc_anchored_key_over_two_documents(self):
        # ψ groups by no doc-anchored key, so the plan is mixed: it runs
        # once over the whole corpus on every layout
        corpus = Corpus({"base": [Document("d1", "5 12"), Document("d2", "7")]})
        program = Program.parse(
            """
            q(<p>) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base"],
            query="q",
        )
        assert_superset(program, corpus, configs=LAYOUTS)

    def test_two_rule_union_over_two_documents(self):
        # a union of two document-local rules is a mixed plan too
        corpus = Corpus(
            {
                "base": [Document("d1", "5 12")],
                "more": [Document("d2", "7 a")],
            }
        )
        program = Program.parse(
            """
            q(x, p) :- base(x), ie(@x, p).
            q(x, p) :- more(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """,
            extensional=["base", "more"],
            query="q",
        )
        assert_superset(program, corpus, configs=LAYOUTS)

    def test_formatting_constraint(self):
        doc = Document("d", "aa bb cc", regions={"bold": [(3, 5)]})
        corpus = Corpus({"base": [doc]})
        program = Program.parse(
            """
            q(s)? :- base(y), ie(@y, s).
            ie(@y, s) :- from(@y, s), bold_font(s) = yes.
            """,
            extensional=["base"],
        )
        assert_superset(program, corpus)


# -- property-based fuzzing --------------------------------------------------

_tiny_text = st.text(alphabet="ab 12", min_size=1, max_size=8)

_programs = st.sampled_from(
    [
        """
        q(x, p) :- base(x), ie(@x, p).
        ie(@x, p) :- from(@x, p), numeric(p) = yes.
        """,
        """
        q(x, <p>) :- base(x), ie(@x, p).
        ie(@x, p) :- from(@x, p), numeric(p) = yes.
        """,
        """
        q(s)? :- base(y), ie(@y, s).
        ie(@y, s) :- from(@y, s), numeric(s) = yes.
        """,
        """
        vals(x, <p>) :- base(x), ie(@x, p).
        q(p) :- vals(x, p), p > 5.
        ie(@x, p) :- from(@x, p), numeric(p) = yes.
        """,
    ]
)


@settings(max_examples=40, deadline=None)
@given(_tiny_text, _programs)
def test_superset_property_fuzzed(text, source):
    corpus = Corpus({"base": [Document("f", text)]})
    program = Program.parse(source, extensional=["base"], query="q")
    assert_superset(program, corpus)


@settings(max_examples=20, deadline=None)
@given(_tiny_text, _tiny_text)
def test_superset_two_documents(text_a, text_b):
    corpus = Corpus(
        {"base": [Document("fa", text_a), Document("fb", text_b)]}
    )
    program = Program.parse(
        """
        q(x, <p>) :- base(x), ie(@x, p).
        ie(@x, p) :- from(@x, p), numeric(p) = yes.
        """,
        extensional=["base"],
    )
    assert_superset(program, corpus, configs=LAYOUTS)
