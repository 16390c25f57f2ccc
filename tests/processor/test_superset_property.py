"""THE core guarantee: approximate execution has superset semantics.

Section 4 of the paper promises that the plan's output *represents a
superset of the possible relations* the Alog program defines.  These
tests compare, on bounded inputs, the possible worlds of the engine's
compact-table output against the exact possible-worlds reference
evaluator of :mod:`repro.alog.semantics` — every exact world must be a
subset of some approximate world... no: every exact world must itself
be representable; superset semantics means the *set of worlds* of the
output contains every exact world.

Multi-document inputs are checked on every partition layout: the
unpartitioned path, worker partitions and the service's one-document
chunks (where rules over a partition-local predicate run per chunk).
The partitioned layouts are also checked through the result cache:
cold, warm, and after a one-document edit, each answer against the
oracle over its own corpus.
"""

import dataclasses
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.alog.semantics import program_possible_relations
from repro.ctables.worlds import compact_worlds
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.xlog.program import Program


#: unpartitioned, worker partitions, one-document chunks
LAYOUTS = (ExecConfig(), ExecConfig(workers=2), ExecConfig(partition_docs=1))


def edit_one_document(corpus):
    """``corpus`` with one more number appended to its last document."""
    names = corpus.table_names()
    edited = Corpus()
    for name in names:
        docs = list(corpus.table(name))
        if name == names[-1]:
            last = docs[-1]
            docs[-1] = Document(last.doc_id, last.text + " 9", regions=last.regions)
        edited.add_table(name, docs)
    return edited


def check_superset(program, corpus, exact, config, max_worlds):
    result = IFlexEngine(program, corpus, config=config).execute()
    approx = compact_worlds(result.query_table, max_worlds=max_worlds)
    missing = exact - approx
    assert not missing, "missing %d exact worlds under %r, e.g. %r" % (
        len(missing),
        config,
        next(iter(missing)),
    )
    return result.stats


def assert_superset(program, corpus, max_worlds=100_000, configs=(ExecConfig(),)):
    exact = program_possible_relations(program, corpus, max_worlds=max_worlds)
    for config in configs:
        check_superset(program, corpus, exact, config, max_worlds)
    partitioned = [c for c in configs if c.workers > 1 or c.partition_docs]
    if not partitioned:
        return
    edited = edit_one_document(corpus)
    exact_edited = program_possible_relations(program, edited, max_worlds=max_worlds)
    for config in partitioned:
        # cold, warm and one-document-edit runs through the result cache
        with tempfile.TemporaryDirectory() as directory:
            cached = dataclasses.replace(config, result_cache=directory)
            check_superset(program, corpus, exact, cached, max_worlds)
            warm = check_superset(program, corpus, exact, cached, max_worlds)
            assert warm.result_cache_hits and not warm.partitions_recomputed, warm
            check_superset(program, edited, exact_edited, cached, max_worlds)


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
