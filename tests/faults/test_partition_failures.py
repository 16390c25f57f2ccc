"""Failures do not depend on the partition layout.

Partitions run one after another in the calling thread, so an
exception raised in one propagates exactly as in an unpartitioned run.
The only thing a partition adds is attribution: an
:class:`~repro.errors.ExecutionFailure` gains the partition's id.
"""

import dataclasses

import pytest

from repro.errors import EnumerationLimitError, ExecutionFailure
from repro.processor.executor import IFlexEngine
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from tests.faults.harness import (
    build_corpus,
    build_ppredicate_program,
    build_program,
    faulting_registry,
)
from tests.processor.test_superset_property import LAYOUTS

LAYOUT_IDS = ["unpartitioned", "chunked"]


def _raised(engine):
    with pytest.raises(Exception) as excinfo:
        engine.execute()
    return excinfo.value


def _wide_corpus():
    """Three pages of eight numbers each: wider than a cap of five."""
    return Corpus(
        {
            "pages": [
                parse_html(
                    "w%d" % i, "<p>%s</p>" % " ".join(str(10 * i + k) for k in range(8))
                )
                for i in range(3)
            ]
        }
    )


class TestLayoutIndependence:
    def test_enumeration_limit_is_the_same_error_on_every_layout(self):
        seen = []
        for config in LAYOUTS:
            engine = IFlexEngine(
                build_ppredicate_program(()),
                _wide_corpus(),
                config=dataclasses.replace(config, ppredicate_cap=5),
                validate=False,
            )
            error = _raised(engine)
            assert type(error) is EnumerationLimitError, (config, error)
            seen.append(str(error))
        assert "'clean' input cell too wide" in seen[0]
        assert seen == [seen[0]] * len(LAYOUTS)

    @pytest.mark.parametrize(
        "config, partition", zip(LAYOUTS, [None, 3]), ids=LAYOUT_IDS
    )
    def test_document_failure_keeps_its_context_and_gains_the_partition(
        self, config, partition
    ):
        # d3 of d0..d5 lies in chunk 3
        engine = IFlexEngine(
            build_program(),
            build_corpus(6),
            faulting_registry(("d3",)),
            config,
            validate=False,
        )
        error = _raised(engine)
        assert type(error) is ExecutionFailure
        assert (error.doc_id, error.operator, error.feature) == (
            "d3",
            "Refine",
            "numeric",
        )
        assert error.partition == partition
        assert str(error) == (
            "document 'd3': Refine 'numeric' failed: RuntimeError: injected fault on d3"
        )
        assert isinstance(error.__cause__, RuntimeError)
        assert str(error.__cause__) == "injected fault on d3"
