"""Deterministic fault-injection harness (see docs/robustness.md).

``FaultingFeature`` wraps a real feature and raises only on a chosen
set of poisoned documents, so tests can dial in exactly which
documents fail, how many times, and in which operator.
Faults are keyed on ``doc_id`` alone, which keeps them deterministic
across partition layouts and quarantine re-runs.

Transient faults (``fail_times``) count their trips in one file per
poisoned document under ``trip_dir``.
"""

from repro.features.base import Feature
from repro.features.registry import default_registry
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.xlog.program import PPredicate, Program

__all__ = [
    "FaultingFeature",
    "faulting_p_predicate",
    "faulting_registry",
    "build_corpus",
    "build_program",
    "build_ppredicate_program",
]


class FaultingFeature(Feature):
    """A real feature that fails on poisoned documents.

    ``fail_times=None`` (the default) fails every evaluation over a
    poisoned document; an integer, together with ``trip_dir``, fails
    that many evaluations per document and then recovers (transient
    faults, for exercising the ``retry`` policy).  ``calls`` counts the
    evaluations that reached the feature, faulting ones included.
    """

    parameterized = False

    def __init__(self, inner, poisoned, fail_times=None, trip_dir=None):
        self.name = inner.name
        self.inner = inner
        self.poisoned = set(poisoned)
        self.fail_times = fail_times
        self.trip_dir = trip_dir
        self.calls = {"verify": 0, "refine": 0}

    def _trip(self, doc_id):
        if self.fail_times is None:
            return True
        path = self.trip_dir / ("%s.trips" % doc_id)
        count = len(path.read_text().splitlines()) if path.exists() else 0
        if count >= self.fail_times:
            return False
        with path.open("a") as fh:
            fh.write("trip\n")
        return True

    def _maybe_fault(self, span):
        doc_id = span.doc.doc_id
        if doc_id not in self.poisoned:
            return
        if self._trip(doc_id):
            raise RuntimeError("injected fault on %s" % doc_id)

    def verify(self, span, value):
        self.calls["verify"] += 1
        self._maybe_fault(span)
        return self.inner.verify(span, value)

    def refine(self, span, value):
        self.calls["refine"] += 1
        self._maybe_fault(span)
        return self.inner.refine(span, value)


def faulting_registry(poisoned, feature="numeric", **kwargs):
    """The default registry with ``feature`` replaced by a faulting wrap."""
    registry = default_registry()
    registry.register(FaultingFeature(registry.get(feature), poisoned, **kwargs))
    return registry


def faulting_p_predicate(name, poisoned):
    """A 1-in/1-out cleanup p-predicate that raises on poisoned docs."""

    def func(span):
        if span.doc.doc_id in poisoned:
            raise RuntimeError("injected p-predicate fault on %s" % span.doc.doc_id)
        return [(span.text.strip(),)]

    return PPredicate(name, func, 1, 1)


def build_corpus(n=6):
    """``n`` one-record pages, doc ids ``d0`` .. ``d(n-1)``."""
    docs = [
        parse_html(
            "d%d" % i, "<p>Listing %d Price: <b>$%d.00</b></p>" % (i, 100 + 10 * i)
        )
        for i in range(n)
    ]
    return Corpus({"pages": docs})


PROGRAM_SOURCE = """
q(x, <p>) :- pages(x), ie(@x, p).
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""


def build_program():
    return Program.parse(PROGRAM_SOURCE, extensional=["pages"], query="q")


PPREDICATE_SOURCE = """
q(x, <p>, c) :- pages(x), ie(@x, p), clean(@p, c).
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""


def build_ppredicate_program(poisoned):
    return Program.parse(
        PPREDICATE_SOURCE,
        extensional=["pages"],
        p_predicates={"clean": faulting_p_predicate("clean", poisoned)},
        query="q",
    )
