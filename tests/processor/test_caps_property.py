"""Property: superset semantics survives arbitrarily tight caps.

Every enumeration cap (enum_cap, pair_cap) is allowed to degrade
precision — never soundness.  Executing with pathologically small caps
must still represent every exact world.
"""

from hypothesis import given, settings, strategies as st

from repro.alog.semantics import program_possible_relations
from repro.ctables.worlds import compact_worlds
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.xlog.program import Program

PROGRAM = """
vals(x, <p>) :- base(x), ie(@x, p).
q(p) :- vals(x, p), p > 5.
ie(@x, p) :- from(@x, p), numeric(p) = yes.
"""


@settings(max_examples=30, deadline=None)
@given(
    st.text(alphabet="ab 147", min_size=1, max_size=10),
    st.integers(min_value=1, max_value=5),
)
def test_superset_with_tiny_caps(text, cap):
    corpus = Corpus({"base": [Document("cp", text)]})
    program = Program.parse(PROGRAM, extensional=["base"], query="q")
    exact = program_possible_relations(program, corpus)
    config = ExecConfig(enum_cap=max(cap, 2), pair_cap=cap)
    result = IFlexEngine(program, corpus, config=config).execute()
    approx = compact_worlds(result.query_table)
    assert exact <= approx


def test_tiny_caps_join_still_superset():
    corpus = Corpus(
        {"l": [Document("l0", "3 9")], "r": [Document("r0", "7")]}
    )
    program = Program.parse(
        """
        lv(x, <a>) :- l(x), ie1(@x, a).
        rv(y, <b>) :- r(y), ie2(@y, b).
        q(a, b) :- lv(x, a), rv(y, b), a > b.
        ie1(@x, a) :- from(@x, a), numeric(a) = yes.
        ie2(@y, b) :- from(@y, b), numeric(b) = yes.
        """,
        extensional=["l", "r"],
        query="q",
    )
    exact = program_possible_relations(program, corpus)
    for pair_cap in (1, 2, 3):
        config = ExecConfig(enum_cap=2, pair_cap=pair_cap)
        result = IFlexEngine(program, corpus, config=config).execute()
        assert exact <= compact_worlds(result.query_table)


def test_caps_only_loosen_never_tighten():
    """The tight-cap result's world set contains the default-cap one."""
    corpus = Corpus({"base": [Document("cc", "2 7 9")]})
    program = Program.parse(PROGRAM, extensional=["base"], query="q")
    loose = IFlexEngine(program, corpus).execute()
    tight = IFlexEngine(
        program, corpus, config=ExecConfig(enum_cap=2, pair_cap=1)
    ).execute()
    assert compact_worlds(loose.query_table) <= compact_worlds(tight.query_table)
