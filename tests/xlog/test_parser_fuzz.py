"""Fuzz tests: the lexer/parser never crash un-gracefully, and reprs

round-trip for generated rules."""

from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.xlog.parser import parse_rule, parse_rules

_identifier = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,6}", fullmatch=True)
_value = st.one_of(
    st.sampled_from(["yes", "no", "distinct_yes"]),
    st.integers(0, 10**6),
    st.text(alphabet="abc $.:", max_size=8),
)


@st.composite
def generated_rules(draw):
    head = draw(_identifier)
    head_vars = draw(st.lists(_identifier, min_size=1, max_size=3, unique=True))
    annotated = draw(st.booleans())
    existence = draw(st.booleans())
    args = []
    for i, var in enumerate(head_vars):
        if annotated and i == len(head_vars) - 1:
            args.append("<%s>" % var)
        else:
            args.append(var)
    base = draw(_identifier)
    body = ["%s(%s)" % (base, head_vars[0])]
    feature = draw(_identifier)
    value = draw(_value)
    if isinstance(value, str) and value not in ("yes", "no", "distinct_yes"):
        rendered = '"%s"' % value.replace("\\", "").replace('"', "")
    else:
        rendered = str(value)
    body.append("%s(%s) = %s" % (feature, head_vars[0], rendered))
    comparison_const = draw(st.integers(0, 1000))
    body.append("%s > %d" % (head_vars[0], comparison_const))
    return "%s(%s)%s :- %s." % (
        head,
        ", ".join(args),
        "?" if existence else "",
        ", ".join(body),
    )


@settings(max_examples=80, deadline=None)
@given(generated_rules())
def test_generated_rules_parse_and_round_trip(source):
    rule = parse_rule(source)
    reparsed = parse_rule(repr(rule) + ".")
    assert repr(reparsed) == repr(rule)


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=40))
def test_arbitrary_text_parse_error_or_rules(text):
    """Garbage either parses (rarely) or raises ParseError — never

    anything else."""
    try:
        parse_rules(text)
    except ParseError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="():-<>@?=,.% \nabz019\"", max_size=60))
def test_syntax_soup(text):
    try:
        parse_rules(text)
    except ParseError:
        pass
