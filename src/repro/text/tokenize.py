"""Tokenisation of document text.

Every operation in the library that needs to enumerate "all sub-spans"
of a piece of text does so at *token* granularity: a candidate sub-span
starts at the start offset of some token and ends at the end offset of a
later (or the same) token.  This is the standard granularity for
span-based IE and keeps ``V(contain(s))`` quadratic in the token count
rather than in the character count.

Tokens carry a coarse kind so features such as ``numeric`` can reason
about them without re-parsing.
"""

import re
from dataclasses import dataclass

__all__ = ["Token", "tokenize", "NUMBER", "WORD", "PUNCT"]

NUMBER = "number"
WORD = "word"
PUNCT = "punct"

# A number may contain thousands separators and one decimal point:
# 351000, 1,234,567, 35.99.  Words may contain internal apostrophes and
# hyphens (O'Brien, Garcia-Molina).  Everything else that is not
# whitespace is a single punctuation token.
_TOKEN_RE = re.compile(
    r"(?P<number>\d[\d,]*(?:\.\d+)?)"
    r"|(?P<word>[A-Za-z][A-Za-z'\-]*)"
    r"|(?P<punct>\S)"
)


@dataclass(unsafe_hash=True)
class Token:
    """A single token: its text, character offsets, and coarse kind.

    Slotted and not frozen, so cheaper to build than a frozen dataclass.
    Tokens are never mutated.
    """

    __slots__ = ("text", "start", "end", "kind")
    text: str
    start: int
    end: int
    kind: str

    def __len__(self):
        return self.end - self.start


def tokenize(text):
    """Return the list of :class:`Token` in ``text``, left to right."""
    return [
        Token(match.group(), match.start(), match.end(), match.lastgroup)
        for match in _TOKEN_RE.finditer(text)
    ]


def parse_number(text):
    """Parse ``text`` as a number, or return ``None``.

    Accepts thousands separators and a leading currency symbol, because
    extracted price spans frequently include one, plus a sign and one
    decimal point.
    """
    cleaned = text.strip().lstrip("$").replace(",", "")
    # float() alone would also read "nan", "Infinity", "1_000" and "1e5",
    # none of which the tokenizer calls a NUMBER
    if not cleaned.lstrip("+-").replace(".", "", 1).isdigit():
        return None
    try:
        value = float(cleaned)
    except ValueError:  # "+-5", or digits float() cannot read ("²")
        return None
    if value.is_integer() and "." not in cleaned:
        return int(value)
    return value
