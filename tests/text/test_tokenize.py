"""Tokeniser tests."""

import pytest

from repro.text.tokenize import NUMBER, PUNCT, WORD, Token, parse_number, tokenize


class TestTokenize:
    def test_words_and_numbers(self):
        tokens = tokenize("Price: 351,000 dollars")
        kinds = [(t.text, t.kind) for t in tokens]
        assert ("Price", WORD) in kinds
        assert ("351,000", NUMBER) in kinds
        assert ("dollars", WORD) in kinds
        assert (":", PUNCT) in kinds

    def test_offsets_cover_text(self):
        text = "Votes: 23,456 (2005)"
        for token in tokenize(text):
            assert text[token.start : token.end] == token.text

    def test_decimal_number_is_one_token(self):
        tokens = tokenize("only 35.99 left")
        numbers = [t for t in tokens if t.kind == NUMBER]
        assert [t.text for t in numbers] == ["35.99"]

    def test_hyphenated_and_apostrophe_words(self):
        tokens = tokenize("Garcia-Molina reads O'Brien")
        words = [t.text for t in tokens if t.kind == WORD]
        assert "Garcia-Molina" in words
        assert "O'Brien" in words

    def test_empty_text(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize(" \n\t ") == []

    def test_token_length(self):
        token = Token("abc", 5, 8, WORD)
        assert len(token) == 3

    def test_token_equality_hash_and_repr(self):
        token = Token("abc", 5, 8, WORD)
        assert token == Token("abc", 5, 8, WORD)
        assert hash(token) == hash(Token("abc", 5, 8, WORD))
        assert token != Token("abc", 5, 8, NUMBER)
        assert token != ("abc", 5, 8, WORD)
        assert repr(token) == "Token(text='abc', start=5, end=8, kind='word')"

    def test_page_range_splits_into_three_tokens(self):
        tokens = tokenize("pp. 123-134.")
        texts = [t.text for t in tokens]
        assert "123" in texts and "134" in texts and "-" in texts


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("92", 92),
            ("351,000", 351000),
            ("35.99", 35.99),
            ("$116.00", 116.0),
            (" 42 ", 42),
            ("$1,234,567", 1234567),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_number(text) == expected

    @pytest.mark.parametrize(
        "text,expected", [("-5", -5), ("+5", 5), ("$-5", -5), (".5", 0.5), ("5.", 5.0)]
    )
    def test_sign_and_decimal_point(self, text, expected):
        assert parse_number(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["nan", "NaN", "-nan", "inf", "Infinity", "-inf", "+Infinity", "1_000",
         "$1_000", "1e5"],
    )
    def test_rejects_spellings_only_float_accepts(self, text):
        assert parse_number(text) is None

    @pytest.mark.parametrize(
        "text", ["", "abc", "12abc", "$", "1 2", "--3", "+-5", "1.2.3", "0x10", "-$5", "²"]
    )
    def test_rejects(self, text):
        assert parse_number(text) is None

    def test_integer_stays_int(self):
        assert isinstance(parse_number("92"), int)

    def test_decimal_is_float(self):
        assert isinstance(parse_number("92.0"), float)
