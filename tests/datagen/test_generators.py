"""Data generator tests: determinism, ground-truth integrity, markup."""

import pytest

from repro.datagen.base import build_record, find_span
from repro.datagen.books import generate_books
from repro.datagen.dblife import generate_dblife
from repro.datagen.dblp import generate_dblp
from repro.datagen.movies import generate_movies
from repro.text.html_parser import parse_html


SMALL_MOVIES = {"IMDB": 15, "Ebert": 15, "Prasanna": 20}
SMALL_DBLP = {"GarciaMolina": 15, "VLDB": 15, "SIGMOD": 15, "ICDE": 15}
SMALL_BOOKS = {"Amazon": 15, "Barnes": 15}


class TestBase:
    def test_find_span_anchored(self):
        doc = parse_html("d", "<p>rank 5 and year 5</p>")
        span = find_span(doc, "5", after="year")
        assert span.start > doc.text.index("rank")

    def test_find_span_missing_raises(self):
        doc = parse_html("d", "<p>nothing</p>")
        with pytest.raises(ValueError):
            find_span(doc, "absent")

    def test_build_record_resolves_truth(self):
        record = build_record(
            "r", "<p>Price: $42.00</p>", {"price": (42.0, "42.00", "$")}
        )
        assert record.value("price") == 42.0
        assert record.span("price").text == "42.00"

    def test_build_record_none_truth(self):
        record = build_record("r", "<p>x</p>", {"jy": None})
        assert record.value("jy") is None
        assert record.span("jy") is None


class TestDeterminism:
    def test_movies_deterministic(self):
        a = generate_movies(SMALL_MOVIES, seed=5)
        b = generate_movies(SMALL_MOVIES, seed=5)
        assert [r.doc.text for r in a["IMDB"]] == [r.doc.text for r in b["IMDB"]]

    def test_movies_seed_sensitivity(self):
        a = generate_movies(SMALL_MOVIES, seed=5)
        b = generate_movies(SMALL_MOVIES, seed=6)
        assert [r.doc.text for r in a["IMDB"]] != [r.doc.text for r in b["IMDB"]]

    def test_books_deterministic(self):
        a = generate_books(SMALL_BOOKS, seed=5)
        b = generate_books(SMALL_BOOKS, seed=5)
        assert [r.doc.text for r in a["Barnes"]] == [r.doc.text for r in b["Barnes"]]


class TestMovies:
    def test_sizes(self):
        tables = generate_movies(SMALL_MOVIES, seed=1)
        assert {k: len(v) for k, v in tables.items()} == SMALL_MOVIES

    def test_imdb_truth_spans(self):
        tables = generate_movies(SMALL_MOVIES, seed=1)
        for record in tables["IMDB"]:
            assert record.span("title").text == record.value("title")
            assert record.span("votes").numeric_value == record.value("votes")
            # title is bold and hyperlinked
            doc = record.doc
            assert doc.interval_covered_by("bold", record.span("title").start, record.span("title").end)

    def test_overlap_planted(self):
        tables = generate_movies(SMALL_MOVIES, seed=1, overlap=5)
        from repro.processor.library import make_similar

        similar = make_similar(0.55)
        imdb_titles = [r.value("title") for r in tables["IMDB"]]
        ebert_titles = [r.value("title") for r in tables["Ebert"]]
        matches = sum(
            1 for t in imdb_titles if any(similar(t, e) for e in ebert_titles)
        )
        assert matches >= 4


class TestDBLP:
    def test_journal_year_only_for_journals(self):
        tables = generate_dblp(SMALL_DBLP, seed=1)
        for record in tables["GarciaMolina"]:
            if record.doc.meta["journal"]:
                assert record.span("journalYear") is not None
            else:
                assert record.span("journalYear") is None

    def test_vldb_page_arithmetic(self):
        tables = generate_dblp(SMALL_DBLP, seed=1)
        for record in tables["VLDB"]:
            assert record.value("lastPage") > record.value("firstPage")

    def test_shared_teams_one_to_one(self):
        tables = generate_dblp(SMALL_DBLP, seed=1, shared_author_teams=5)
        sigmod_shared = [
            r.values["authors"] for r in tables["SIGMOD"] if r.doc.meta["shared_team"]
        ]
        icde_shared = [
            r.values["authors"] for r in tables["ICDE"] if r.doc.meta["shared_team"]
        ]
        assert sorted(sigmod_shared) == sorted(icde_shared)
        assert len(set(sigmod_shared)) == len(sigmod_shared)


class TestBooks:
    def test_barnes_price_bold(self):
        tables = generate_books(SMALL_BOOKS, seed=1)
        for record in tables["Barnes"]:
            span = record.span("price")
            assert span.doc.interval_covered_by("bold", span.start, span.end)

    def test_amazon_three_prices(self):
        tables = generate_books(SMALL_BOOKS, seed=1)
        for record in tables["Amazon"]:
            assert record.span("listPrice").numeric_value == record.value("listPrice")
            assert record.span("newPrice").numeric_value == record.value("newPrice")
            assert record.span("usedPrice").numeric_value == record.value("usedPrice")

    def test_t8_condition_planted(self):
        tables = generate_books({"Amazon": 80, "Barnes": 10}, seed=1)
        hits = [
            r
            for r in tables["Amazon"]
            if r.value("listPrice") == r.value("newPrice")
            and r.value("usedPrice") < r.value("newPrice")
        ]
        assert hits

    def test_overlap_prices_correlated(self):
        tables = generate_books(SMALL_BOOKS, seed=1, overlap=5)
        barnes_by_title = {r.value("title"): r for r in tables["Barnes"]}
        shared = [
            r for r in tables["Amazon"] if r.value("title") in barnes_by_title
        ]
        assert len(shared) >= 5


class TestDBLife:
    def test_truth_rows_cover_kinds(self):
        records, truth = generate_dblife(
            {"conference": 5, "project": 4, "homepage": 2}, seed=1
        )
        assert truth["panel"] or truth["chair"]
        assert truth["project"]
        kinds = {r.doc.meta["kind"] for r in records}
        assert kinds == {"conference", "project", "homepage"}

    def test_panelist_spans_resolve(self):
        records, truth = generate_dblife({"conference": 5, "project": 1, "homepage": 1}, seed=1)
        for record in records:
            if record.doc.meta["kind"] != "conference":
                continue
            for span, name in zip(record.spans["panelists"], record.values["panelists"]):
                assert span.text == name

    def test_chair_types_valid(self):
        _, truth = generate_dblife({"conference": 10, "project": 1, "homepage": 1}, seed=1)
        for _, chair_type, _ in truth["chair"]:
            assert chair_type in ("PC", "General", "Demo", "Industrial")
