"""Smoke tests of the table harness (tiny scales; full runs live in

benchmarks/)."""

from repro.experiments.report import fmt_minutes, fmt_pct, render_table
from repro.experiments.tables import (
    convergence_stat,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)


class TestRendering:
    def test_render_table(self):
        text = render_table(("a", "bb"), [(1, 2), ("x", "yyyy")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]

    def test_fmt_minutes(self):
        assert fmt_minutes(None) == "—"
        assert fmt_minutes(3.21) == "3.21"
        assert fmt_minutes(42.4) == "42"

    def test_fmt_pct(self):
        assert fmt_pct(100.0) == "100%"
        assert fmt_pct(float("inf")) == "inf"


class TestStaticTables:
    def test_table1(self):
        headers, rows, _ = table1()
        assert len(rows) == 9  # 3 + 4 + 2 tables
        domains = {row[0] for row in rows}
        assert domains == {"Movies", "DBLP", "Books"}

    def test_table2(self):
        headers, rows, _ = table2()
        assert len(rows) == 9
        assert rows[0][0] == "T1"


class TestExperimentTables:
    def test_table3_tiny(self):
        headers, rows, extras = table3(seed=0, scale=0.04)
        assert len(rows) == 27
        assert len(extras["runs"]) == 27
        stat = convergence_stat(extras)
        assert stat["scenarios"] == 27
        assert 0 <= stat["exact"] <= 27

    def test_table4_tiny(self):
        headers, rows, extras = table4(seed=0, scale=0.04)
        assert len(rows) == 9

    def test_table5_tiny(self):
        headers, rows, extras = table5(seed=0, scale=0.04)
        assert len(rows) == 18
        schemes = {row[3] for row in rows}
        assert schemes == {"Seq", "Sim"}

    def test_table6_tiny(self):
        headers, rows, extras = table6(
            seed=0, pages={"conference": 8, "project": 6, "homepage": 4}
        )
        assert [row[0] for row in rows] == ["Panel", "Project", "Chair"]
        for result in extras["results"]:
            assert result["result_tuples"] >= 0
