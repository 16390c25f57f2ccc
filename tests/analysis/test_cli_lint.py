"""The ``repro lint`` subcommand and the ``run`` pre-execution gate."""

import json

import pytest

from repro.cli import main

MULTI_DEFECT = """\
R1: result(t, p, zz) :- talks(d), title(@d, t), sp(@d, p), p < 3, p > 5.
D1: title(@d, t) :- from(@d, t), sparkly(t) = yes.
D2: sp(@d, p) :- from(@d, p), numeric(p) = yes, numeric(p) = no.
"""

CLEAN = """\
Q(t) :- talks(d), title(@d, t).
title(@d, t) :- from(@d, t), bold_font(t) = yes.
"""


@pytest.fixture
def defective(tmp_path):
    path = tmp_path / "broken.alog"
    path.write_text(MULTI_DEFECT, encoding="utf-8")
    return path


class TestLintAcceptance:
    """The issue's acceptance scenario: one invocation, all defects."""

    def test_reports_every_defect_with_codes_and_spans(self, defective, capsys):
        exit_code = main(["lint", str(defective), "--extensional", "talks"])
        out = capsys.readouterr().out
        assert exit_code == 1
        # three distinct defects from three different passes
        assert "ALOG001" in out  # unsafe head variable zz
        assert "ALOG009" in out  # numeric yes ∧ no in D2
        assert "ALOG010" in out  # p < 3 ∧ p > 5 in R1
        # every diagnostic line carries path:line:column
        for line in out.splitlines()[:-1]:
            assert line.startswith(str(defective) + ":"), line
            _, row, col = line.split(":")[:3]
            assert row.isdigit() and col.isdigit()

    def test_json_round_trips(self, defective, capsys):
        exit_code = main(
            ["lint", str(defective), "--extensional", "talks", "--json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert data["program"] == str(defective)
        found = {d["code"] for d in data["diagnostics"]}
        assert {"ALOG001", "ALOG009", "ALOG010"} <= found
        assert data["summary"]["errors"] >= 3


class TestLintModes:
    def test_clean_program_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.alog"
        path.write_text(CLEAN, encoding="utf-8")
        assert main(["lint", str(path), "--extensional", "talks"]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_permissive_default_vs_strict(self, tmp_path, capsys):
        path = tmp_path / "ok.alog"
        path.write_text(CLEAN, encoding="utf-8")
        # no --extensional: 'talks' is undeclared
        assert main(["lint", str(path)]) == 0
        assert "ALOG013" in capsys.readouterr().out
        assert main(["lint", str(path), "--strict"]) == 1
        assert "ALOG002" in capsys.readouterr().out

    def test_table_declares_name_without_reading_path(self, tmp_path, capsys):
        path = tmp_path / "ok.alog"
        path.write_text(CLEAN, encoding="utf-8")
        code = main(
            ["lint", str(path), "--strict", "--table", "talks=/definitely/missing"]
        )
        assert code == 0

    def test_parse_error_is_alog000(self, tmp_path, capsys):
        path = tmp_path / "bad.alog"
        path.write_text("Q(x :- docs(x).", encoding="utf-8")
        assert main(["lint", str(path)]) == 1
        assert "ALOG000" in capsys.readouterr().out

    def test_missing_file_is_a_clean_systemexit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["lint", str(tmp_path / "nope.alog")])


WARNING_ONLY = """\
Q(t) :- talks(d), title(@d, t).
title(@d, t) :- from(@d, t), bold_font(t) = yes.
orphan(y) :- talks(y).
"""

WIDE_JOIN = """\
pair(x, y) :- talks(d), talks(e), t1(@d, x), t2(@e, y).
t1(@d, x) :- from(@d, x), numeric(x) = yes.
t2(@e, y) :- from(@e, y), numeric(y) = yes.
"""


class TestExitCodeSemantics:
    def test_warnings_alone_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "warned.alog"
        path.write_text(WARNING_ONLY, encoding="utf-8")
        assert main(["lint", str(path), "--extensional", "talks"]) == 0
        assert "ALOG011" in capsys.readouterr().out

    def test_strict_promotes_warnings_to_failure(self, tmp_path, capsys):
        path = tmp_path / "warned.alog"
        path.write_text(WARNING_ONLY, encoding="utf-8")
        code = main(
            ["lint", str(path), "--extensional", "talks", "--strict"]
        )
        assert code == 1
        assert "ALOG011" in capsys.readouterr().out

    def test_strict_does_not_fail_on_infos(self, tmp_path, capsys):
        path = tmp_path / "info.alog"
        # stratified-safe recursion: an informational ALOG016
        path.write_text("q(t) :- talks(d), q(t).\n", encoding="utf-8")
        code = main(["lint", str(path), "--extensional", "talks", "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "info ALOG016" in out  # reported, but advisory


class TestPlanFlag:
    def test_plan_prints_the_report_and_flags_cross_products(
        self, tmp_path, capsys
    ):
        path = tmp_path / "wide.alog"
        path.write_text(WIDE_JOIN, encoding="utf-8")
        code = main(["lint", str(path), "--extensional", "talks", "--plan"])
        out = capsys.readouterr().out
        assert code == 0  # ALOG020 is a warning; no --strict
        assert "ALOG020" in out
        assert "plan:" in out
        assert "locality" in out

    def test_without_plan_no_plan_codes_or_table(self, tmp_path, capsys):
        path = tmp_path / "wide.alog"
        path.write_text(WIDE_JOIN, encoding="utf-8")
        assert main(["lint", str(path), "--extensional", "talks"]) == 0
        out = capsys.readouterr().out
        assert "ALOG020" not in out
        assert "plan:" not in out

    def test_json_payload_carries_plan_and_strata(self, tmp_path, capsys):
        path = tmp_path / "ok.alog"
        path.write_text(CLEAN, encoding="utf-8")
        main(["lint", str(path), "--extensional", "talks", "--plan", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["strata"]["strata"] == [["title"], ["Q"]]
        assert data["plan"]["rules"][0]["predicate"] == "Q"


class TestSarifOutput:
    def test_sarif_report_is_written_and_well_formed(self, tmp_path, capsys):
        program = tmp_path / "broken.alog"
        program.write_text(MULTI_DEFECT, encoding="utf-8")
        out_path = tmp_path / "lint.sarif"
        code = main(
            [
                "lint", str(program), "--extensional", "talks",
                "--sarif", str(out_path),
            ]
        )
        assert code == 1
        log = json.loads(out_path.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "ALOG017" in rule_ids  # full registry, not just hits
        results = run["results"]
        assert {r["ruleId"] for r in results} >= {"ALOG001", "ALOG009"}
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("broken.alog")
        assert location["region"]["startLine"] >= 1


class TestDeclarationFlags:
    def test_feature_flag_declares_custom_features(self, tmp_path, capsys):
        path = tmp_path / "custom.alog"
        path.write_text(
            "confs(c) :- talks(d), conf(@d, c).\n"
            "conf(@d, c) :- from(@d, c), all_caps(c) = yes.\n",
            encoding="utf-8",
        )
        base = ["lint", str(path), "--extensional", "talks", "--strict"]
        assert main(base) == 1  # unknown feature is ALOG003
        assert "ALOG003" in capsys.readouterr().out
        assert main(base + ["--feature", "all_caps"]) == 0

    def test_p_predicate_flag_declares_procedures(self, tmp_path, capsys):
        path = tmp_path / "proc.alog"
        path.write_text(
            "q(t) :- talks(d), extractType(@d, t).\n", encoding="utf-8"
        )
        base = ["lint", str(path), "--extensional", "talks", "--strict"]
        assert main(base) == 1  # unknown predicate is ALOG002
        assert "ALOG002" in capsys.readouterr().out
        assert main(base + ["--p-predicate", "extractType"]) == 0


@pytest.fixture
def html_dir(tmp_path):
    directory = tmp_path / "pages"
    directory.mkdir()
    (directory / "a.html").write_text(
        "<p><b>Widget</b> Price: $120</p>", encoding="utf-8"
    )
    return directory


class TestRunGate:
    def test_defective_program_blocked_before_execution(
        self, tmp_path, html_dir, capsys
    ):
        path = tmp_path / "broken.alog"
        path.write_text(
            "q(x, ghost) :- pages(x).\n", encoding="utf-8"
        )
        code = main(["run", str(path), "--table", "pages=%s" % html_dir])
        captured = capsys.readouterr()
        assert code == 1
        assert "ALOG001" in captured.err
        assert captured.out == ""  # nothing executed

    def test_warnings_do_not_block_and_no_lint_silences_them(
        self, tmp_path, html_dir, capsys
    ):
        path = tmp_path / "warned.alog"
        path.write_text(
            "q(x, t) :- pages(x), title(@x, t).\n"
            "title(@x, t) :- from(@x, t).\n"
            "orphan(y) :- pages(y).\n",  # dead rule: ALOG011 warning
            encoding="utf-8",
        )
        args = ["run", str(path), "--table", "pages=%s" % html_dir]
        assert main(args + ["--query", "q"]) == 0
        assert "ALOG011" in capsys.readouterr().err
        assert main(args + ["--query", "q", "--no-lint"]) == 0
        assert "ALOG" not in capsys.readouterr().err

    def test_clean_program_runs(self, tmp_path, html_dir, capsys):
        path = tmp_path / "ok.alog"
        path.write_text(
            "q(x, t) :- pages(x), title(@x, t).\n"
            "title(@x, t) :- from(@x, t), bold_font(t) = yes.\n",
            encoding="utf-8",
        )
        assert main(["run", str(path), "--table", "pages=%s" % html_dir]) == 0
        assert "tuples" in capsys.readouterr().out


class TestCheckCommand:
    """``repro check``: strict lint against a real corpus, plan included."""

    def test_clean_program_checks_out(self, tmp_path, html_dir, capsys):
        path = tmp_path / "ok.alog"
        path.write_text(
            "q(x, t) :- pages(x), title(@x, t).\n"
            "title(@x, t) :- from(@x, t), bold_font(t) = yes.\n",
            encoding="utf-8",
        )
        code = main(["check", str(path), "--table", "pages=%s" % html_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan:" in out  # check always includes the plan lint

    def test_resolution_is_strict_against_the_corpus(
        self, tmp_path, html_dir, capsys
    ):
        path = tmp_path / "typo.alog"
        path.write_text("q(x) :- pagez(x).\n", encoding="utf-8")
        code = main(["check", str(path), "--table", "pages=%s" % html_dir])
        assert code == 1
        assert "ALOG002" in capsys.readouterr().out

    def test_strict_promotes_plan_warnings(self, tmp_path, html_dir, capsys):
        path = tmp_path / "wide.alog"
        path.write_text(
            "pair(x, y) :- pages(d), pages(e), t1(@d, x), t2(@e, y).\n"
            "t1(@d, x) :- from(@d, x), numeric(x) = yes.\n"
            "t2(@e, y) :- from(@e, y), numeric(y) = yes.\n",
            encoding="utf-8",
        )
        args = ["check", str(path), "--table", "pages=%s" % html_dir]
        assert main(args) == 0  # ALOG020 warning alone passes
        assert "ALOG020" in capsys.readouterr().out
        assert main(args + ["--strict"]) == 1

    def test_sarif_out_from_check(self, tmp_path, html_dir, capsys):
        path = tmp_path / "ok.alog"
        path.write_text(
            "q(x, t) :- pages(x), title(@x, t).\n"
            "title(@x, t) :- from(@x, t), bold_font(t) = yes.\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "check.sarif"
        args = [
            "check", str(path), "--table", "pages=%s" % html_dir,
            "--sarif", str(out_path),
        ]
        assert main(args) == 0
        log = json.loads(out_path.read_text(encoding="utf-8"))
        assert log["runs"][0]["results"] == []
