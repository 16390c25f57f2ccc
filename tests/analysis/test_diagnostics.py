"""Diagnostic / AnalysisResult mechanics: rendering, JSON, ordering."""

import json

from repro.analysis import CODES, ERROR, WARNING, AnalysisResult, Diagnostic


def _diag(**kwargs):
    base = dict(severity=ERROR, code="ALOG001", message="boom")
    base.update(kwargs)
    return Diagnostic(**base)


class TestDiagnostic:
    def test_render_full_location(self):
        d = _diag(line=3, column=7, rule_label="R1")
        assert d.render("prog.alog") == (
            "prog.alog:3:7: error ALOG001: boom [rule R1]"
        )

    def test_render_without_span_or_path(self):
        assert _diag().render() == "error ALOG001: boom"

    def test_render_line_only(self):
        assert _diag(line=4).render() == "4: error ALOG001: boom"

    def test_span_property(self):
        d = _diag(line=2, column=5, end_line=2, end_column=9)
        assert d.span == (2, 5, 2, 9)
        assert _diag().span is None

    def test_title_comes_from_code_registry(self):
        assert _diag(code="ALOG001").title == "unsafe rule"

    def test_to_dict_round_trips_through_json(self):
        d = _diag(line=1, column=2, end_line=1, end_column=8, rule_index=0)
        restored = json.loads(json.dumps(d.to_dict()))
        assert restored["code"] == "ALOG001"
        assert restored["line"] == 1
        assert restored["title"] == "unsafe rule"

    def test_every_code_has_severity_and_title(self):
        for code, (severity, title) in CODES.items():
            assert code.startswith("ALOG") and len(code) == 7
            assert severity in ("error", "warning", "info")
            assert title


class TestAnalysisResult:
    def test_errors_warnings_split_and_ok(self):
        result = AnalysisResult(
            [
                _diag(),
                _diag(severity=WARNING, code="ALOG011", message="dead"),
            ]
        )
        assert len(result.errors) == 1
        assert len(result.warnings) == 1
        assert not result.ok
        assert AnalysisResult([]).ok

    def test_summary_line_pluralization(self):
        assert AnalysisResult([_diag()]).summary_line() == "1 error, 0 warnings"

    def test_render_ends_with_summary(self):
        text = AnalysisResult([_diag(line=1)]).render("p.alog")
        assert text.splitlines()[-1] == "1 error, 0 warnings"

    def test_to_json_round_trips(self):
        result = AnalysisResult([_diag(line=9, column=1)])
        data = json.loads(result.to_json("p.alog", indent=2))
        assert data["program"] == "p.alog"
        assert data["summary"] == {"errors": 1, "warnings": 0, "infos": 0}
        assert data["diagnostics"][0]["code"] == "ALOG001"

    def test_sort_key_orders_by_position_then_severity(self):
        early = _diag(line=1, column=1)
        late = _diag(line=5, column=1)
        spanless = _diag()
        ordered = sorted([spanless, late, early], key=Diagnostic.sort_key)
        assert ordered == [early, late, spanless]

    def test_merged_stream_orders_by_line_col_code_across_passes(self):
        # codes from different pass families at the same source position
        # come out in code order, and position dominates code — the
        # deterministic merged-stream contract
        a = _diag(line=2, column=4, code="ALOG018")
        b = _diag(line=2, column=4, code="ALOG009")
        c = _diag(line=2, column=1, code="ALOG020", severity="warning")
        d = _diag(line=1, column=9, code="ALOG021", severity="warning")
        ordered = sorted([a, b, c, d], key=Diagnostic.sort_key)
        assert [x.code for x in ordered] == [
            "ALOG021", "ALOG020", "ALOG009", "ALOG018",
        ]

    def test_sorting_is_deterministic_under_input_permutation(self):
        import itertools

        diagnostics = [
            _diag(line=3, column=2, code="ALOG017"),
            _diag(line=3, column=2, code="ALOG016"),
            _diag(line=1, column=5, code="ALOG016", severity="info"),
            _diag(code="ALOG001"),
        ]
        baseline = sorted(diagnostics, key=Diagnostic.sort_key)
        for permutation in itertools.permutations(diagnostics):
            assert sorted(permutation, key=Diagnostic.sort_key) == baseline


class TestSarifExport:
    def test_log_shape_and_rules_table(self):
        result = AnalysisResult(
            [
                _diag(line=3, column=7, end_line=3, end_column=12),
                _diag(
                    severity=WARNING,
                    code="ALOG020",
                    message="fan-out",
                    line=5,
                ),
            ]
        )
        log = json.loads(result.to_sarif_json("prog.alog"))
        assert log["version"] == "2.1.0"
        assert log["$schema"].startswith("https://")
        run = log["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(CODES)  # the full registry, sorted
        assert len(run["results"]) == 2

    def test_severity_maps_to_sarif_levels(self):
        result = AnalysisResult(
            [
                _diag(line=1),
                _diag(severity=WARNING, code="ALOG020", line=2),
                _diag(severity="info", code="ALOG016", line=3),
            ]
        )
        log = json.loads(result.to_sarif_json("p.alog"))
        levels = [r["level"] for r in log["runs"][0]["results"]]
        assert levels == ["error", "warning", "note"]

    def test_result_location_carries_uri_and_region(self):
        result = AnalysisResult(
            [_diag(line=3, column=7, end_line=3, end_column=12)]
        )
        log = json.loads(result.to_sarif_json("dir/prog.alog"))
        physical = log["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]
        assert physical["artifactLocation"]["uri"] == "dir/prog.alog"
        region = physical["region"]
        assert region["startLine"] == 3
        assert region["startColumn"] == 7
        assert region["endColumn"] == 12

    def test_spanless_diagnostic_keeps_the_uri_but_no_region(self):
        log = json.loads(AnalysisResult([_diag()]).to_sarif_json("p.alog"))
        physical = log["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]
        assert physical["artifactLocation"]["uri"] == "p.alog"
        assert "region" not in physical
