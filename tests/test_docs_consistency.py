"""Documentation consistency: what the docs promise exists in code."""

import pathlib
import re

from repro.features.registry import default_registry

DOCS = pathlib.Path(__file__).parent.parent / "docs"


class TestFeatureCatalog:
    def test_documented_features_exist(self):
        text = (DOCS / "features.md").read_text(encoding="utf-8")
        registry = default_registry()
        documented = set(re.findall(r"`([a-z_]+)`\s*\|", text))
        for name in documented & {
            "bold_font", "italic_font", "underlined", "hyperlinked",
            "in_list", "in_title", "numeric", "capitalized", "person_name",
            "first_half", "preceded_by", "followed_by", "min_value",
            "max_value", "min_length", "max_length", "starts_with",
            "ends_with", "pattern", "prec_label_contains",
            "prec_label_max_dist",
        }:
            assert name in registry, name

    def test_registry_features_documented(self):
        text = (DOCS / "features.md").read_text(encoding="utf-8")
        for name in default_registry().names():
            assert name in text, "feature %s missing from docs/features.md" % name


class TestCliDocs:
    def test_documented_commands_exist(self):
        from repro.cli import build_parser

        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.dest == "command"
        )
        for command in subparsers.choices:
            assert "## %s" % command in text or command in text, command


    def test_run_flags_documented_and_real(self):
        """Every documented `run` flag parses; key flags are documented."""
        from repro.cli import build_parser

        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        parser = build_parser()
        run_parser = next(
            a for a in parser._actions if a.dest == "command"
        ).choices["run"]
        known = {
            s for action in run_parser._actions for s in action.option_strings
        }
        for flag in (
            "--result-cache",
            "--metrics-out",
            "--trace-out",
            "--partition-docs",
        ):
            assert flag in known, "doc'd flag %s not in run parser" % flag
            # flags may be documented with an argument, e.g. `--partition-docs N`
            assert "`%s" % flag in text, "%s missing from docs/cli.md" % flag
        # no phantom long flags documented in the run section (the text
        # between "## run" and the next command heading)
        run_section = text.split("## run", 1)[1].split("\n## ", 1)[0]
        for flag in set(re.findall(r"`(--[a-z][a-z-]+)", run_section)):
            assert flag in known, "docs/cli.md documents unknown %s" % flag


class TestPerformanceDocs:
    def test_columnar_contract_matches_code(self):
        """The documented columnar package holds only the result store,
        and the Verify/Refine counters the page names are real."""
        import repro.columnar as columnar
        import repro.text.corpus as corpus

        text = (DOCS / "performance.md").read_text(encoding="utf-8")
        assert sorted(columnar.__all__) == sorted(
            ("ResultStore", "load_result", "prune_cache_dir", "save_result")
        )
        assert "corpus_digest" in text
        assert hasattr(corpus, "corpus_digest")
        from repro.processor.context import ExecutionStats

        stats = ExecutionStats()
        for field in (
            "verify_calls",
            "refine_calls",
            "verify_cache_hits",
            "refine_cache_hits",
        ):
            assert "`%s`" % field in text, field
            assert hasattr(stats, field), field

    def test_join_condition_contract_matches_code(self):
        """The documented condition kernel is the real call chain."""
        import inspect

        from repro.processor.conditions import ComparisonCondition, PFunctionCondition

        text = (DOCS / "performance.md").read_text(encoding="utf-8")
        assert "## Join condition evaluation" in text
        for condition in (ComparisonCondition, PFunctionCondition):
            for method in ("apply", "evaluate"):
                assert "`%s(" % method in text, method
                assert "memo" in inspect.signature(getattr(condition, method)).parameters
            assert "attrs" in inspect.signature(condition.bind).parameters
        assert "`bind(attrs)`" in text
        for path in (
            "tests/processor/test_join_memo.py",
            "tests/processor/test_conditions_property.py",
            "benchmarks/bench_micro_ops.py",
        ):
            assert path in text, path
            assert (DOCS.parent / path).exists(), path

    def test_incremental_contract_matches_code(self):
        """The documented delta-execution lifecycle names real API."""
        import repro.columnar as columnar

        text = (DOCS / "performance.md").read_text(encoding="utf-8")
        for name in ("ResultStore", "load_result", "save_result", "prune_cache_dir"):
            assert name in text, name
            assert hasattr(columnar, name), name
        from repro.processor.context import ExecConfig, ExecutionStats
        from repro.text.corpus import Corpus

        assert "content_digest" in text
        assert hasattr(Corpus(), "content_digest")
        config = ExecConfig()
        stats = ExecutionStats()
        for field in ("result_cache",):
            assert field in text, field
            assert hasattr(config, field), field
        for field in (
            "partitions_reused",
            "partitions_recomputed",
            "result_cache_hits",
            "result_cache_misses",
        ):
            assert "`%s`" % field in text or field in text, field
            assert hasattr(stats, field), field


class TestDiagnosticCodeTable:
    def test_every_code_is_documented(self):
        from repro.analysis import CODES

        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        for code in CODES:
            assert "`%s`" % code in text, (
                "diagnostic %s missing from docs/cli.md" % code
            )

    def test_no_phantom_codes_documented(self):
        from repro.analysis import CODES

        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        for code in set(re.findall(r"ALOG\d{3}", text)):
            assert code in CODES, "docs/cli.md documents unknown code %s" % code

    def test_every_code_appears_in_the_language_pass_list(self):
        from repro.analysis import CODES

        text = (DOCS / "language.md").read_text(encoding="utf-8")
        for code in CODES:
            assert "`%s`" % code in text, (
                "diagnostic %s missing from docs/language.md" % code
            )

    def test_no_phantom_codes_in_language_docs(self):
        from repro.analysis import CODES

        text = (DOCS / "language.md").read_text(encoding="utf-8")
        for code in set(re.findall(r"ALOG\d{3}", text)):
            assert code in CODES, (
                "docs/language.md documents unknown code %s" % code
            )


class TestDesignIndexTargets:
    def test_bench_targets_exist(self):
        root = pathlib.Path(__file__).parent.parent
        design = (root / "DESIGN.md").read_text(encoding="utf-8")
        for target in re.findall(r"`benchmarks/(bench_\w+\.py)`", design):
            assert (root / "benchmarks" / target).exists(), target

    def test_example_targets_exist(self):
        root = pathlib.Path(__file__).parent.parent
        design = (root / "DESIGN.md").read_text(encoding="utf-8")
        for target in re.findall(r"`examples/(\w+\.py)`", design):
            assert (root / "examples" / target).exists(), target


class TestEmbeddingDocs:
    def test_exported_api_names_are_documented(self):
        import repro.alog.embed as embed

        text = (DOCS / "embedding.md").read_text(encoding="utf-8")
        for name in embed.__all__:
            assert name in text, (
                "embed export %s missing from docs/embedding.md" % name
            )

    def test_documented_methods_exist(self):
        from repro.alog import AlogSession, ResultRow, ResultSet

        text = (DOCS / "embedding.md").read_text(encoding="utf-8")
        documented = set(
            re.findall(r"`([a-z_]+)\(", text)
        ) - {"len"}  # builtins aside
        assert {"table", "rule", "run", "submit"} <= documented
        for name in documented:
            assert any(
                hasattr(owner, name)
                for owner in (AlogSession, ResultSet, ResultRow)
            ), "docs/embedding.md documents unknown method %s" % name

    def test_documented_row_and_set_members_exist(self):
        from repro.alog import ResultRow, ResultSet

        text = (DOCS / "embedding.md").read_text(encoding="utf-8")
        for owner, members in (
            (ResultSet, ("attrs", "stats", "maybe_rows", "to_dicts", "to_csv")),
            (ResultRow, ("maybe", "value", "cell", "as_dict")),
        ):
            for member in members:
                assert member in text, member
                assert hasattr(owner, member), member


class TestServiceDocs:
    def test_documented_routes_exist(self):
        """Every route row in docs/service.md matches a real ServiceApp
        route (method + path pattern), and vice versa."""
        from repro.service import ExtractionService, ServiceApp

        text = (DOCS / "service.md").read_text(encoding="utf-8")
        documented = {
            (method, re.sub(r"<[^>]+>", "<>", path))
            for method, path in re.findall(
                r"\|\s*(GET|POST|DELETE)\s*\|\s*`(/[^`]*)`", text
            )
        }
        app = ServiceApp(ExtractionService())
        real = set()
        for method, pattern, _handler in app.routes:
            path = pattern.pattern
            path = path.lstrip("^").rstrip("$").replace("/?", "")
            path = re.sub(r"\(\?P<[a-z_]+>[^)]*\)", "<>", path)
            real.add((method, path))
        assert documented == real

    def test_documented_serve_flags_parse(self):
        from repro.cli import build_parser

        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        serve_parser = next(
            a for a in build_parser()._actions if a.dest == "command"
        ).choices["serve"]
        known = {
            s for action in serve_parser._actions for s in action.option_strings
        }
        serve_section = text.split("## serve", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"(--[a-z][a-z-]+)", serve_section))
        assert documented, "serve section documents no flags"
        for flag in documented:
            assert flag in known, "docs/cli.md documents unknown %s" % flag
        for flag in ("--port", "--result-cache", "--rate-limit", "--partition-docs"):
            assert flag in documented, "%s missing from docs/cli.md" % flag

    def test_documented_metrics_are_emitted(self):
        """Every repro.service.* counter named in the docs appears in
        the service source (no phantom metric names)."""
        import pathlib

        text = (DOCS / "service.md").read_text(encoding="utf-8")
        src = pathlib.Path(__file__).parent.parent / "src" / "repro" / "service"
        code = "".join(
            p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))
        )
        for name in re.findall(r"`repro\.service\.([a-z_]+)`?", text):
            needle_full = '"repro.service.%s"' % name
            needle_fmt = '"%s"' % name  # via _count("name")
            assert needle_full in code or needle_fmt in code, name
