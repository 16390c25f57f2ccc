"""Public-API surface tests: everything advertised imports and works."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.text",
            "repro.features",
            "repro.xlog",
            "repro.ctables",
            "repro.alog",
            "repro.processor",
            "repro.assistant",
            "repro.datagen",
            "repro.baselines",
            "repro.experiments",
            "repro.analysis",
            "repro.cli",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), "%s.%s" % (module, name)


class TestReadmeQuickstart:
    """The README's quickstart, executed verbatim-ish."""

    def test_quickstart_flow(self):
        from repro import Corpus, IFlexEngine, Program, parse_html

        corpus = Corpus({"housePages": [
            parse_html("x1", "<p>Sqft: 2750. Price: <b>$351,000</b>.</p>"),
            parse_html("x2", "<p>Sqft: 4700. Price: <b>$619,000</b>.</p>"),
        ]})
        program = Program.parse("""
            houses(x, <p>, <a>) :- housePages(x), extractHouses(@x, p, a).
            Q(x, p) :- houses(x, p, a), p > 500000.
            extractHouses(@x, p, a) :- from(@x, p), from(@x, a),
                numeric(p) = yes, numeric(a) = yes.
        """, extensional=["housePages"], query="Q")

        result = IFlexEngine(program, corpus).execute()
        assert result.tuple_count == 1

        refined = program.add_constraint("extractHouses", "p", "bold_font", "yes")
        refined_result = IFlexEngine(refined, corpus).execute()
        assert refined_result.tuple_count == 1
        (t,) = refined_result.query_table.tuples
        values = {a.value.text for a in t.cells[1].assignments}
        assert values == {"619,000"}


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro.errors import (
            EnumerationLimitError,
            EvaluationError,
            ParseError,
            ReproError,
            SafetyError,
            UnknownFeatureError,
            UnknownPredicateError,
        )

        for exc in (
            EnumerationLimitError,
            EvaluationError,
            ParseError,
            SafetyError,
            UnknownFeatureError,
            UnknownPredicateError,
        ):
            assert issubclass(exc, ReproError)

    def test_parse_error_position(self):
        from repro.errors import ParseError

        error = ParseError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert error.line == 3 and error.column == 7


class TestNoRuntimeDependencies:
    def test_cli_and_service_import_without_numpy(self):
        """The package needs only the standard library: importing the CLI
        and the service loads no numpy."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = (
            "import sys, repro.cli, repro.service.app; "
            "assert 'numpy' not in sys.modules, 'numpy imported'"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()
