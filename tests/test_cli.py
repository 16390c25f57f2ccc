"""CLI and interactive-developer tests."""

import pytest

from repro.cli import build_parser, load_corpus, main


@pytest.fixture
def pages_dir(tmp_path):
    directory = tmp_path / "pages"
    directory.mkdir()
    (directory / "a.html").write_text(
        "<p><b>Widget Alpha</b> Price: $120.00</p>", encoding="utf-8"
    )
    (directory / "b.html").write_text(
        "<p><b>Widget Beta</b> Price: $80.00</p>", encoding="utf-8"
    )
    (directory / "ignore.txt").write_text("not html", encoding="utf-8")
    return directory


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.alog"
    path.write_text(
        """
        items(x, <t>, <p>) :- pages(x), ie(@x, t, p).
        q(t, p) :- items(x, t, p), p > 100.
        ie(@x, t, p) :- from(@x, t), from(@x, p), numeric(p) = yes,
            preceded_by(p) = "$".
        """,
        encoding="utf-8",
    )
    return path


#: ``run --json`` over the fixtures, byte for byte
RUN_JSON = """\
{
  "attrs": [
    "t",
    "p"
  ],
  "tuples": [
    {
      "maybe": false,
      "cells": {
        "t": {
          "expansion": false,
          "assignments": [
            {
              "kind": "contain",
              "span": {
                "doc": "pages:a.html",
                "start": 0,
                "end": 28,
                "text": "Widget Alpha Price: $120.00\\n"
              }
            }
          ]
        },
        "p": {
          "expansion": false,
          "assignments": [
            {
              "kind": "exact",
              "span": {
                "doc": "pages:a.html",
                "start": 21,
                "end": 27,
                "text": "120.00"
              }
            }
          ]
        }
      }
    }
  ]
}
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "p.alog", "--table", "pages=./x", "--query", "q"]
        )
        assert args.command == "run"
        assert args.table == ["pages=./x"]


class TestLoadCorpus:
    def test_directory_of_html(self, pages_dir):
        corpus = load_corpus(["pages=%s" % pages_dir])
        assert corpus.size_of("pages") == 2  # the .txt is skipped

    def test_single_file(self, pages_dir):
        corpus = load_corpus(["one=%s" % (pages_dir / "a.html")])
        assert corpus.size_of("one") == 1

    def test_missing_path(self):
        with pytest.raises(SystemExit):
            load_corpus(["pages=/no/such/dir"])

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            load_corpus(["just-a-path"])


class TestCommands:
    def test_run(self, capsys, pages_dir, program_file):
        code = main(
            ["run", str(program_file), "--table", "pages=%s" % pages_dir, "--query", "q"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "120.00" in out
        assert "1 tuples" in out

    def test_run_json_output_is_unchanged(self, capsys, pages_dir, program_file):
        """``run --json`` prints the dict export's ``indent=2`` encoding."""
        code = main(
            ["run", str(program_file), "--table", "pages=%s" % pages_dir,
             "--query", "q", "--json"]
        )
        assert code == 0
        assert capsys.readouterr().out == RUN_JSON

    def test_explain(self, capsys, pages_dir, program_file):
        code = main(
            ["explain", str(program_file), "--table", "pages=%s" % pages_dir, "--query", "q"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Annotate" in out and "From" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "619,000" in out

    def test_tables_static(self, capsys):
        assert main(["tables", "--which", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out


class TestInteractiveDeveloper:
    def make(self, answers):
        from repro.assistant.interactive import InteractiveDeveloper

        answers = iter(answers)
        outputs = []
        dev = InteractiveDeveloper(
            input_fn=lambda prompt: next(answers), output_fn=outputs.append
        )
        return dev, outputs

    def test_boolean_answer(self):
        from repro.assistant.questions import Question
        from repro.features.registry import default_registry

        dev, outputs = self.make(["yes"])
        answer = dev.answer(Question("ie", "p", "bold_font"), default_registry())
        assert answer == "yes"
        assert dev.questions_answered == 1
        assert any("assistant asks" in str(o) for o in outputs)

    def test_empty_is_idk(self):
        from repro.assistant.questions import Question
        from repro.features.registry import default_registry

        dev, _ = self.make([""])
        assert dev.answer(Question("ie", "p", "bold_font"), default_registry()) is None

    def test_numeric_coercion(self):
        from repro.assistant.questions import Question
        from repro.features.registry import default_registry

        dev, _ = self.make(["25000"])
        answer = dev.answer(Question("ie", "p", "max_value"), default_registry())
        assert answer == 25000
        dev2, _ = self.make(["3.5"])
        assert dev2.answer(Question("ie", "p", "max_value"), default_registry()) == 3.5

    def test_text_feature_keeps_text(self):
        from repro.assistant.questions import Question
        from repro.features.registry import default_registry

        dev, _ = self.make(["5"])
        assert dev.answer(Question("ie", "p", "preceded_by"), default_registry()) == "5"

    def test_answer_the_feature_rejects_is_idk(self):
        from repro.assistant.questions import Question
        from repro.features.registry import default_registry

        dev, outputs = self.make(["5"])
        assert dev.answer(Question("ie", "p", "bold_font"), default_registry()) is None
        assert dev.questions_answered == 0
        assert any("ignored" in str(o) and "bold_font" in str(o) for o in outputs)

    def test_interactive_session_end_to_end(self, pages_dir, program_file, capsys, monkeypatch):
        # drive the `session` command with scripted stdin answers
        answers = iter(["", "yes"] + [""] * 50)
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        code = main(
            [
                "session",
                str(program_file),
                "--table",
                "pages=%s" % pages_dir,
                "--query",
                "q",
                "--max-iterations",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "session finished" in out


class TestArgValidation:
    """Bad numeric arguments fail at parse time with exit code 2."""

    BAD = [
        ["--workers", "0"],
        ["--workers", "-2"],
        ["--partition-docs", "0"],
        ["--partition-docs", "-2"],
        ["--max-retries", "-1"],
    ]

    @pytest.mark.parametrize("extra", BAD, ids=lambda e: " ".join(e))
    def test_run_rejects(self, extra):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "p.alog"] + extra)
        assert excinfo.value.code == 2

    def test_session_rejects_bad_max_iterations(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["session", "p.alog", "--max-iterations", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "p.alog", "--no-batch"],
            ["explain", "p.alog", "--artifact-cache", "d"],
            ["session", "p.alog", "--no-batch"],
            ["serve", "--artifact-cache", "d"],
            ["serve", "--no-batch"],
            ["run", "p.alog", "--no-eval-cache"],
            ["explain", "p.alog", "--no-incremental"],
            ["session", "p.alog", "--backend", "thread"],
            ["serve", "--no-eval-cache"],
            ["serve", "--no-incremental"],
            ["serve", "--backend", "thread"],
            ["run", "p.alog", "--no-index"],
            ["explain", "p.alog", "--no-index"],
            ["session", "p.alog", "--no-index"],
            ["serve", "--no-index"],
            ["run", "p.alog", "--workers", "2", "--backend", "process"],
            ["explain", "p.alog", "--backend", "serial"],
            ["session", "p.alog", "--backend", "process"],
            ["serve", "--backend", "process"],
            ["serve", "--workers", "2"],
            ["run", "p.alog", "--workers", "2"],
            ["session", "p.alog", "--workers", "2"],
            # explain only compiles plans: execution flags are refused
            ["explain", "p.alog", "--workers", "2"],
            ["explain", "p.alog", "--result-cache", "d"],
            ["explain", "p.alog", "--max-fixpoint-iterations", "5"],
            ["explain", "p.alog", "--on-error", "skip"],
            ["explain", "p.alog", "--max-retries", "1"],
            ["explain", "p.alog", "--partition-timeout", "0.5"],
            ["run", "p.alog", "--partition-timeout", "0.5"],
            ["session", "p.alog", "--partition-timeout", "0.5"],
            ["explain", "p.alog", "--trace-out", "t.json"],
            ["explain", "p.alog", "--metrics-out", "m.json"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_removed_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["run", "explain", "session", "serve"])
    def test_help_lists_no_removed_switch(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out
        removed_switches = [
            "--no-eval-cache", "--no-incremental", "thread", "--no-index", "--backend",
            "--partition-timeout", "--workers",
        ]
        for removed in removed_switches:
            assert removed not in text, removed

    def test_valid_values_accepted(self):
        args = build_parser().parse_args(
            ["run", "p.alog", "--partition-docs", "3", "--max-retries", "0"]
        )
        assert args.partition_docs == 3
        assert args.max_retries == 0


class TestObservabilityFlags:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys, pages_dir, program_file):
        import json

        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "run.metrics.json"
        code = main(
            ["run", str(program_file), "--table", "pages=%s" % pages_dir,
             "--query", "q", "--trace-out", str(trace_path),
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        categories = {e["cat"] for e in trace["traceEvents"]}
        assert {"engine", "plan", "operator"} <= categories
        metrics = json.loads(metrics_path.read_text())
        names = {m["name"] for m in metrics["metrics"]}
        assert "repro.exec.verify_calls" in names
        assert "repro.result.executions" in names
        err = capsys.readouterr().err
        assert str(trace_path) in err and str(metrics_path) in err

    def test_parallel_run_traces_partitions(self, tmp_path, pages_dir, program_file):
        import json

        trace_path = tmp_path / "run.trace.json"
        code = main(
            ["run", str(program_file), "--table", "pages=%s" % pages_dir,
             "--query", "q", "--partition-docs", "1",
             "--trace-out", str(trace_path)]
        )
        assert code == 0
        categories = {
            e["cat"] for e in json.loads(trace_path.read_text())["traceEvents"]
        }
        assert {"partition", "scheduler"} <= categories

    def test_analyze_json_reports_the_same_run(self, tmp_path, capsys, pages_dir, program_file):
        """``--analyze`` measures the run it describes: the same table and
        the same reuse accounting as a plain run, cold and warm."""
        import json

        from repro.observability.spans import span_tree_image, spans_from_chrome

        def run(mode, phase, *extra):
            metrics_path = tmp_path / ("%s-%s.metrics.json" % (mode, phase))
            trace_path = tmp_path / ("%s-%s.trace.json" % (mode, phase))
            code = main(
                ["run", str(program_file), "--table", "pages=%s" % pages_dir,
                 "--query", "q", "--partition-docs", "1", "--json",
                 "--result-cache", str(tmp_path / ("%s-cache" % mode)),
                 "--metrics-out", str(metrics_path),
                 "--trace-out", str(trace_path), *extra]
            )
            assert code == 0
            out = capsys.readouterr().out
            table = json.loads(out[out.rindex("\n{\n") + 1:] if extra else out)
            metrics = json.loads(metrics_path.read_text())
            spans = sorted(span_tree_image(spans_from_chrome(trace_path.read_text())))
            return table, metrics, spans, out

        for phase in ("cold", "warm"):
            table, metrics, spans, _ = run("plain", phase)
            analyzed_table, analyzed_metrics, analyzed_spans, report = run(
                "analyze", phase, "--analyze"
            )
            assert analyzed_table == table
            assert analyzed_metrics == metrics
            # the same spans, operators included: one run, two renderings
            assert analyzed_spans == spans
        by_name = {m["name"]: m for m in metrics["metrics"]}
        assert sum(
            s["value"] for s in by_name["repro.exec.partitions_reused"]["series"]
        ) == 2
        assert "items: all 2 partition(s) hydrated from the result cache" in report


class TestNumericArgValidation:
    """Previously-unvalidated numeric flags now fail at parse time."""

    CASES = [
        (["run", "p.alog", "--max-rows", "0"],),
        (["run", "p.alog", "--max-rows", "-5"],),
        (["tables", "--scale", "0"],),
        (["tables", "--scale", "-1"],),
        (["tables", "--seed", "-1"],),
        (["generate", "movies", "--out", "o", "--size", "0"],),
        (["generate", "movies", "--out", "o", "--seed", "-2"],),
        (["serve", "--port", "-1"],),
        (["serve", "--partition-docs", "0"],),
        (["serve", "--rate-limit", "0"],),
        (["serve", "--rate-burst", "0"],),
    ]

    @pytest.mark.parametrize("argv", [c[0] for c in CASES], ids=lambda a: " ".join(a))
    def test_bad_values_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_good_values_accepted(self):
        args = build_parser().parse_args(
            ["tables", "--scale", "0.5", "--seed", "0"]
        )
        assert args.scale == 0.5 and args.seed == 0
        args = build_parser().parse_args(
            ["generate", "movies", "--out", "o", "--size", "3"]
        )
        assert args.size == 3


class TestServeCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8750
        assert args.partition_docs == 1
        assert args.rate_limit is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--table", "pages=/tmp/p",
                "--result-cache", "/tmp/rc",
                "--rate-limit", "5", "--rate-burst", "10",
                "--partition-docs", "2",
            ]
        )
        assert args.port == 0
        assert args.table == ["pages=/tmp/p"]
        assert args.result_cache == "/tmp/rc"
        assert args.rate_limit == 5.0
        assert args.rate_burst == 10

    def test_config_comes_from_the_shared_builder(self):
        from repro.cli import _exec_config

        args = build_parser().parse_args(
            [
                "serve", "--result-cache", "/tmp/rc", "--partition-docs", "2",
                "--max-fixpoint-iterations", "7",
            ]
        )
        config = _exec_config(args)
        assert config.partition_docs == 2
        assert config.result_cache == "/tmp/rc"
        assert config.max_fixpoint_iterations == 7
        assert config.on_error == "fail-fast"

    def test_serve_starts_and_answers(self, pages_dir):
        """`repro serve --port 0` binds, prints its port, serves /health."""
        import json
        import subprocess
        import sys
        import urllib.request

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--table", "pages=%s" % pages_dir, "--log-level", "warning",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert "listening on http://" in line
            port = int(line.rsplit(":", 1)[1])
            with urllib.request.urlopen(
                "http://127.0.0.1:%d/health" % port, timeout=10
            ) as resp:
                payload = json.load(resp)
            assert payload["status"] == "ok"
            assert payload["documents"] == 2
        finally:
            proc.terminate()
            proc.wait(timeout=10)
