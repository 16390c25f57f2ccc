"""CLI fault surfacing: the new error-policy flags, non-zero exit only
under fail-fast, and the failure report on stderr (never mixed into the
piped table output).
"""

import pytest

from repro import cli
from repro.errors import ExecutionFailure, ExecutionReport, FailureRecord
from tests.faults.harness import PROGRAM_SOURCE


@pytest.fixture
def program_args(tmp_path):
    program = tmp_path / "listing.xlog"
    program.write_text(PROGRAM_SOURCE)
    page = tmp_path / "pages"
    page.mkdir()
    (page / "a.html").write_text("<p>Price: <b>$100.00</b></p>")
    return [str(program), "--table", "pages=%s" % page]


class TestFlagParsing:
    def test_error_policy_flags_reach_exec_config(self, program_args):
        args = cli.build_parser().parse_args(
            ["run", *program_args, "--on-error", "retry",
             "--max-retries", "5"]
        )
        config = cli._exec_config(args)
        assert config.on_error == "retry"
        assert config.max_retries == 5

    def test_defaults_are_fail_fast_and_unbounded(self, program_args):
        args = cli.build_parser().parse_args(["run", *program_args])
        config = cli._exec_config(args)
        assert config.on_error == "fail-fast"
        assert config.max_retries == 2
        # no in-process deadline exists: a run is bounded from outside
        assert not hasattr(config, "partition_timeout")

    def test_unknown_policy_rejected_at_parse_time(self, program_args, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["run", *program_args, "--on-error", "ignore"]
            )
        assert "invalid choice" in capsys.readouterr().err


class _FakeTable:
    def pretty(self, max_rows=None):
        return "q\n(empty)"


class _FakeResult:
    def __init__(self, report):
        self.report = report
        self.query_table = _FakeTable()

    def summary(self):
        return {"tuples": 4, "maybe": 0, "assignments": 4, "elapsed_s": 0.01}


class _StubEngine:
    """Stands in for IFlexEngine: raise or return a canned result."""

    failure = None
    result = None

    def __init__(self, *args, **kwargs):
        pass

    def execute(self):
        if self.failure is not None:
            raise self.failure
        return self.result


class TestExitCodes:
    def test_fail_fast_exits_nonzero_with_enriched_message(
        self, program_args, monkeypatch, capsys
    ):
        _StubEngine.failure = ExecutionFailure.wrap(
            RuntimeError("injected fault on d1"),
            doc_id="d1", operator="Verify", feature="numeric",
        )
        _StubEngine.result = None
        monkeypatch.setattr(cli, "IFlexEngine", _StubEngine)
        rc = cli.main(["run", *program_args])
        captured = capsys.readouterr()
        assert rc == 1
        # the enriched one-liner, not a bare traceback dump
        assert "error:" in captured.err
        assert "d1" in captured.err and "Verify" in captured.err
        assert "Traceback" not in captured.err

    def test_skip_exits_zero_and_reports_on_stderr(
        self, program_args, monkeypatch, capsys
    ):
        record = FailureRecord(
            doc_id="d1", partition=0, operator="Verify", feature="numeric",
            predicate=None, exc_type="RuntimeError",
            message="injected fault on d1", traceback_summary="", retry_count=0,
        )
        _StubEngine.failure = None
        _StubEngine.result = _FakeResult(
            ExecutionReport(policy="skip", records=[record])
        )
        monkeypatch.setattr(cli, "IFlexEngine", _StubEngine)
        rc = cli.main(["run", *program_args])
        captured = capsys.readouterr()
        assert rc == 0
        # report on stderr; the table (stdout) stays pipe-clean
        assert "d1" in captured.err
        assert "skip" in captured.err
        assert "d1" not in captured.out

    def test_clean_run_prints_no_report(self, program_args, monkeypatch, capsys):
        _StubEngine.failure = None
        _StubEngine.result = _FakeResult(ExecutionReport(policy="skip", records=[]))
        monkeypatch.setattr(cli, "IFlexEngine", _StubEngine)
        rc = cli.main(["run", *program_args])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""


class TestEndToEnd:
    def test_real_run_accepts_the_flags(self, program_args, capsys):
        rc = cli.main(
            [
                "run", *program_args, "--on-error", "skip",
                "--partition-docs", "2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "$100.00" in captured.out
        assert captured.err == ""
