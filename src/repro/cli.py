"""Command-line interface.

::

    python -m repro run PROGRAM --table pages=./html_dir [--query Q]
    python -m repro lint PROGRAM [--json] [--strict] [--plan] [--sarif OUT]
    python -m repro check PROGRAM --table pages=./html_dir [--sarif OUT]
    python -m repro explain PROGRAM --table pages=./html_dir
    python -m repro session PROGRAM --table pages=./html_dir
    python -m repro tables --which 3 --scale 0.25
    python -m repro demo

``run`` executes an Alog program over a corpus of HTML files and prints
the resulting compact table; ``lint`` statically analyzes a program and
reports every diagnostic in one pass (``--plan`` adds the plan-level
performance lint, ``--sarif`` writes a machine-readable report);
``check`` lints strictly against a real corpus's declarations, plan
lint included; ``explain`` prints the compiled plans; ``session``
starts an interactive best-effort refinement loop (the assistant asks
*you* the questions); ``tables`` regenerates the paper's evaluation
tables; ``demo`` runs the built-in Figure 1-3 example.

``lint`` and ``check`` exit 0 when only warnings (or infos) were found
and 1 on any error; ``--strict`` also promotes warnings to failures.

The built-in p-functions ``similar`` and ``approxMatch`` (token-Jaccard,
``--similar-threshold``) are always registered.
"""

import argparse
import pathlib
import sys

from repro.assistant.interactive import InteractiveDeveloper
from repro.assistant.session import RefinementSession
from repro.assistant.strategies import SequentialStrategy, SimulationStrategy
from repro.errors import ReproError
from repro.processor.executor import IFlexEngine
from repro.processor.library import make_similar
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.xlog.program import PFunction, Program

__all__ = ["main", "build_parser", "load_corpus", "load_program"]


def _positive_int(text):
    """argparse type: an integer >= 1 (exit code 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % (text,))
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %d" % value)
    return value


def _nonnegative_int(text):
    """argparse type: an integer >= 0 (exit code 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % (text,))
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _positive_float(text):
    """argparse type: a number > 0 (exit code 2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % (text,))
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0, got %g" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iFlex: best-effort information extraction (SIGMOD 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_program_args(p):
        p.add_argument("program", help="path to an Alog program file")
        p.add_argument(
            "--table",
            action="append",
            default=[],
            metavar="NAME=PATH",
            help="extensional table: NAME=(html file | directory of html files); repeatable",
        )
        p.add_argument("--query", help="query predicate (default: first rule head)")
        p.add_argument(
            "--similar-threshold",
            type=float,
            default=0.6,
            help="Jaccard threshold for the built-in similar()/approxMatch()",
        )
        p.add_argument(
            "--log-level",
            choices=("debug", "info", "warning", "error", "critical"),
            default="warning",
            help="threshold for the repro.* logger hierarchy (stderr)",
        )

    def add_partition_docs(p, default):
        p.add_argument(
            "--partition-docs",
            type=_positive_int,
            default=default,
            metavar="N",
            help="documents per partition for the partition-local "
            "predicates, run one after another; boundaries are "
            "positionally stable, so with a result cache ingesting or "
            "editing k documents re-executes at most ceil(k/N)+1 "
            "partitions (default: %s)" % (default or "no partitioning"),
        )

    def add_exec_args(p):
        add_program_args(p)
        add_partition_docs(p, None)
        p.add_argument(
            "--result-cache",
            metavar="DIR",
            help="persistent partition-result cache directory: "
            "evaluated tables are keyed by (plan fingerprint, corpus "
            "content digest) so warm runs re-serve unchanged partitions "
            "from disk and re-execute only the partitions whose "
            "documents changed",
        )
        p.add_argument(
            "--max-fixpoint-iterations",
            type=_positive_int,
            default=100,
            metavar="N",
            help="semi-naive iteration cap per recursive group (each "
            "group needs its longest derivation chain plus one proving "
            "iteration); exceeding it aborts the run with an enriched "
            "Fixpoint failure under every --on-error policy",
        )
        p.add_argument(
            "--on-error",
            choices=("fail-fast", "skip", "retry"),
            default="fail-fast",
            help="error policy for document-attributable failures: "
            "fail-fast aborts with the enriched error (non-zero exit); "
            "skip quarantines the offending document and continues "
            "(result identical to a clean run without it); retry "
            "re-attempts with capped exponential backoff, then skips",
        )
        p.add_argument(
            "--max-retries",
            type=_nonnegative_int,
            default=2,
            help="retry attempts per failure site under --on-error retry",
        )
        p.add_argument(
            "--trace-out",
            metavar="PATH",
            help="write a Chrome trace-event file (chrome://tracing, "
            "Perfetto) with engine, plan, operator, partition, and "
            "scheduler spans for the run",
        )
        p.add_argument(
            "--metrics-out",
            metavar="PATH",
            help="write a deterministic metrics-registry snapshot (JSON); "
            "byte-identical across --partition-docs sizes for the same run",
        )

    run = sub.add_parser("run", help="execute a program and print the result")
    add_exec_args(run)
    run.add_argument("--max-rows", type=_positive_int, default=25)
    run.add_argument(
        "--analyze",
        action="store_true",
        help="print per-operator timings and cardinalities (EXPLAIN ANALYZE)",
    )
    run.add_argument(
        "--json", action="store_true", help="emit the result table as JSON"
    )
    run.add_argument(
        "--csv", action="store_true", help="emit best-guess rows as CSV"
    )
    run.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the pre-execution static analysis gate",
    )

    def add_lint_flags(p):
        p.add_argument(
            "--json", action="store_true", help="emit diagnostics as JSON"
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="error on undeclared predicates instead of assuming they "
            "are extensional tables, and promote warnings to failures "
            "(exit 1)",
        )
        p.add_argument(
            "--plan",
            action="store_true",
            help="also run the plan-level performance lint (ALOG020, ALOG021) "
            "and print per-rule static plan statistics",
        )
        p.add_argument(
            "--sarif",
            metavar="PATH",
            help="write the diagnostics as a SARIF 2.1.0 report",
        )
        p.add_argument(
            "--feature",
            action="append",
            default=[],
            metavar="NAME",
            help="declare custom feature NAME (registered as an opaque "
            "placeholder, so its uses resolve without value checks); "
            "repeatable",
        )
        p.add_argument(
            "--p-predicate",
            action="append",
            default=[],
            metavar="NAME",
            help="declare procedural predicate NAME (its implementation "
            "ships outside the program file); repeatable",
        )

    lint = sub.add_parser(
        "lint", help="statically analyze a program; report all diagnostics"
    )
    lint.add_argument("program", help="path to an Alog program file")
    lint.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="declare extensional table NAME (the PATH is not read)",
    )
    lint.add_argument(
        "--extensional",
        default="",
        metavar="NAMES",
        help="comma-separated extensional table names",
    )
    lint.add_argument("--query", help="query predicate (default: first rule head)")
    add_lint_flags(lint)

    check = sub.add_parser(
        "check",
        help="lint a program against a real corpus's declarations "
        "(strict resolution, plan lint included)",
    )
    check.add_argument("program", help="path to an Alog program file")
    check.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="extensional table: NAME=(html file | directory of html "
        "files); the corpus is read so declarations are real; repeatable",
    )
    check.add_argument("--query", help="query predicate (default: first rule head)")
    add_lint_flags(check)

    explain = sub.add_parser("explain", help="print the compiled plans")
    add_program_args(explain)

    session = sub.add_parser(
        "session", help="interactive best-effort refinement session"
    )
    add_exec_args(session)
    session.add_argument(
        "--strategy", choices=("sequential", "simulation"), default="sequential"
    )
    session.add_argument("--max-iterations", type=_positive_int, default=10)
    session.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="write per-iteration session telemetry as JSONL (one "
        "iteration record per line plus a closing session summary)",
    )

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument(
        "--which",
        default="1,2",
        help="comma-separated table numbers from 1-6 (3-6 run experiments)",
    )
    tables.add_argument("--scale", type=_positive_float, default=0.25)
    tables.add_argument("--seed", type=_nonnegative_int, default=0)

    generate = sub.add_parser(
        "generate", help="emit a synthetic corpus (HTML + ground truth) to disk"
    )
    generate.add_argument(
        "domain", choices=("movies", "dblp", "books", "dblife")
    )
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument(
        "--size",
        type=_positive_int,
        help="records per table (default: domain defaults)",
    )
    generate.add_argument("--seed", type=_nonnegative_int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the resident extraction service (HTTP, engine-as-library)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=_nonnegative_int,
        default=8750,
        help="listen port (0 binds an ephemeral port; the real port is "
        "printed on startup)",
    )
    serve.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="preload an extensional table: NAME=(html file | directory "
        "of html files); repeatable (more documents can be ingested "
        "over HTTP)",
    )
    add_partition_docs(serve, 1)
    serve.add_argument(
        "--result-cache",
        metavar="DIR",
        help="persistent partition-result cache directory; survives "
        "restarts, so a freshly started service re-serves unchanged "
        "partitions from disk",
    )
    serve.add_argument(
        "--rate-limit",
        type=_positive_float,
        default=None,
        metavar="RPS",
        help="token-bucket request limit, requests/second (default: "
        "unlimited); /health and /metrics are exempt",
    )
    serve.add_argument(
        "--rate-burst",
        type=_positive_int,
        default=None,
        metavar="N",
        help="token-bucket burst capacity (default: max(1, RPS))",
    )
    serve.add_argument(
        "--similar-threshold",
        type=_positive_float,
        default=0.6,
        help="Jaccard threshold for the built-in similar()/approxMatch()",
    )
    serve.add_argument(
        "--max-fixpoint-iterations",
        type=_positive_int,
        default=100,
        metavar="N",
        help="semi-naive iteration cap per recursive group of any "
        "hosted program",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default="info",
        help="threshold for the repro.* logger hierarchy (stderr)",
    )

    sub.add_parser("demo", help="run the built-in Figure 1-3 example")
    return parser


def load_corpus(table_args):
    """Build a corpus from ``NAME=PATH`` arguments."""
    corpus = Corpus()
    for spec in table_args:
        if "=" not in spec:
            raise SystemExit("--table expects NAME=PATH, got %r" % (spec,))
        name, raw_path = spec.split("=", 1)
        path = pathlib.Path(raw_path)
        if path.is_dir():
            files = sorted(
                p for p in path.iterdir() if p.suffix.lower() in (".html", ".htm")
            )
        elif path.is_file():
            files = [path]
        else:
            raise SystemExit("no such file or directory: %s" % (path,))
        docs = [
            parse_html("%s:%s" % (name, f.name), f.read_text(encoding="utf-8"))
            for f in files
        ]
        if not docs:
            raise SystemExit("table %r has no .html documents" % (name,))
        corpus.add_table(name, docs)
    return corpus


def load_program(args, corpus):
    source = pathlib.Path(args.program).read_text(encoding="utf-8")
    similar = make_similar(args.similar_threshold)
    return Program.parse(
        source,
        extensional=corpus.table_names(),
        p_functions={
            "similar": PFunction("similar", similar),
            "approxMatch": PFunction("approxMatch", similar),
        },
        query=args.query,
    )


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _exec_config(args):
    from repro.processor.context import ExecConfig

    return ExecConfig(
        partition_docs=args.partition_docs,
        on_error=getattr(args, "on_error", "fail-fast"),
        max_retries=getattr(args, "max_retries", 2),
        result_cache=args.result_cache,
        max_fixpoint_iterations=args.max_fixpoint_iterations,
    )


def _print_failure_report(result):
    """Contained failures go to stderr so piped table output stays clean."""
    report = getattr(result, "report", None)
    if report is not None and report:
        print(report.render(), file=sys.stderr)


def _observability(args):
    """``(tracer, metrics)`` per the CLI flags (``None`` when unset)."""
    tracer = None
    metrics = None
    if getattr(args, "trace_out", None):
        from repro.observability.spans import Tracer

        tracer = Tracer()
    if getattr(args, "metrics_out", None):
        from repro.observability.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    return tracer, metrics


def _write_observability(args, tracer, metrics):
    """Flush trace / metrics sinks (also called after a failed run, so
    a fail-fast abort still leaves the partial trace for debugging)."""
    if tracer is not None:
        from repro.observability.spans import write_chrome_trace

        write_chrome_trace(args.trace_out, tracer.spans)
        print(
            "wrote trace (%d spans) to %s" % (len(tracer.spans), args.trace_out),
            file=sys.stderr,
        )
    if metrics is not None:
        metrics.write(args.metrics_out)
        print("wrote metrics snapshot to %s" % (args.metrics_out,), file=sys.stderr)


def _cmd_run(args):
    corpus = load_corpus(args.table)
    program = load_program(args, corpus)
    if not args.no_lint:
        from repro.analysis import analyze_program

        lint_result = analyze_program(program)
        for diagnostic in lint_result.diagnostics:
            print(diagnostic.render(args.program), file=sys.stderr)
        if lint_result.errors:
            print(lint_result.summary_line(), file=sys.stderr)
            return 1
    tracer, metrics = _observability(args)
    engine = IFlexEngine(
        program,
        corpus,
        config=_exec_config(args),
        validate=False,
        tracer=tracer,
        metrics=metrics,
    )
    try:
        if args.analyze:
            result, report = engine.explain_analyze()
            print(report)
            print()
        else:
            result = engine.execute()
    except ReproError as exc:
        # under fail-fast (or a non-containable failure) the run exits
        # non-zero with the enriched message, never a bare traceback
        print("error: %s" % (exc,), file=sys.stderr)
        _write_observability(args, tracer, metrics)
        return 1
    _write_observability(args, tracer, metrics)
    _print_failure_report(result)
    if args.json:
        from repro.ctables.export import table_to_json

        print(table_to_json(result.query_table, indent=2))
        return 0
    if args.csv:
        from repro.ctables.export import table_to_csv

        print(table_to_csv(result.query_table), end="")
        return 0
    print(result.query_table.pretty(max_rows=args.max_rows))
    summary = result.summary()
    print(
        "\n%d tuples (%d maybe), %d assignments, %.3fs"
        % (
            summary["tuples"],
            summary["maybe"],
            summary["assignments"],
            summary["elapsed_s"],
        )
    )
    return 0


def _read_program_source(args):
    path = pathlib.Path(args.program)
    try:
        return path, path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit("cannot read %s: %s" % (path, exc))


def _lint_registry(args):
    """The feature registry for a lint run: built-ins plus ``--feature``."""
    from repro.features.registry import default_registry

    registry = default_registry()
    for name in args.feature:
        registry.declare(name)
    return registry


def _report_lint(args, result, path):
    """Print / write a lint result; returns the process exit code.

    Warnings and infos alone exit 0; any error exits 1; ``--strict``
    also fails on warnings (never on infos).
    """
    if args.json:
        print(result.to_json(path, indent=2))
    else:
        print(result.render(path))
        if args.plan and result.plan_report is not None and result.plan_report.rows:
            print("\nplan:\n%s" % result.plan_report.render())
    if args.sarif:
        pathlib.Path(args.sarif).write_text(
            result.to_sarif_json(path, indent=2), encoding="utf-8"
        )
        print("wrote SARIF report to %s" % (args.sarif,), file=sys.stderr)
    return 1 if result.errors or (args.strict and result.warnings) else 0


def _cmd_lint(args):
    from repro.analysis import analyze_source

    path, source = _read_program_source(args)
    extensional = {spec.split("=", 1)[0] for spec in args.table if spec}
    extensional.update(n.strip() for n in args.extensional.split(",") if n.strip())
    result = analyze_source(
        source,
        extensional=extensional,
        p_predicates=dict.fromkeys(args.p_predicate),
        p_functions=("similar", "approxMatch"),
        query=args.query,
        registry=_lint_registry(args),
        assume_extensional=not args.strict,
        plan=args.plan,
    )
    return _report_lint(args, result, path)


def _cmd_check(args):
    """Strict lint against a real corpus: declarations come from disk."""
    from repro.analysis import analyze_source

    path, source = _read_program_source(args)
    corpus = load_corpus(args.table)
    args.plan = True  # check always includes the plan lint
    result = analyze_source(
        source,
        extensional=corpus.table_names(),
        p_predicates=dict.fromkeys(args.p_predicate),
        p_functions=("similar", "approxMatch"),
        query=args.query,
        registry=_lint_registry(args),
        assume_extensional=False,
        plan=True,
    )
    return _report_lint(args, result, path)


def _cmd_explain(args):
    corpus = load_corpus(args.table)
    program = load_program(args, corpus)
    print(IFlexEngine(program, corpus).explain())
    return 0


def _cmd_session(args):
    corpus = load_corpus(args.table)
    program = load_program(args, corpus)
    developer = InteractiveDeveloper()
    strategy = (
        SimulationStrategy() if args.strategy == "simulation" else SequentialStrategy()
    )
    tracer, metrics = _observability(args)
    telemetry = None
    if getattr(args, "telemetry_out", None):
        from repro.observability.telemetry import TelemetrySink

        telemetry = TelemetrySink(path=args.telemetry_out)
    session = RefinementSession(
        program,
        corpus,
        developer,
        strategy=strategy,
        config=_exec_config(args),
        max_iterations=args.max_iterations,
        telemetry=telemetry,
        tracer=tracer,
        metrics=metrics,
    )
    developer.session = session
    try:
        trace = session.run()
    except ReproError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        _write_observability(args, tracer, metrics)
        if telemetry is not None:
            telemetry.close()
        return 1
    _write_observability(args, tracer, metrics)
    if telemetry is not None:
        telemetry.close()
        print("wrote session telemetry to %s" % (args.telemetry_out,), file=sys.stderr)
    if trace.failure_records:
        print(
            "%d document(s) quarantined during the session:" % len(trace.failure_records),
            file=sys.stderr,
        )
        for record in trace.failure_records:
            print("  " + record.describe(), file=sys.stderr)
    print("\n=== session finished (converged: %s) ===" % trace.converged)
    print(trace.final_result.query_table.pretty())
    print("\nrefined program:\n%s" % trace.program.source())
    return 0


def _cmd_tables(args):
    import os

    os.environ["REPRO_SCALE"] = str(args.scale)
    from repro.experiments import (
        convergence_stat,
        render_table,
        table1,
        table2,
        table3,
        table4,
        table5,
        table6,
    )

    which = {int(w) for w in args.which.split(",") if w.strip()}
    producers = {1: table1, 2: table2, 3: table3, 4: table4, 5: table5, 6: table6}
    for number in sorted(which):
        producer = producers.get(number)
        if producer is None:
            raise SystemExit("unknown table %d (choose 1-6)" % (number,))
        kwargs = {}
        if number in (3, 4, 5):
            kwargs = {"seed": args.seed, "scale": args.scale}
        elif number == 6:
            kwargs = {"seed": args.seed}
        headers, rows, extras = producer(**kwargs)
        print(render_table(headers, rows, title="Table %d" % number))
        if number == 3:
            stat = convergence_stat(extras)
            print(
                "\nconvergence: %d/%d scenarios at 100%%"
                % (stat["exact"], stat["scenarios"])
            )
        print()
    return 0


def _cmd_generate(args):
    from repro.datagen.emit import emit_tables

    if args.domain == "movies":
        from repro.datagen.movies import MOVIE_TABLE_SIZES, generate_movies

        sizes = (
            {name: args.size for name in MOVIE_TABLE_SIZES} if args.size else None
        )
        tables = generate_movies(sizes, seed=args.seed)
    elif args.domain == "dblp":
        from repro.datagen.dblp import DBLP_TABLE_SIZES, generate_dblp

        sizes = {name: args.size for name in DBLP_TABLE_SIZES} if args.size else None
        tables = generate_dblp(sizes, seed=args.seed)
    elif args.domain == "books":
        from repro.datagen.books import BOOK_TABLE_SIZES, generate_books

        sizes = {name: args.size for name in BOOK_TABLE_SIZES} if args.size else None
        tables = generate_books(sizes, seed=args.seed)
    else:  # dblife
        from repro.datagen.dblife import generate_dblife

        pages = (
            {"conference": args.size, "project": args.size, "homepage": args.size}
            if args.size
            else None
        )
        records, _ = generate_dblife(pages, seed=args.seed)
        tables = {"docs": records}
    written = emit_tables(tables, args.out)
    print(
        "wrote %d files under %s (%s)"
        % (len(written), args.out, ", ".join(sorted(tables)))
    )
    return 0


def _run_demo():
    from repro import Corpus as _Corpus

    house1 = parse_html(
        "x1",
        "<p>Cozy house. Sqft: 2750. Price: <b>$351,000</b>. "
        "High school: Vanhise High.</p>",
    )
    house2 = parse_html(
        "x2",
        "<p>Amazing house. Sqft: 4700. Price: <b>$619,000</b>. "
        "High school: Basktall HS.</p>",
    )
    school = parse_html("y1", "<p>Top schools: <b>Basktall</b>, <b>Vanhise</b></p>")
    corpus = _Corpus({"housePages": [house1, house2], "schoolPages": [school]})
    similar = make_similar(0.4)
    program = Program.parse(
        """
        houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(@x, p, a, h).
        schools(s)? :- schoolPages(y), extractSchools(@y, s).
        Q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500,
            approxMatch(@h, @s).
        extractHouses(@x, p, a, h) :- from(@x, p), from(@x, a), from(@x, h),
            numeric(p) = yes, numeric(a) = yes.
        extractSchools(@y, s) :- from(@y, s), bold_font(s) = yes.
        """,
        extensional=["housePages", "schoolPages"],
        p_functions={"approxMatch": PFunction("approxMatch", similar)},
        query="Q",
    )
    result = IFlexEngine(program, corpus).execute()
    print("houses:\n%s\n" % result.tables["houses"].pretty())
    print("schools:\n%s\n" % result.tables["schools"].pretty())
    print("Q:\n%s" % result.query_table.pretty())
    return 0


def _cmd_serve(args):
    from repro.service import ExtractionService, build_app, make_service_server

    corpus = load_corpus(args.table) if args.table else None
    service = ExtractionService(
        corpus=corpus,
        config=_exec_config(args),
        similar_threshold=args.similar_threshold,
    )
    app = build_app(service, rate_limit=args.rate_limit, rate_burst=args.rate_burst)
    server = make_service_server(args.host, args.port, app)
    host, port = server.server_address[:2]
    # machine-readable startup line: supervisors and the CI smoke test
    # parse the real port from it when --port 0 binds ephemerally
    print("repro service listening on http://%s:%d" % (host, port), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        from repro.observability.logs import configure_logging

        configure_logging(args.log_level)
    commands = {
        "run": _cmd_run,
        "lint": _cmd_lint,
        "check": _cmd_check,
        "explain": _cmd_explain,
        "session": _cmd_session,
        "tables": _cmd_tables,
        "generate": _cmd_generate,
        "serve": _cmd_serve,
        "demo": lambda a: _run_demo(),
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
