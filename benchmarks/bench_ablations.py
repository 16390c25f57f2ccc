"""Ablations of the design choices DESIGN.md calls out.

* **reuse** (section 5.2): cross-iteration caching of per-rule compact
  tables vs recomputing from scratch;
* **subset evaluation** (section 5.2): iterating over a 5-30 % sample
  vs the full input;
* **token blocking** (the approximate-string-join stand-in): blocked vs
  nested-loop similarity joins;
* **compact tables** (section 3): assignment-level representation vs
  expanding to value-level a-tables.
"""

import pytest

from repro.assistant import RefinementSession, SequentialStrategy, SimulatedDeveloper
from repro.ctables.convert import compact_to_atable
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.processor.reuse import RuleCache
from repro.experiments import build_task

from conftest import print_block


@pytest.fixture(scope="module")
def task():
    return build_task("T7", size=300, seed=5)


class TestReuseAblation:
    def test_with_reuse(self, benchmark, task):
        refined = task.program.add_constraint("extractBarnes", "price", "bold_font", "yes")

        def run():
            cache = RuleCache()
            IFlexEngine(task.program, task.corpus).execute(cache=cache)
            return IFlexEngine(refined, task.corpus).execute(cache=cache)

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert "incremental" in result.reuse_summary.values()

    def test_without_reuse(self, benchmark, task):
        refined = task.program.add_constraint("extractBarnes", "price", "bold_font", "yes")

        def run():
            IFlexEngine(task.program, task.corpus).execute()
            return IFlexEngine(refined, task.corpus).execute()

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert result.tuple_count >= 0


class TestSubsetEvaluationAblation:
    def _session(self, task, fraction):
        return RefinementSession(
            task.program,
            task.corpus,
            SimulatedDeveloper(task.truth, seed=5),
            strategy=SequentialStrategy(),
            subset_fraction=fraction,
            seed=5,
        )

    def test_with_subset(self, benchmark, task):
        trace = benchmark.pedantic(
            lambda: self._session(task, None or 0.1).run(), rounds=1, iterations=1
        )
        assert trace.final_result.tuple_count == len(task.correct_rows)

    def test_full_evaluation(self, benchmark, task):
        trace = benchmark.pedantic(
            lambda: self._session(task, 1.0).run(), rounds=1, iterations=1
        )
        assert trace.final_result.tuple_count == len(task.correct_rows)


class TestBlockingAblation:
    """Token blocking pays off once titles are refined to exact spans

    (the state every converged join program reaches): the blocked join
    touches only candidate pairs sharing a token, the nested loop all
    |L| x |R| pairs.
    """

    @pytest.fixture(scope="class")
    def refined_join(self):
        task = build_task("T9", size=500, seed=5)
        program = task.program
        for pred, attr in (("extractAmazonPrice", "t1"), ("extractBarnesPrice", "t2")):
            program = program.add_constraint(pred, attr, "hyperlinked", "distinct_yes")
        for pred, attr in (("extractAmazonPrice", "np"), ("extractBarnesPrice", "bp")):
            program = program.add_constraint(pred, attr, "preceded_by", "$")
        return task, program

    def test_blocked(self, benchmark, refined_join):
        task, program = refined_join
        config = ExecConfig(blocking_joins=True)
        result = benchmark.pedantic(
            lambda: IFlexEngine(program, task.corpus, config=config).execute(),
            rounds=1,
            iterations=1,
        )
        assert result.tuple_count >= len(task.correct_rows)

    def test_nested_loop(self, benchmark, refined_join):
        task, program = refined_join
        config = ExecConfig(blocking_joins=False)
        result = benchmark.pedantic(
            lambda: IFlexEngine(program, task.corpus, config=config).execute(),
            rounds=1,
            iterations=1,
        )
        assert result.tuple_count >= len(task.correct_rows)


class TestAnswerPriorAblation:
    """Data-driven answer priors vs the paper's uniform assumption.

    With the uniform prior the expected-size formula is dominated by
    implausible answers that would annihilate the result, so the
    simulation strategy asks no-op questions and converges prematurely
    on join tasks.
    """

    @pytest.fixture(scope="class")
    def join_task(self):
        return build_task("T3", size=100, seed=0)

    def _run(self, task, prior_samples):
        from repro.assistant import SimulationStrategy
        from repro.experiments import run_iflex

        return run_iflex(
            task,
            strategy=SimulationStrategy(alpha=0.1, prior_samples=prior_samples),
            seed=0,
        )

    def test_data_driven_priors(self, benchmark, join_task):
        run = benchmark.pedantic(
            lambda: self._run(join_task, prior_samples=60), rounds=1, iterations=1
        )
        print_block(
            "data-driven priors: superset %.0f%% in %d questions"
            % (run.superset_pct, run.questions)
        )
        assert run.superset_pct <= 150

    def test_uniform_priors(self, benchmark, join_task):
        run = benchmark.pedantic(
            lambda: self._run(join_task, prior_samples=0), rounds=1, iterations=1
        )
        print_block(
            "uniform priors: superset %.0f%% in %d questions"
            % (run.superset_pct, run.questions)
        )
        # the degenerate behaviour the data-driven estimator fixes
        assert run.superset_pct >= 100


class TestCompactTableAblation:
    """Compact tables vs value-level a-tables (why section 3 matters)."""

    def test_representation_sizes(self, benchmark, task):
        result = IFlexEngine(task.program, task.corpus).execute()
        table = result.tables["barnesBooks"]

        def measure():
            assignments = table.assignment_count()
            values = table.encoded_value_count()
            return assignments, values

        assignments, values = benchmark(measure)
        # the whole point of compact tables: orders of magnitude fewer
        # assignments than encoded values
        assert values > assignments * 20
        print_block(
            "compact table: %d assignments represent %d possible values "
            "(x%d compression)" % (assignments, values, values // max(1, assignments))
        )

    def test_atable_expansion_cost(self, benchmark, task):
        result = IFlexEngine(task.program, task.corpus).execute()
        query = result.query_table

        def expand():
            return compact_to_atable(query, value_limit=2_000_000)

        atable = benchmark.pedantic(expand, rounds=1, iterations=1)
        assert len(atable) >= len(query)
