"""Running full iFlex sessions on tasks and scoring them."""

from dataclasses import dataclass

from repro.assistant.oracle import SimulatedDeveloper
from repro.assistant.session import RefinementSession
from repro.assistant.strategies import SimulationStrategy
from repro.baselines.cost_model import CostModel
from repro.ctables.assignments import Exact, value_text

__all__ = ["IFlexRun", "run_iflex", "extracted_keys", "superset_pct"]


def extracted_keys(table, key_attr):
    """The set of key texts in a result table, or ``None`` when some

    key cell is still ambiguous (more than one possible value).
    """
    index = table.attr_index(key_attr)
    keys = set()
    for t in table:
        cell = t.cells[index]
        if len(cell.assignments) != 1 or not isinstance(cell.assignments[0], Exact):
            return None
        keys.add(value_text(cell.assignments[0].value))
    return keys


def superset_pct(result_count, correct_count):
    """Result size as a percentage of the correct size (Table 4/5)."""
    if correct_count == 0:
        return 100.0 if result_count == 0 else float("inf")
    return 100.0 * result_count / correct_count


@dataclass
class IFlexRun:
    """One scored iFlex session."""

    task_id: str
    strategy_name: str
    trace: object
    minutes: float
    correct_count: int
    final_count: int
    converged: bool
    exact_keys: bool  # final key set equals the ground-truth key set

    @property
    def superset_pct(self):
        return superset_pct(self.final_count, self.correct_count)

    @property
    def iterations(self):
        return self.trace.iterations

    @property
    def questions(self):
        return self.trace.questions_asked


def run_iflex(
    task,
    strategy=None,
    alpha=0.0,
    seed=0,
    cost_model=None,
    include_cleanup=True,
    **session_kwargs,
):
    """Run one refinement session on ``task`` and score it."""
    cost_model = cost_model or CostModel()
    strategy = strategy or SimulationStrategy(alpha=alpha)
    developer = SimulatedDeveloper(task.truth, alpha=alpha, seed=seed)
    session = RefinementSession(
        task.program,
        task.corpus,
        developer,
        strategy=strategy,
        seed=seed,
        **session_kwargs,
    )
    trace = session.run()
    correct = {value_text(row[0]) for row in task.correct_rows}
    keys = extracted_keys(trace.final_result.query_table, task.key_attr)
    exact = keys is not None and keys == correct
    minutes = cost_model.iflex_minutes(
        trace,
        rule_count=len(task.program.rules),
        cleanup_minutes=task.cleanup_minutes if include_cleanup else 0.0,
    )
    return IFlexRun(
        task_id=task.task_id,
        strategy_name=getattr(strategy, "name", type(strategy).__name__),
        trace=trace,
        minutes=minutes,
        correct_count=len(task.correct_rows),
        final_count=trace.final_result.tuple_count,
        converged=trace.converged,
        exact_keys=exact,
    )
