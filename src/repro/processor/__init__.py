"""Approximate query processing over compact tables (paper section 4).

The processor is layered: :mod:`~repro.processor.plan` compiles rules to
operator trees, :mod:`~repro.processor.split` judges which subtrees are document-local,
and :mod:`~repro.processor.physical` runs each wholly document-local
plan once per corpus partition, one partition after another (every
other plan runs once, over the whole corpus).  :class:`IFlexEngine` (:mod:`~repro.processor.executor`)
drives the whole pipeline: :mod:`~repro.processor.ordering` orders the
predicates, :mod:`~repro.processor.reuse` resolves each table through
the cross-iteration reuse ladder, :mod:`~repro.processor.fixpoint`
iterates recursive groups and :mod:`~repro.processor.policy` applies
the error policy.
"""

from repro.processor.context import ExecConfig, ExecutionContext, ExecutionStats
from repro.processor.executor import ExecutionResult, IFlexEngine
from repro.processor.library import jaccard, make_similar, token_set
from repro.processor.ordering import evaluation_order
from repro.processor.physical import PhysicalExecutor
from repro.processor.plan import compile_predicate, compile_rule
from repro.processor.reuse import RuleCache
from repro.processor.split import PlanSplit, split_plan

__all__ = [
    "ExecConfig",
    "ExecutionContext",
    "ExecutionResult",
    "ExecutionStats",
    "IFlexEngine",
    "PhysicalExecutor",
    "PlanSplit",
    "RuleCache",
    "compile_predicate",
    "compile_rule",
    "evaluation_order",
    "jaccard",
    "make_similar",
    "split_plan",
    "token_set",
]
