"""Failures keep their context when copied (deepcopy, pickle)."""

import copy
import pickle

import pytest

from repro.errors import ExecutionFailure


class TestFailureCopies:
    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["deepcopy", "pickle"],
    )
    def test_every_context_field_round_trips(self, duplicate):
        failure = ExecutionFailure(
            "boom",
            doc_id="d3",
            partition=2,
            operator="Verify",
            feature="numeric",
            predicate="p",
            exc_type="ValueError",
            traceback_summary="x.py:1 in f",
        )
        clone = duplicate(failure)
        assert type(clone) is type(failure)
        assert clone.args == failure.args
        assert vars(clone) == vars(failure)
