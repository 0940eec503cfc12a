"""Instruction budget: truncation is the only budget semantics.

A workload still running at the budget is cut there, with the same result
on the trace-less, eager and streaming paths of both engines."""

from __future__ import annotations

import pytest

from repro.sim.functional import FunctionalSimulator
from repro.workloads.suite import make_workload

#: Small enough that every workload's ref run overruns it.
TINY_BUDGET = 50


def _sim(engine: str) -> FunctionalSimulator:
    program, memory = make_workload("li").build("ref")
    return FunctionalSimulator(program, memory=memory, engine=engine)


@pytest.mark.parametrize("engine", ["reference", "decoded"])
def test_default_budget_truncates(engine):
    for collect_trace in (False, True):
        result = _sim(engine).run(max_instructions=TINY_BUDGET, collect_trace=collect_trace)
        assert result.instructions == TINY_BUDGET
        assert not result.halted
        assert result.trace is None if not collect_trace else len(result.trace) == TINY_BUDGET
    sim = _sim(engine)
    assert len(list(sim.iter_run(max_instructions=TINY_BUDGET))) == TINY_BUDGET
    assert sim.last_result.instructions == TINY_BUDGET and not sim.last_result.halted
