"""Instruction-budget guards: strict-budget simulators.

A runaway program (or an over-budget trace source) must become a
*deterministic, classifiable* fault — the campaign taxonomy's fail-fast
path — instead of a silently truncated result or a hung worker."""

from __future__ import annotations

import pytest

from repro.runtime.errors import DETERMINISTIC, classify_failure
from repro.sim.functional import BudgetExceeded, FunctionalSimulator, SimulationError
from repro.workloads.suite import make_workload

#: Small enough that every workload's ref run overruns it.
TINY_BUDGET = 50


def _sim(engine: str, strict: bool) -> FunctionalSimulator:
    program, memory = make_workload("li").build("ref")
    return FunctionalSimulator(program, memory=memory, engine=engine, strict_budget=strict)


@pytest.mark.parametrize("engine", ["reference", "decoded"])
def test_default_budget_truncates(engine):
    result = _sim(engine, strict=False).run(max_instructions=TINY_BUDGET)
    assert result.instructions == TINY_BUDGET
    assert not result.halted


@pytest.mark.parametrize("engine", ["reference", "decoded"])
@pytest.mark.parametrize("collect_trace", [False, True])
def test_strict_budget_raises_in_both_engines(engine, collect_trace):
    with pytest.raises(BudgetExceeded, match=f"budget {TINY_BUDGET}"):
        _sim(engine, strict=True).run(
            max_instructions=TINY_BUDGET, collect_trace=collect_trace
        )


def test_strict_budget_streaming_path():
    sim = _sim("decoded", strict=True)
    seen = 0
    with pytest.raises(BudgetExceeded):
        for _ in sim.iter_run(max_instructions=TINY_BUDGET):
            seen += 1
    assert seen == TINY_BUDGET  # every in-budget record was still delivered


def test_strict_budget_silent_when_program_halts():
    # A budget comfortably past natural termination never fires the guard.
    program, memory = make_workload("li").build("ref")
    full = FunctionalSimulator(program, memory=memory).run(max_instructions=10_000_000)
    assert full.halted
    program, memory = make_workload("li").build("ref")
    strict = FunctionalSimulator(program, memory=memory, strict_budget=True)
    result = strict.run(max_instructions=full.instructions + 1)
    assert result.halted and result.instructions == full.instructions


def test_budget_exceeded_is_a_deterministic_simulator_fault():
    exc = BudgetExceeded("over budget")
    assert isinstance(exc, SimulationError)
    assert classify_failure(exc) == DETERMINISTIC
