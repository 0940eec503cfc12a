"""Golden: verifier-approved pass outputs execute identically everywhere.

For two workloads, the realloc output must (a) pass the verifier with its
pass-supplied context and (b) produce byte-identical traces and final state
under the eager ``run`` path and the streaming ``iter_run`` path —
transformation plus verification must not perturb execution semantics.
"""

from __future__ import annotations

import pytest

from repro.analysis.verifier import verify_program
from repro.compiler import reallocate
from repro.core.session import SimSession
from repro.sim import FunctionalSimulator
from repro.workloads.suite import make_workload

BUDGET = 3_000
TRAIN_BUDGET = 20_000
WORKLOADS = ["m88ksim", "hydro2d"]

_session = SimSession()


def realloc_output(name):
    base = _session.workload(name).program
    artifacts = _session.train_artifacts(name, 1.0, TRAIN_BUDGET)
    lists = _session.profile_lists(name, 1.0, TRAIN_BUDGET, 0.8, loads_only=False)
    program, report = reallocate(base, lists, artifacts.critical)
    return program, lists, report


def assert_streaming_matches_eager(name, program):
    workload = make_workload(name)
    eager_sim = FunctionalSimulator(program, memory=workload.memory("ref"))
    eager = eager_sim.run(max_instructions=BUDGET, collect_trace=True)

    stream_sim = FunctionalSimulator(program, memory=workload.memory("ref"))
    streamed = list(stream_sim.iter_run(max_instructions=BUDGET))

    assert streamed == eager.trace
    assert stream_sim.last_result.instructions == eager.instructions
    assert stream_sim.last_result.halted == eager.halted
    assert stream_sim.state.pc == eager_sim.state.pc
    assert stream_sim.state.state_equal(eager_sim.state)


@pytest.mark.parametrize("name", WORKLOADS)
def test_realloc_output_verifies_and_runs_identically(name):
    program, lists, report = realloc_output(name)
    diags = verify_program(program, lists=lists, lvr_pcs=report.lvr_pcs)
    assert not any(d.is_error for d in diags), [str(d) for d in diags]
    assert_streaming_matches_eager(name, program)


@pytest.mark.parametrize("name", WORKLOADS)
def test_realloc_output_matches_base_architectural_effect(name):
    """Reallocation renames registers but must not change control flow or
    memory traffic: instruction count, halt status, and the executed pc
    sequence all match the base program's run."""
    base = _session.workload(name).program
    program, _, _ = realloc_output(name)
    workload = make_workload(name)

    base_run = FunctionalSimulator(base, memory=workload.memory("ref")).run(
        max_instructions=BUDGET, collect_trace=True
    )
    new_run = FunctionalSimulator(program, memory=workload.memory("ref")).run(
        max_instructions=BUDGET, collect_trace=True
    )
    assert new_run.instructions == base_run.instructions
    assert new_run.halted == base_run.halted
    assert [r.pc for r in new_run.trace] == [r.pc for r in base_run.trace]
    assert [r.addr for r in new_run.trace] == [r.addr for r in base_run.trace]
