"""Golden differential tests: the decoded execution core vs the reference
interpreter.

The pre-decoded threaded-code engine (:mod:`repro.sim.decoded`) must be an
*exact* drop-in for the retained ``step()`` oracle: identical
:class:`TraceRecord` sequences, identical final architectural state, identical
memory, identical halt/commit counts — and identical faults, down to the
exception message and the ``pc`` left behind.  These tests pin that contract
on every workload × program variant and on a broad set of generated programs.
"""

from __future__ import annotations

import pytest

from repro.core.session import SimSession
from repro.isa import ProgramBuilder, R
from repro.sim import ArchState, FunctionalSimulator, Memory, decode
from repro.sim.functional import SimulationError, run_program, stream_program
from repro.testing import GeneratorConfig, generate_case
from repro.workloads.suite import WORKLOAD_CLASSES

#: Committed-instruction budget for the golden runs (loops re-execute the
#: same static instructions, so a small budget still covers every handler).
BUDGET = 2_000

#: Generated-program coverage: two generator shapes x 30 seeds = 60 programs.
GENERATOR_SEEDS = range(30)
GENERATOR_CONFIGS = {
    "default": GeneratorConfig(),
    "branchy": GeneratorConfig(segments=6, loop_depth=3, branch_mix=0.8, load_density=0.4),
}


def _assert_equivalent(program, make_memory, max_instructions=BUDGET):
    """Run both engines from identical initial images and compare everything."""
    ref_sim = FunctionalSimulator(program, memory=make_memory(), engine="reference")
    ref = ref_sim.run(max_instructions=max_instructions, collect_trace=True)
    dec_sim = FunctionalSimulator(program, memory=make_memory(), engine="decoded")
    dec = dec_sim.run(max_instructions=max_instructions, collect_trace=True)

    assert len(ref.trace) == len(dec.trace)
    for expected, got in zip(ref.trace, dec.trace):
        assert expected == got, f"record diverges at seq {expected.seq}: {expected} != {got}"
    assert ref.state.state_equal(dec.state)
    assert ref.memory == dec.memory
    assert (ref.halted, ref.instructions) == (dec.halted, dec.instructions)

    # The no-record fast path must leave the same architecture behind too.
    fast_sim = FunctionalSimulator(program, memory=make_memory(), engine="decoded")
    fast = fast_sim.run(max_instructions=max_instructions, collect_trace=False)
    assert fast.trace is None
    assert ref.state.state_equal(fast.state)
    assert ref.memory == fast.memory
    assert (ref.halted, ref.instructions) == (fast.halted, fast.instructions)


# ----------------------------------------------------------------------
# Workloads x program variants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_workload_variants_golden(name):
    session = SimSession()
    workload = session.workload(name)
    for variant in ("base", "srvp_dead", "realloc"):
        program = session.program_variant(name, 1.0, BUDGET, variant, None, 0.8)
        _assert_equivalent(program, lambda: workload.memory("ref"))


# ----------------------------------------------------------------------
# Generated programs (the fuzz generator, fixed seeds)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(GENERATOR_CONFIGS))
@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
def test_generated_programs_golden(shape, seed):
    case = generate_case(seed, GENERATOR_CONFIGS[shape])
    _assert_equivalent(case.program, case.memory, max_instructions=20_000)


# ----------------------------------------------------------------------
# Fault fidelity: identical exceptions, identical pc left behind
# ----------------------------------------------------------------------
def _fault_outcome(program, engine, collect_trace):
    sim = FunctionalSimulator(program, memory=Memory(), engine=engine)
    try:
        sim.run(max_instructions=BUDGET, collect_trace=collect_trace)
    except (SimulationError, ValueError) as exc:
        return type(exc), str(exc), sim.state.pc, sim.last_result.instructions
    pytest.fail(f"{engine}: expected a fault")


@pytest.mark.parametrize("collect_trace", [False, True])
def test_pc_out_of_range_fault_matches_reference(collect_trace):
    b = ProgramBuilder("wild_jump")
    with b.procedure("main"):
        b.li(R[1], 999)
        b.jmp(R[1])
        b.halt()
    program = b.build()
    ref = _fault_outcome(program, "reference", collect_trace)
    dec = _fault_outcome(program, "decoded", collect_trace)
    assert ref == dec
    assert ref[0] is SimulationError
    assert "pc 999 out of range" in ref[1]


@pytest.mark.parametrize("collect_trace", [False, True])
def test_unaligned_access_fault_matches_reference(collect_trace):
    b = ProgramBuilder("unaligned")
    with b.procedure("main"):
        b.li(R[1], 3)
        b.ld(R[2], R[1], 0)
        b.halt()
    program = b.build()
    ref = _fault_outcome(program, "reference", collect_trace)
    dec = _fault_outcome(program, "decoded", collect_trace)
    assert ref == dec
    assert ref[0] is ValueError
    assert ref[1] == "unaligned access at address 0x3"


# ----------------------------------------------------------------------
# Observer raising mid-stream: last_result stays consistent in both engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "decoded"])
def test_observer_raise_leaves_consistent_last_result(engine):
    session = SimSession()
    workload = session.workload("li")
    program, memory = workload.build("ref")
    sim = FunctionalSimulator(program, memory=memory, engine=engine)

    def explode(record, state):
        if record.seq == 57:
            raise RuntimeError("observer boom")

    sim.add_observer(explode)
    with pytest.raises(RuntimeError, match="observer boom"):
        sim.run(max_instructions=BUDGET, collect_trace=True)
    # The record whose observer raised had already committed architecturally,
    # so it counts: both engines must report exactly 58 executed.
    assert sim.last_result is not None
    assert sim.last_result.instructions == 58
    assert not sim.last_result.halted


# ----------------------------------------------------------------------
# Decode memoization
# ----------------------------------------------------------------------
def test_decode_is_memoized_per_program():
    session = SimSession()
    program = session.workload("m88ksim").program
    assert decode(program) is decode(program)


@pytest.mark.parametrize("engine", ["warp", "batched"])
def test_unknown_engine_rejected(engine):
    program = SimSession().workload("li").program
    with pytest.raises(ValueError, match="unknown engine"):
        FunctionalSimulator(program, engine=engine)


# ----------------------------------------------------------------------
# Satellite: run_program / stream_program forward a caller-supplied state
# ----------------------------------------------------------------------
def _seeded_state():
    state = ArchState()
    state.write(R[5], 123)
    return state


def _state_program():
    b = ProgramBuilder("uses_seed")
    with b.procedure("main"):
        b.addi(R[1], R[5], 0)
        b.halt()
    return b.build()


def test_run_program_forwards_state():
    state = _seeded_state()
    result = run_program(_state_program(), state=state)
    assert result.state is state
    assert result.state.read(R[1]) == 123


def test_stream_program_forwards_state():
    state = _seeded_state()
    sim, records = stream_program(_state_program(), state=state)
    for _ in records:
        pass
    assert sim.state is state
    assert state.read(R[1]) == 123
