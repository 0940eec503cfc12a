"""Functional simulator semantics tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import MASK64, ProgramBuilder, R, F, assemble
from repro.sim import FunctionalSimulator, Memory, SimulationError, run_program

from conftest import random_memory, random_program


def run_asm(text, memory=None, max_instructions=10_000):
    return run_program(assemble(text), memory=memory, max_instructions=max_instructions, collect_trace=True)


def test_alu_and_halt():
    res = run_asm("li r1, #6\nli r2, #7\nmul r3, r1, r2\nhalt")
    assert res.halted and res.state.read(R[3]) == 42


def test_load_store():
    res = run_asm("li r1, #123\nst r1, 0x100(r31)\nld r2, 0x100(r31)\nhalt")
    assert res.state.read(R[2]) == 123
    assert res.memory.load(0x100) == 123


def test_branch_taken_and_not_taken():
    res = run_asm(
        """
        li r1, #1
        beq r1, skip      ; not taken
        li r2, #10
    skip:
        li r3, #0
        beq r3, done      ; taken
        li r2, #99
    done:
        halt
        """
    )
    assert res.state.read(R[2]) == 10


def test_call_and_return():
    res = run_asm(
        """
    .proc main
    main:
        li  r16, #5
        jsr r26, double
        mov r7, r0
        halt
    .proc double
    double:
        add r0, r16, r16
        ret r26
        """
    )
    assert res.state.read(R[7]) == 10


def test_jsr_records_return_address():
    res = run_asm(".proc main\nmain:\n jsr r26, f\n halt\n.proc f\nf:\n ret r26")
    records = {r.pc: r for r in res.trace}
    assert records[0].result == 1  # return pc
    assert records[1].next_pc == 1  # ret jumps back


def test_trace_old_dest_captures_prior_value():
    res = run_asm("li r1, #5\nli r1, #5\nli r1, #9\nhalt")
    assert res.trace[0].old_dest == 0
    assert res.trace[1].old_dest == 5 and res.trace[1].register_value_reused
    assert res.trace[2].old_dest == 5 and not res.trace[2].register_value_reused


def test_zero_register_reads_zero_and_ignores_writes():
    res = run_asm("li r31, #7\nadd r1, r31, #3\nhalt")
    assert res.state.read(R[31]) == 0
    assert res.state.read(R[1]) == 3


def test_fp_file_separate_from_int():
    res = run_asm("li r1, #3\nfli f1, #9\nitof f2, r1\nftoi r2, f1\nhalt")
    assert res.state.read(F[2]) == 3
    assert res.state.read(R[2]) == 9


def test_max_instructions_truncates():
    """A program still running at the budget is cut there, on every path."""
    program = assemble("loop: br loop\nhalt")
    for collect_trace in (False, True):
        res = FunctionalSimulator(program).run(max_instructions=25, collect_trace=collect_trace)
        assert not res.halted and res.instructions == 25
        assert res.trace is None if not collect_trace else len(res.trace) == 25
    sim = FunctionalSimulator(program)
    assert len(list(sim.iter_run(max_instructions=25))) == 25
    assert not sim.last_result.halted and sim.last_result.instructions == 25


def test_pc_out_of_range_raises():
    b = ProgramBuilder()
    b.li(R[1], 0)  # no halt: runs off the end
    with pytest.raises(SimulationError):
        run_program(b.build(), max_instructions=10)


def test_store_value_recorded():
    res = run_asm("li r1, #9\nst r1, 0x80(r31)\nhalt")
    store = res.trace[1]
    assert store.store_value == 9 and store.addr == 0x80


def test_effective_address_uses_base_plus_offset():
    mem = Memory()
    mem.store(0x108, 77)
    res = run_asm("li r2, #0x100\nld r1, 8(r2)\nhalt", memory=mem)
    assert res.state.read(R[1]) == 77


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_programs_terminate_and_are_deterministic(seed):
    program = random_program(seed)
    r1 = run_program(program, memory=random_memory(seed), max_instructions=50_000)
    r2 = run_program(program, memory=random_memory(seed), max_instructions=50_000)
    assert r1.halted and r2.halted
    assert r1.instructions == r2.instructions
    assert r1.state.state_equal(r2.state)
    assert r1.memory == r2.memory


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_trace_is_architecturally_consistent(seed):
    """Replaying the trace's writes reproduces the final register file."""
    program = random_program(seed)
    result = run_program(program, memory=random_memory(seed), max_instructions=50_000, collect_trace=True)
    regs = {}
    for record in result.trace:
        dst = record.inst.writes
        if dst is not None and record.result is not None:
            assert record.old_dest == regs.get(dst, 0), record
            regs[dst] = record.result
    for reg, value in regs.items():
        assert result.state.read(reg) == value
