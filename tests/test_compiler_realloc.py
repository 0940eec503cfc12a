"""Section 7.3 reallocator tests: semantic preservation and reuse creation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import reallocate
from repro.isa import R, assemble
from repro.profiling import DeadHint, ProfileLists, ReuseProfile, critical_path_profile
from repro.sim import Memory, run_program
from repro.workloads import WORKLOAD_CLASSES, make_workload

from conftest import image_words, random_memory, random_program

ALL_NAMES = tuple(WORKLOAD_CLASSES)


def profile_workload(name, budget=40_000, threshold=0.8):
    workload = make_workload(name)
    result = run_program(*workload.build("train"), max_instructions=budget, collect_trace=True)
    profile = ReuseProfile.from_trace(result.trace)
    return workload, profile.profile_lists(threshold), critical_path_profile(result.trace)


def _non_stack_memory(result):
    """Final memory image excluding the stack region (callee-save slots hold
    different — dead — values once live ranges move registers)."""
    from repro.workloads import STACK_BASE

    lo, hi = STACK_BASE - (1 << 16), STACK_BASE
    return {addr: value for addr, value in image_words(result.memory.image()) if not lo <= addr <= hi}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_realloc_preserves_semantics(name):
    workload, lists, crit = profile_workload(name)
    new_program, report = reallocate(workload.program, lists, crit)
    budget = 120_000
    before = run_program(workload.program, memory=workload.memory("ref"), max_instructions=budget)
    after = run_program(new_program, memory=workload.memory("ref"), max_instructions=budget)
    # Semantic equivalence: identical control flow and all observable memory
    # effects.  Final *register* state and dead callee-save stack slots
    # legitimately differ (values moved registers).
    assert before.instructions == after.instructions
    assert before.halted == after.halted
    assert _non_stack_memory(before) == _non_stack_memory(after)


@pytest.mark.parametrize("name", ("li", "mgrid", "su2cor", "hydro2d"))
def test_realloc_never_reduces_same_register_reuse(name):
    workload, lists, crit = profile_workload(name)
    new_program, report = reallocate(workload.program, lists, crit)
    budget = 60_000
    base = run_program(workload.program, memory=workload.memory("ref"), max_instructions=budget, collect_trace=True)
    opt = run_program(new_program, memory=workload.memory("ref"), max_instructions=budget, collect_trace=True)
    before = ReuseProfile.from_trace(base.trace).fig1.fractions()["same"]
    after = ReuseProfile.from_trace(opt.trace).fig1.fractions()["same"]
    assert after >= before - 0.02, (before, after)


def test_realloc_applies_some_and_abandons_some():
    applied = abandoned = 0
    for name in ALL_NAMES:
        workload, lists, crit = profile_workload(name, budget=25_000)
        _, report = reallocate(workload.program, lists, crit)
        applied += report.dead_applied + report.lvr_applied
        abandoned += report.dead_conflicting + report.dead_foreign + report.lvr_not_in_loop + report.lvr_shared
    assert applied > 0, "reallocator never applied a reuse"
    assert abandoned > 0, "reallocator never abandoned a reuse (paper: over half are thrown out)"


def test_dead_reuse_moves_destination_to_dead_register():
    # Hand-built Figure 2a case: the load's value always equals dead r1.
    memory = Memory()
    memory.store(0x100, 55)
    program = assemble(
        """
        li r4, #12
    loop:
        li r1, #55
        add r2, r1, #0
        ld r3, 0x100(r31)
        add r5, r3, r2
        add r3, r4, #0    ; clobber: kills same-register reuse of the load
        sub r4, r4, #1
        bne r4, loop
        halt
        """
    )
    result = run_program(program, memory=memory.image().memory(), max_instructions=2000, collect_trace=True)
    lists = ReuseProfile.from_trace(result.trace).profile_lists(0.8)
    load_pc = 3
    assert load_pc in lists.dead
    new_program, report = reallocate(program, lists)
    assert report.dead_applied == 1
    # The load's destination now matches the dead value's register.
    assert new_program[load_pc].dst == new_program[1].dst
    # Semantics preserved.
    after = run_program(new_program, memory=memory.image().memory(), max_instructions=2000)
    assert after.state.read(new_program[load_pc].dst) == 55


def test_lvr_gets_exclusive_register():
    # Figure 2c: the load's register is clobbered by a temp inside the loop.
    memory = Memory()
    memory.store(0x100, 7)
    program = assemble(
        """
        li r4, #12
    loop:
        ld r1, 0x100(r31)
        add r2, r1, #1
        add r1, r2, r2    ; clobbers the load's register
        st r1, 0x200(r31)
        sub r4, r4, #1
        bne r4, loop
        halt
        """
    )
    result = run_program(program, memory=memory.image().memory(), max_instructions=2000, collect_trace=True)
    lists = ReuseProfile.from_trace(result.trace).profile_lists(0.8)
    assert 1 in lists.last_value and 1 not in lists.same
    new_program, report = reallocate(program, lists)
    assert report.lvr_applied >= 1
    load_dst = new_program[1].dst
    clobber_dst = new_program[3].dst
    assert load_dst != clobber_dst
    # And the reuse is now visible to same-register RVP.
    after = run_program(new_program, memory=memory.image().memory(), max_instructions=2000, collect_trace=True)
    profile = ReuseProfile.from_trace(after.trace)
    assert profile.sites[1].same_rate() > 0.85
    assert after.memory == run_program(program, memory=memory.image().memory(), max_instructions=2000).memory


def test_foreign_producer_abandoned():
    lists = ProfileLists(threshold=0.8)
    program = assemble(
        """
    .proc main
    main:
        li r1, #5
        jsr r26, f
        halt
    .proc f
    f:
        ld r3, 0x100(r31)
        ret r26
        """
    )
    # Hint claims the producer lives in main (pc 0) but the load is in f.
    lists.dead[3] = DeadHint(reg=R[1], producer_pc=0)
    _, report = reallocate(program, lists)
    assert report.dead_applied == 0 and report.dead_foreign == 1


def test_lvr_outside_loop_abandoned():
    lists = ProfileLists(threshold=0.8)
    program = assemble("ld r1, 0x100(r31)\nhalt")
    lists.last_value.add(0)
    _, report = reallocate(program, lists)
    assert report.lvr_applied == 0 and report.lvr_not_in_loop == 1


def test_lvr_avoids_registers_a_loop_call_clobbers():
    # The load's register is never named by another loop instruction, but
    # the ``jsr`` in the loop clobbers every volatile register by convention.
    program = assemble(
        """
    .proc main
    main:
        li r9, #12
    loop:
        ld r0, 0x100(r31)
        st r0, 0x200(r31)
        jsr r26, f
        sub r9, r9, #1
        bne r9, loop
        halt
    .proc f
    f:
        ret r26
        """
    )
    lists = ProfileLists(threshold=0.8)
    lists.last_value.add(1)
    # Callee-saved registers are live through the whole procedure and the
    # call clobbers the rest, so no exclusive register exists: the reuse is
    # pruned rather than left in the clobbered r0.
    _, report = reallocate(program, lists)
    assert report.lvr_applied == 0 and report.pruned_for_coloring == 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_realloc_verifies_at_high_threshold(name):
    # Threshold 0.9 puts a loop-resident load whose loop also calls a
    # procedure on li's last-value list; its register must dodge the call's
    # clobbers or RVP008 rejects the rewrite.
    workload, lists, crit = profile_workload(name, threshold=0.9)
    reallocate(workload.program, lists, crit)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_realloc_preserves_semantics_on_random_programs(seed):
    """Property: reallocation with profile-derived lists never changes
    architectural behaviour of random programs."""
    program = random_program(seed)
    memory = random_memory(seed)
    result = run_program(program, memory=memory.image().memory(), max_instructions=50_000, collect_trace=True)
    lists = ReuseProfile.from_trace(result.trace).profile_lists(0.6, min_count=2)
    crit = critical_path_profile(result.trace)
    new_program, _ = reallocate(program, lists, crit)
    after = run_program(new_program, memory=memory.image().memory(), max_instructions=50_000)
    assert after.instructions == result.instructions
    assert after.memory == result.memory
    assert after.halted == result.halted
    # Every committed value is preserved instruction-for-instruction (the
    # registers may differ; the produced values may not).
    after_full = run_program(new_program, memory=memory.image().memory(), max_instructions=50_000, collect_trace=True)
    for a, b in zip(result.trace, after_full.trace):
        assert a.pc == b.pc and a.result == b.result and a.addr == b.addr
