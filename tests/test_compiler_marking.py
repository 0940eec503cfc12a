"""Static RVP marking tests."""

import pytest

from repro.compiler import MARKING_LEVELS, mark_static_rvp, marked_pcs
from repro.isa import R, assemble
from repro.profiling import DeadHint, ProfileLists
from repro.sim import Memory, run_program

PROGRAM_TEXT = """
    li r2, #8
loop:
    ld r1, 0x100(r31)
    ld r3, 0x108(r31)
    add r4, r1, r3
    sub r2, r2, #1
    bne r2, loop
    halt
"""


def make_lists():
    lists = ProfileLists(threshold=0.8)
    lists.same.add(1)  # first load
    lists.dead[2] = DeadHint(reg=R[4], producer_pc=3)  # second load
    lists.last_value.add(2)
    return lists


def test_levels_are_cumulative():
    program = assemble(PROGRAM_TEXT)
    lists = make_lists()
    same = marked_pcs(program, lists, "same")
    dead = marked_pcs(program, lists, "dead")
    live_lv = marked_pcs(program, lists, "live_lv")
    assert same == {1}
    assert dead == {1, 2}
    assert same <= dead <= live_lv


def test_only_loads_get_marked():
    program = assemble(PROGRAM_TEXT)
    lists = make_lists()
    lists.same.add(3)  # the add: predictable but not a load
    assert 3 not in marked_pcs(program, lists, "same")


def test_marking_swaps_opcode_and_preserves_semantics():
    program = assemble(PROGRAM_TEXT)
    marked = mark_static_rvp(program, make_lists(), "dead")
    assert marked[1].op.name == "rvp_ld" and marked[2].op.name == "rvp_ld"
    assert marked[3].op.name == "add"
    memory = Memory()
    memory.store(0x100, 5)
    memory.store(0x108, 6)
    base = run_program(program, memory=memory.image().memory(), max_instructions=1000)
    out = run_program(marked, memory=memory.image().memory(), max_instructions=1000)
    assert base.state.state_equal(out.state)
    assert base.instructions == out.instructions


def test_unknown_level_rejected():
    program = assemble(PROGRAM_TEXT)
    with pytest.raises(ValueError, match="unknown marking level"):
        mark_static_rvp(program, make_lists(), "turbo")
    assert set(MARKING_LEVELS) == {"same", "dead", "live", "live_lv"}


def test_fp_loads_get_fp_twin():
    program = assemble("fld f1, 0x100(r31)\nhalt")
    lists = ProfileLists(threshold=0.8)
    lists.same.add(0)
    marked = mark_static_rvp(program, lists, "same")
    assert marked[0].op.name == "rvp_fld"
