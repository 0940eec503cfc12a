"""Program construction, CFG and natural-loop tests."""

import pytest

from repro.isa import Instruction, Procedure, Program, ProgramBuilder, R, opcode


def build_simple():
    b = ProgramBuilder("p")
    with b.procedure("main"):
        b.li(R[1], 3)
        b.label("loop")
        b.subi(R[1], R[1], 1)
        b.bne(R[1], "loop")
        b.halt()
    return b.build()


def test_pc_assignment_and_target_resolution():
    p = build_simple()
    assert [inst.pc for inst in p] == list(range(len(p)))
    bne = p[2]
    assert bne.target == "loop" and bne.target_pc == 1


def test_undefined_label_rejected():
    with pytest.raises(ValueError, match="undefined label"):
        Program([Instruction(op=opcode("br"), target="nowhere")], {})


def test_default_procedure_covers_everything():
    p = Program([Instruction(op=opcode("halt"))], {})
    assert p.procedures == (Procedure("main", 0, 1),)
    assert p.procedure_of(0).name == "main"


def test_overlapping_procedures_rejected():
    insts = [Instruction(op=opcode("halt")), Instruction(op=opcode("halt"))]
    with pytest.raises(ValueError, match="two procedures"):
        Program(insts, {}, procedures=[Procedure("a", 0, 2), Procedure("b", 1, 2)])


def test_uncovered_pc_rejected():
    insts = [Instruction(op=opcode("halt")), Instruction(op=opcode("halt"))]
    with pytest.raises(ValueError, match="not covered"):
        Program(insts, {}, procedures=[Procedure("a", 0, 1)])


def test_basic_blocks_split_at_branches_and_targets():
    p = build_simple()
    blocks = p.basic_blocks(p.procedures[0])
    starts = [blk.start for blk in blocks]
    assert starts == [0, 1, 3]
    # Fallthrough + branch-taken successors.
    loop_block = blocks[1]
    assert set(loop_block.successors) == {1, 3}


def test_single_loop_detection():
    p = build_simple()
    loops = p.loops(p.procedures[0])
    assert len(loops) == 1
    loop = loops[0]
    assert loop.header == 1 and loop.depth == 1
    assert 0 not in loop.body and 1 in loop.body and 2 in loop.body


def test_nested_loop_depths():
    b = ProgramBuilder("nested")
    with b.procedure("main"):
        b.li(R[1], 4)
        b.label("outer")
        b.li(R[2], 3)
        b.label("inner")
        b.subi(R[2], R[2], 1)
        b.bne(R[2], "inner")
        b.subi(R[1], R[1], 1)
        b.bne(R[1], "outer")
        b.halt()
    p = b.build()
    assert p.loop_depth(2) == 2  # inner body
    assert p.loop_depth(4) == 1  # outer body, outside inner
    assert p.loop_depth(6) == 0  # halt
    inner = p.innermost_loop(2)
    assert inner is not None and inner.depth == 2


#: Each workload procedure's natural loops as (header, depth, len(body)) at
#: the default scale.  Realloc's loop-exclusive registers read
#: ``innermost_loop``, so Figure 7 depends on these nests.
WORKLOAD_LOOPS = {
    "go": {"main": [(4, 1, 34), (6, 2, 30)]},
    "ijpeg": {"main": [(12, 1, 35)]},
    "li": {"main": [(5, 1, 5)], "sum_list": [(20, 1, 25)]},
    "m88ksim": {"main": [(7, 1, 47)]},
    "perl": {"main": [(7, 1, 23), (11, 2, 8)]},
    "hydro2d": {"main": [(4, 1, 18), (6, 2, 14)]},
    "mgrid": {"main": [(5, 1, 28), (8, 2, 23)]},
    "su2cor": {"main": [(3, 1, 25), (7, 2, 19)]},
    "turb3d": {"main": [(3, 1, 27), (7, 2, 21), (8, 3, 14)]},
    "dotprod": {"main": [(6, 1, 16), (10, 2, 9)]},
    "stencil": {"main": [(7, 1, 19), (10, 2, 11)]},
}


def test_workload_loop_nests_pinned():
    from repro.workloads import all_workloads

    found = {}
    for workload in all_workloads():
        program = workload.program
        found[workload.name] = {
            proc.name: sorted((loop.header, loop.depth, len(loop.body)) for loop in program.loops(proc))
            for proc in program.procedures
        }
    assert found == WORKLOAD_LOOPS


def test_rewrite_preserves_structure():
    p = build_simple()
    q = p.rewrite(lambda inst: inst.rewrite_registers({R[1]: R[5]}), name="renamed")
    assert q.name == "renamed" and len(q) == len(p)
    assert q[0].dst == R[5] and q[2].src1 == R[5]
    assert q[2].target_pc == p[2].target_pc
    # Original untouched.
    assert p[0].dst == R[1]


def test_call_is_fallthrough_in_cfg():
    b = ProgramBuilder("withcall")
    with b.procedure("main"):
        b.jsr("callee")
        b.halt()
    with b.procedure("callee"):
        b.ret()
    p = b.build()
    blocks = p.basic_blocks(p.procedure("main"))
    assert blocks[0].successors == (1,)  # call falls through to halt
    callee_blocks = p.basic_blocks(p.procedure("callee"))
    assert callee_blocks[0].successors == ()  # ret exits


def test_render_marks_procedures():
    b = ProgramBuilder("two")
    with b.procedure("main"):
        b.jsr("f")
        b.halt()
    with b.procedure("f"):
        b.ret()
    text = b.build().render()
    assert ".proc main" in text and ".proc f" in text
