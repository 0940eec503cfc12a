"""Shared CFG dataflow engine: directions, reaching definitions, liveness,
reachability."""

from repro.analysis import solve
from repro.analysis.facts import ProcedureFacts, ProgramFacts
from repro.compiler import compute_liveness, defs_and_uses
from repro.isa import R, assemble


def facts_of(text, proc_name=None):
    program = assemble(text)
    proc = program.procedure(proc_name) if proc_name else program.procedures[0]
    return program, ProcedureFacts(program, proc)


# ----------------------------------------------------------------------
# Reaching definitions (forward / union)
# ----------------------------------------------------------------------
def test_redefinition_kills_earlier_def():
    program, facts = facts_of(
        """
        li r1, #1
        li r1, #2
        add r2, r1, #0
        halt
        """
    )
    use = facts.use_sites(2)[0]
    assert facts.reaching_defs_of_use(use) == {(1, R[1])}


def test_defs_merge_at_join():
    program, facts = facts_of(
        """
        li r2, #0
        beq r2, other
        li r1, #1
        br join
    other:
        li r1, #2
    join:
        add r3, r1, #0
        halt
        """
    )
    use = next(u for u in facts.use_sites(5) if u.reg == R[1])
    assert facts.reaching_defs_of_use(use) == {(2, R[1]), (4, R[1])}


def test_entry_pseudo_def_reaches_undefined_use():
    program, facts = facts_of(
        """
        add r2, r1, #0
        halt
        """
    )
    use = facts.use_sites(0)[0]
    assert facts.reaching_defs_of_use(use) == {(None, R[1])}


def test_loop_def_reaches_around_back_edge():
    program, facts = facts_of(
        """
        li r1, #10
    loop:
        sub r1, r1, #1
        bne r1, loop
        halt
        """
    )
    use = facts.use_sites(1)[0]
    # Both the init and the loop's own redefinition reach the loop header.
    assert facts.reaching_defs_of_use(use) == {(0, R[1]), (1, R[1])}


# ----------------------------------------------------------------------
# Liveness expressed through the shared engine
# ----------------------------------------------------------------------
def test_liveness_satisfies_dataflow_equations_on_workload():
    from repro.workloads.suite import make_workload

    program = make_workload("m88ksim").program
    for proc in program.procedures:
        info = compute_liveness(program, proc)
        succs_of = {}
        for block in program.basic_blocks(proc):
            for pc in block.pcs():
                succs_of[pc] = [pc + 1] if pc + 1 < block.end else list(block.successors)
        for pc in range(proc.start, proc.end):
            defs, uses = defs_and_uses(program[pc])
            # live_in = uses ∪ (live_out − defs)
            assert info.live_in[pc] == frozenset(uses | (set(info.live_out[pc]) - defs))
            # live_out = ∪ live_in(succ)
            expected = set()
            for succ in succs_of[pc]:
                expected |= info.live_in[succ]
            assert info.live_out[pc] == frozenset(expected)


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------
def test_unreachable_blocks():
    program, facts = facts_of(
        """
        li r1, #0
        beq r1, end
        li r2, #1
    end:
        halt
        br end
        """
    )
    # The trailing br is dead code.
    dead = facts.unreachable_blocks()
    assert [block.start for block in dead] == [4]


def test_program_facts_cached_per_procedure():
    program = assemble(
        """
    .proc main
    main:
        halt
    .proc other
    other:
        ret r26
        """
    )
    facts = ProgramFacts(program)
    main = program.procedure("main")
    assert facts.for_proc(main) is facts.for_proc(main)
    assert len(list(facts)) == 2
