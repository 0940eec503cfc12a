"""Verifier rules: each adversarial program triggers exactly its rule."""

import pytest

from repro.analysis.diagnostics import Severity, VerificationError
from repro.analysis.verifier import (
    AllocationCheck,
    LintConfig,
    check_program,
    rule_catalog,
    verify_program,
)
from repro.compiler.webs import Web
from repro.isa import F, R, assemble
from repro.isa.builder import ProgramBuilder


def rules_fired(diagnostics, severity=None):
    return {
        d.rule
        for d in diagnostics
        if severity is None or d.severity is severity
    }


def test_clean_program_has_no_findings():
    program = assemble(
        """
        li r1, #1
        add r2, r1, #2
        st r2, 0(r30)
        halt
        """
    )
    assert verify_program(program) == []


# ----------------------------------------------------------------------
# RVP001 — operand arity
# ----------------------------------------------------------------------
def test_rvp001_load_missing_base():
    b = ProgramBuilder("bad-arity")
    with b.procedure("main"):
        b.emit("ld", dst=R[1])  # no base register
        b.halt()
    diags = verify_program(b.build())
    assert rules_fired(diags, Severity.ERROR) == {"RVP001"}


def test_rvp001_alu_with_register_and_immediate():
    b = ProgramBuilder("bad-arity2")
    with b.procedure("main"):
        b.li(R[1], 1)
        b.li(R[2], 2)
        b.emit("add", dst=R[3], src1=R[1], src2=R[2], imm=4)
        b.halt()
    diags = verify_program(b.build())
    assert rules_fired(diags, Severity.ERROR) == {"RVP001"}


# ----------------------------------------------------------------------
# RVP002 — register classes
# ----------------------------------------------------------------------
def test_rvp002_int_operand_in_fp_slot():
    b = ProgramBuilder("bad-class")
    with b.procedure("main"):
        b.li(R[1], 1)
        b.fli(F[2], 1)
        b.emit("fadd", dst=F[3], src1=F[2], src2=R[1])  # int src in fp add
        b.halt()
    diags = verify_program(b.build())
    assert rules_fired(diags, Severity.ERROR) == {"RVP002"}


def test_rvp002_wrong_destination_file():
    b = ProgramBuilder("bad-class2")
    with b.procedure("main"):
        b.fli(F[1], 1)
        b.fli(F[2], 2)
        b.emit("fadd", dst=R[3], src1=F[1], src2=F[2])  # int dst for fp op
        b.halt()
    diags = verify_program(b.build())
    assert rules_fired(diags, Severity.ERROR) == {"RVP002"}


# ----------------------------------------------------------------------
# RVP003 — use-before-def
# ----------------------------------------------------------------------
def test_rvp003_entry_garbage_read_is_error():
    program = assemble(
        """
        add r2, r1, #1
        halt
        """
    )
    diags = verify_program(program)
    assert rules_fired(diags, Severity.ERROR) == {"RVP003"}
    (diag,) = [d for d in diags if d.is_error]
    assert diag.pc == 0 and "r1" in diag.message


def test_rvp003_partial_path_is_warning():
    program = assemble(
        """
        li r4, #0
        beq r4, skip
        li r1, #1
    skip:
        add r2, r1, #1
        halt
        """
    )
    diags = verify_program(program)
    assert not any(d.is_error for d in diags)
    assert rules_fired(diags, Severity.WARNING) == {"RVP003"}


def test_rvp003_arg_and_callee_saved_regs_are_fine():
    program = assemble(
        """
        add r2, r16, r9
        halt
        """
    )
    assert verify_program(program) == []


# ----------------------------------------------------------------------
# RVP004 — unreachable blocks
# ----------------------------------------------------------------------
def test_rvp004_dead_block_warns():
    program = assemble(
        """
        br end
        li r1, #1
    end:
        halt
        """
    )
    diags = verify_program(program)
    assert rules_fired(diags) == {"RVP004"}
    assert not any(d.is_error for d in diags)


# ----------------------------------------------------------------------
# RVP005 — calling convention
# ----------------------------------------------------------------------
def test_rvp005_call_into_procedure_body():
    program = assemble(
        """
    .proc main
    main:
        jsr r26, inside
        halt
    .proc other
    other:
        li r1, #1
    inside:
        ret r26
        """
    )
    diags = verify_program(program)
    assert "RVP005" in rules_fired(diags, Severity.ERROR)


def test_rvp005_branch_across_procedures():
    program = assemble(
        """
    .proc main
    main:
        li r1, #0
        beq r1, other
        halt
    .proc other
    other:
        ret r26
        """
    )
    diags = verify_program(program)
    assert "RVP005" in rules_fired(diags, Severity.ERROR)


# ----------------------------------------------------------------------
# RVP006 — rvp marking legality
# ----------------------------------------------------------------------
def test_rvp006_marked_load_into_zero_register():
    b = ProgramBuilder("bad-mark")
    with b.procedure("main"):
        b.li(R[9], 64)
        b.emit("rvp_ld", dst=R[31], src1=R[9], imm=0)
        b.halt()
    diags = verify_program(b.build())
    assert rules_fired(diags, Severity.ERROR) == {"RVP006"}


# ----------------------------------------------------------------------
# RVP007 — allocation validity (context rule)
# ----------------------------------------------------------------------
def _two_web_program():
    return assemble(
        """
        li r1, #1
        li r2, #2
        add r3, r1, r2
        st r3, 0(r30)
        halt
        """
    )


def test_rvp007_interfering_webs_on_one_register():
    program = _two_web_program()
    webs = [
        Web(index=0, reg=R[1], def_pcs={0}, live_pcs={0, 1, 2}),
        Web(index=1, reg=R[2], def_pcs={1}, live_pcs={1, 2}),
    ]
    check = AllocationCheck(
        proc_name="main",
        webs=webs,
        adjacency={0: {1}, 1: {0}},
        assignment={0: R[1], 1: R[1]},  # web 1 illegally moved onto r1
    )
    diags = verify_program(program, allocations=[check])
    assert rules_fired(diags, Severity.ERROR) == {"RVP007"}


def test_rvp007_moving_a_fixed_web_is_an_error():
    program = _two_web_program()
    webs = [Web(index=0, reg=R[1], def_pcs={0}, live_pcs={0, 1}, fixed=True)]
    check = AllocationCheck(
        proc_name="main", webs=webs, adjacency={}, assignment={0: R[4]}
    )
    diags = verify_program(program, allocations=[check])
    assert rules_fired(diags, Severity.ERROR) == {"RVP007"}


def test_rvp007_untouched_assignment_is_accepted():
    program = _two_web_program()
    webs = [
        Web(index=0, reg=R[1], def_pcs={0}, live_pcs={0, 1, 2}),
        Web(index=1, reg=R[1], def_pcs={2}, live_pcs={2}),
    ]
    # Conservative per-register interference can report same-register
    # sibling webs as adjacent; an unchanged assignment is still legal.
    check = AllocationCheck(
        proc_name="main",
        webs=webs,
        adjacency={0: {1}, 1: {0}},
        assignment={0: R[1], 1: R[1]},
    )
    assert verify_program(program, allocations=[check]) == []


# ----------------------------------------------------------------------
# RVP008 — loop-exclusive (LVR) registers
# ----------------------------------------------------------------------
def test_rvp008_loop_exclusive_register_shared():
    program = assemble(
        """
        li r1, #0
        li r9, #4
    loop:
        add r1, r1, #1
        add r1, r1, #2
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    diags = verify_program(program, lvr_pcs={2})
    assert rules_fired(diags, Severity.ERROR) == {"RVP008"}
    assert any("pc 3" in d.message for d in diags if d.is_error)


def test_rvp008_call_clobber_counts_as_sharing():
    program = assemble(
        """
    .proc main
    main:
        li r1, #0
        li r9, #4
    loop:
        add r1, r1, #1
        jsr r26, callee
        sub r9, r9, #1
        bne r9, loop
        halt
    .proc callee
    callee:
        ret r26
        """
    )
    # r1 is volatile: the call inside the loop implicitly clobbers it.
    diags = verify_program(program, lvr_pcs={2})
    assert "RVP008" in rules_fired(diags, Severity.ERROR)


def test_rvp008_outside_any_loop():
    program = assemble(
        """
        li r1, #0
        halt
        """
    )
    diags = verify_program(program, lvr_pcs={0})
    assert rules_fired(diags, Severity.ERROR) == {"RVP008"}


def test_rvp008_exclusive_register_passes():
    program = assemble(
        """
        li r1, #0
        li r9, #4
    loop:
        add r1, r1, #1
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    assert verify_program(program, lvr_pcs={2}) == []


# ----------------------------------------------------------------------
# RVP013 — unmarked load into a hardwired-zero register
# ----------------------------------------------------------------------
ZERO_DEST = """
    li r2, #64
    ld r31, 0(r2)   ; dropped on the spot: r31 is hardwired zero
    ld r3, 0(r2)    ; unobserved, but not this rule's claim
    ld r4, 0(r2)
    st r4, 8(r2)
    halt
"""


def test_rvp013_zero_dest_load():
    diags = verify_program(assemble(ZERO_DEST))
    assert rules_fired(diags) == {"RVP013"}
    (diag,) = diags
    assert diag.pc == 1 and not diag.is_error


def test_check_program_returns_warnings_without_raising():
    # Pass postconditions run every rule but gate only on errors.
    diags = check_program(assemble(ZERO_DEST), source="gate")
    assert rules_fired(diags) == {"RVP013"}


# ----------------------------------------------------------------------
# Config, driver, environment
# ----------------------------------------------------------------------
def test_disabled_rules_are_skipped():
    program = assemble(
        """
        add r2, r1, #1
        halt
        """
    )
    config = LintConfig.parse(disabled=["rvp003"])
    assert verify_program(program, config=config) == []


def test_strict_mode_promotes_warnings():
    program = assemble(
        """
        br end
        li r1, #1
    end:
        halt
        """
    )
    diags = verify_program(program, config=LintConfig.parse(strict=True))
    assert diags and all(d.severity is Severity.ERROR for d in diags)


def test_check_program_raises_with_diagnostics():
    program = assemble(
        """
        add r2, r1, #1
        halt
        """
    )
    with pytest.raises(VerificationError) as excinfo:
        check_program(program, source="unit test")
    assert excinfo.value.source == "unit test"
    assert any(d.rule == "RVP003" for d in excinfo.value.diagnostics)


def test_check_program_baseline_suppresses_preexisting_errors():
    program = assemble(
        """
        add r2, r1, #1
        halt
        """
    )
    # The same (rule, pc) error exists in the baseline -> not introduced.
    diags = check_program(program, source="delta", baseline=program)
    assert any(d.rule == "RVP003" for d in diags)


def test_rule_catalog_is_complete():
    catalog = rule_catalog()
    ids = [info.rule_id for info in catalog]
    # RVP009 (colourer spills) was retired with the colourer and RVP010-RVP012
    # with the abstract interpreter; ids are not reused.
    assert ids == [f"RVP{n:03d}" for n in range(1, 9)] + ["RVP013"]
