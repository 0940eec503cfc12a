"""Canonical per-instruction register effects (defs and uses).

This is the single source of truth for what an instruction defines and uses,
including the calling-convention implicit effects the paper assumes in
Section 7.3: *all non-volatile registers are live at procedure entrance and
exit, and each procedure call uses all argument registers*.  Concretely:

* ``jsr``  — explicitly defines its link register; implicitly *uses* the
  argument registers (int and fp) and the stack pointer, and implicitly
  *defines* every volatile register (the callee may clobber them).
* ``ret`` / ``jmp`` / ``halt`` (procedure exits) — implicitly use every
  non-volatile register plus the stack pointer.
* procedure entry — implicitly defines every register (arguments,
  caller-saved garbage, callee-saved values all "arrive" here).

Both the compiler back end (:mod:`repro.compiler.liveness`, webs,
reallocation) and the analysis layer (:mod:`repro.analysis.facts`, the
verifier) import from here.
"""

from __future__ import annotations

from typing import FrozenSet, Set, Tuple

from ..isa.instructions import Instruction
from ..isa.opcodes import OpKind
from ..isa.registers import (
    ARG_REGS,
    F,
    FP_ARG_REGS,
    R,
    STACK_POINTER,
    Reg,
    is_volatile,
)

#: Every architectural register except the hardwired zeros.
ALL_REGS: Tuple[Reg, ...] = tuple(r for r in R if not r.is_zero) + tuple(f for f in F if not f.is_zero)
#: Caller-saved registers (clobbered by a call).
VOLATILES: Tuple[Reg, ...] = tuple(r for r in ALL_REGS if is_volatile(r))
#: Callee-saved registers (preserved across calls, live at exits).
NONVOLATILES: Tuple[Reg, ...] = tuple(r for r in ALL_REGS if not is_volatile(r))
#: Implicit uses of a ``jsr``: the outgoing arguments plus the stack pointer.
CALL_USES: FrozenSet[Reg] = frozenset(ARG_REGS) | frozenset(FP_ARG_REGS) | {STACK_POINTER}
#: Implicit uses of a procedure exit (``ret``/``jmp``/``halt``).
EXIT_USES: FrozenSet[Reg] = frozenset(NONVOLATILES) | {STACK_POINTER}


def explicit_defs(inst: Instruction) -> Tuple[Reg, ...]:
    dst = inst.writes
    return (dst,) if dst is not None else ()


def explicit_uses(inst: Instruction) -> Tuple[Reg, ...]:
    return tuple(r for r in inst.reads if not r.is_zero)


def implicit_defs(inst: Instruction) -> FrozenSet[Reg]:
    """Registers clobbered by convention (callee clobbers at a call site)."""
    if inst.op.kind is OpKind.CALL:
        return frozenset(VOLATILES)
    return frozenset()


def implicit_uses(inst: Instruction) -> FrozenSet[Reg]:
    """Registers consumed by convention (call arguments, exit live-outs)."""
    if inst.op.kind is OpKind.CALL:
        return CALL_USES
    if inst.op.kind in (OpKind.INDIRECT, OpKind.HALT):
        return EXIT_USES
    return frozenset()


def defs_and_uses(inst: Instruction) -> Tuple[Set[Reg], Set[Reg]]:
    """(defs, uses) including calling-convention implicit effects."""
    defs = set(explicit_defs(inst)) | set(implicit_defs(inst))
    uses = set(explicit_uses(inst)) | set(implicit_uses(inst))
    return defs, uses
