"""ISA substrate: registers, opcodes, instructions, programs, assembler, builder."""

from .assembler import AssemblerError, assemble
from .builder import ProgramBuilder
from .instructions import Instruction
from .opcodes import LOAD_BASE_LATENCY, MASK64, OPCODES, FuClass, Opcode, OpKind, opcode, to_signed, to_unsigned
from .program import BasicBlock, Loop, Procedure, Program
from .registers import (
    ALLOCATABLE_FP,
    ALLOCATABLE_INT,
    ARG_REGS,
    CALLEE_SAVED_FP,
    CALLEE_SAVED_INT,
    F,
    FZERO,
    NUM_FP_REGS,
    NUM_INT_REGS,
    R,
    RETURN_ADDRESS,
    RETURN_VALUE,
    STACK_POINTER,
    ZERO,
    Reg,
    is_volatile,
    parse_reg,
)

__all__ = [
    "AssemblerError",
    "assemble",
    "ProgramBuilder",
    "Instruction",
    "LOAD_BASE_LATENCY",
    "MASK64",
    "OPCODES",
    "FuClass",
    "Opcode",
    "OpKind",
    "opcode",
    "to_signed",
    "to_unsigned",
    "BasicBlock",
    "Loop",
    "Procedure",
    "Program",
    "ALLOCATABLE_FP",
    "ALLOCATABLE_INT",
    "ARG_REGS",
    "CALLEE_SAVED_FP",
    "CALLEE_SAVED_INT",
    "F",
    "FZERO",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "R",
    "RETURN_ADDRESS",
    "RETURN_VALUE",
    "STACK_POINTER",
    "ZERO",
    "Reg",
    "is_volatile",
    "parse_reg",
]
