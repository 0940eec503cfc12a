"""Shared test fixtures and the random-program generator used by the
property-based tests.

:func:`random_program` builds structurally-valid programs (straight-line
arithmetic, memory traffic to a small address pool, and bounded counted
loops), guaranteeing termination — which lets hypothesis explore the
functional simulator, the compiler passes and the pipeline without
hand-written termination proofs.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Tuple

import pytest

from repro.isa import F, ProgramBuilder, R
from repro.isa.program import Program
from repro.sim import WORD_BYTES, Memory

#: Registers the generator plays with (avoids special registers).
GEN_INT_REGS = [R[i] for i in (1, 2, 3, 4, 5, 6, 7, 8)]
GEN_FP_REGS = [F[i] for i in (1, 2, 3, 4, 5, 6)]
#: Small word-aligned address pool for generated loads/stores.
GEN_ADDRS = [0x2000 + 8 * i for i in range(16)]

_INT_OPS = ("add", "sub", "and", "or", "xor", "mul", "cmpeq", "cmplt", "sll", "srl")
_FP_OPS = ("fadd", "fsub", "fmul")


def random_program(seed: int, max_blocks: int = 4, max_ops: int = 10) -> Program:
    """A deterministic random, always-terminating program for ``seed``."""
    rng = random.Random(seed)
    b = ProgramBuilder(f"random_{seed}")
    with b.procedure("main"):
        # Seed some register values.
        for reg in GEN_INT_REGS[:4]:
            b.li(reg, rng.randrange(0, 1 << 16))
        for reg in GEN_FP_REGS[:3]:
            b.fli(reg, rng.randrange(0, 1 << 12))

        def emit_ops(count: int) -> None:
            for _ in range(count):
                kind = rng.random()
                if kind < 0.55:
                    op = rng.choice(_INT_OPS)
                    dst = rng.choice(GEN_INT_REGS)
                    a = rng.choice(GEN_INT_REGS)
                    if rng.random() < 0.5:
                        b.emit(op, dst=dst, src1=a, src2=rng.choice(GEN_INT_REGS))
                    else:
                        b.emit(op, dst=dst, src1=a, imm=rng.randrange(0, 64))
                elif kind < 0.7:
                    op = rng.choice(_FP_OPS)
                    b.emit(op, dst=rng.choice(GEN_FP_REGS), src1=rng.choice(GEN_FP_REGS), src2=rng.choice(GEN_FP_REGS))
                elif kind < 0.85:
                    addr = rng.choice(GEN_ADDRS)
                    if rng.random() < 0.5:
                        b.ld(rng.choice(GEN_INT_REGS), R[31], addr)
                    else:
                        b.fld(rng.choice(GEN_FP_REGS), R[31], addr)
                else:
                    addr = rng.choice(GEN_ADDRS)
                    if rng.random() < 0.5:
                        b.st(rng.choice(GEN_INT_REGS), R[31], addr)
                    else:
                        b.fst(rng.choice(GEN_FP_REGS), R[31], addr)

        for block in range(rng.randrange(1, max_blocks + 1)):
            if rng.random() < 0.6:
                # Bounded counted loop (r9 is reserved as the loop counter).
                trips = rng.randrange(1, 6)
                label = b.fresh_label(f"loop{block}")
                b.li(R[9], trips)
                b.label(label)
                emit_ops(rng.randrange(1, max_ops))
                b.subi(R[9], R[9], 1)
                b.bne(R[9], label)
            else:
                emit_ops(rng.randrange(1, max_ops))
                if rng.random() < 0.5:
                    skip = b.fresh_label(f"skip{block}")
                    b.beq(rng.choice(GEN_INT_REGS), skip)
                    emit_ops(rng.randrange(1, 4))
                    b.label(skip)
        b.halt()
    return b.build()


def image_words(image) -> List[Tuple[int, int]]:
    """``(byte_address, value)`` of every word a :class:`MemoryImage` holds,
    written zeros included, in write order."""
    return [
        (index * WORD_BYTES, value)
        for index, value in zip(image.indices.tolist(), image.values.tolist())
    ]


def random_memory(seed: int) -> Memory:
    rng = random.Random(seed ^ 0x5EED)
    memory = Memory()
    for addr in GEN_ADDRS:
        memory.store(addr, rng.randrange(0, 1 << 20))
    return memory


def bump_first_li(program: Program) -> Program:
    """``program`` with the immediate of its first ``li`` off by one: a
    verifier-clean pass output that computes the wrong value."""
    victim = next(inst.pc for inst in program if inst.op.name == "li")
    return program.rewrite(
        lambda inst: dataclasses.replace(inst, imm=inst.imm + 1) if inst.pc == victim else inst
    )


@pytest.fixture
def tiny_loop_program() -> Program:
    """A small well-understood loop used across several test modules."""
    b = ProgramBuilder("tiny_loop")
    with b.procedure("main"):
        b.li(R[1], 0)  # accumulator
        b.li(R[2], 0x2000)  # cursor
        b.li(R[3], 8)  # trip count
        b.label("loop")
        b.ld(R[4], R[2], 0)
        b.add(R[1], R[1], R[4])
        b.addi(R[2], R[2], 8)
        b.subi(R[3], R[3], 1)
        b.bne(R[3], "loop")
        b.st(R[1], R[31], 0x3000)
        b.halt()
    return b.build()


@pytest.fixture
def tiny_loop_memory() -> Memory:
    memory = Memory()
    memory.write_words(0x2000, [3, 1, 4, 1, 5, 9, 2, 6])
    return memory
