"""Seeded random-program generator for the differential fuzzing harness.

Programs come out *verifier-clean* (no RVP001–RVP008 errors or warnings) and
*provably terminating*, so every oracle can run them without hand-written
termination proofs:

* every working register is initialised before the first computed
  instruction (RVP003 never fires — generated programs have no
  entry-garbage reads);
* all loops are counted: a reserved counter register is loaded with a
  positive trip count, decremented once per iteration and tested with
  ``bne``, and body instructions never touch the counters;
* forward branches only skip straight-line runs inside the same segment,
  so every instruction stays reachable (RVP004 never fires);
* a single procedure, no calls — the calling-convention rules (RVP005)
  hold vacuously.

The shape knobs mirror the dimensions the paper's workloads vary across:
loop nesting (:attr:`GeneratorConfig.loop_depth`), memory traffic
(:attr:`~GeneratorConfig.load_density` / :attr:`~GeneratorConfig.store_density`),
working-set size (:attr:`~GeneratorConfig.register_pressure`) and control
structure (:attr:`~GeneratorConfig.branch_mix`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Tuple

from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..isa.registers import F, R, Reg
from ..sim.memory import Memory

#: Loop counters, reserved — never part of the working set.
LOOP_COUNTERS = (R[9], R[10], R[11])

#: Word-aligned address pool for generated loads/stores (absolute, off r31).
ADDRESS_POOL = tuple(0x2000 + 8 * i for i in range(16))

_INT_OPS = ("add", "sub", "and", "or", "xor", "mul", "cmpeq", "cmplt", "sll", "srl")
_FP_OPS = ("fadd", "fsub", "fmul")
_BRANCH_OPS = ("beq", "bne", "bge", "blt")


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape parameters for one generated program."""

    #: top-level segments (each a loop nest, a guarded run, or plain ops)
    segments: int = 4
    #: max straight-line instructions emitted per segment level
    ops_per_segment: int = 8
    #: max loop nesting depth (0 = straight-line only); capped by the
    #: reserved counter registers
    loop_depth: int = 2
    #: probability an op slot becomes a load
    load_density: float = 0.25
    #: probability an op slot becomes a store
    store_density: float = 0.15
    #: integer working registers in play (2..8; fp set scales along)
    register_pressure: int = 8
    #: probability a segment is guarded by a forward conditional skip
    branch_mix: float = 0.4
    #: loop trip counts drawn from [1, max_trips]
    max_trips: int = 4

    def validated(self) -> "GeneratorConfig":
        cfg = replace(
            self,
            segments=max(1, self.segments),
            ops_per_segment=max(1, self.ops_per_segment),
            loop_depth=max(0, min(self.loop_depth, len(LOOP_COUNTERS))),
            load_density=min(max(self.load_density, 0.0), 1.0),
            store_density=min(max(self.store_density, 0.0), 1.0),
            register_pressure=max(2, min(self.register_pressure, 8)),
            branch_mix=min(max(self.branch_mix, 0.0), 1.0),
            max_trips=max(1, self.max_trips),
        )
        return cfg


@dataclass(frozen=True)
class GeneratedCase:
    """One fuzz input: a program plus its (rebuildable) initial memory."""

    seed: int
    config: GeneratorConfig
    program: Program
    memory_words: Tuple[Tuple[int, int], ...] = field(default=())

    def memory(self) -> Memory:
        """A fresh initial-memory image (simulation mutates memory)."""
        memory = Memory()
        for addr, value in self.memory_words:
            memory.store(addr, value)
        return memory

    def with_program(self, program: Program) -> "GeneratedCase":
        return replace(self, program=program)


def generate_case(seed: int, config: GeneratorConfig = GeneratorConfig()) -> GeneratedCase:
    """Deterministically generate one verifier-clean, terminating case."""
    cfg = config.validated()
    rng = random.Random(seed)
    int_regs: List[Reg] = [R[i] for i in range(1, cfg.register_pressure + 1)]
    fp_regs: List[Reg] = [F[i] for i in range(1, max(2, cfg.register_pressure - 2) + 1)]

    b = ProgramBuilder(f"fuzz_{seed}")
    with b.procedure("main"):
        # RVP003 cleanliness: define every working register up front.
        for reg in int_regs:
            b.li(reg, rng.randrange(0, 1 << 16))
        for reg in fp_regs:
            b.fli(reg, rng.randrange(0, 1 << 12))

        def emit_op() -> None:
            roll = rng.random()
            if roll < cfg.load_density:
                addr = rng.choice(ADDRESS_POOL)
                if rng.random() < 0.3:
                    b.fld(rng.choice(fp_regs), R[31], addr)
                else:
                    b.ld(rng.choice(int_regs), R[31], addr)
            elif roll < cfg.load_density + cfg.store_density:
                addr = rng.choice(ADDRESS_POOL)
                if rng.random() < 0.3:
                    b.fst(rng.choice(fp_regs), R[31], addr)
                else:
                    b.st(rng.choice(int_regs), R[31], addr)
            elif rng.random() < 0.25:
                op = rng.choice(_FP_OPS)
                b.emit(op, dst=rng.choice(fp_regs), src1=rng.choice(fp_regs), src2=rng.choice(fp_regs))
            else:
                op = rng.choice(_INT_OPS)
                dst, a = rng.choice(int_regs), rng.choice(int_regs)
                if rng.random() < 0.5:
                    b.emit(op, dst=dst, src1=a, src2=rng.choice(int_regs))
                else:
                    b.emit(op, dst=dst, src1=a, imm=rng.randrange(0, 64))

        def emit_run(limit: int) -> None:
            for _ in range(rng.randrange(1, limit + 1)):
                emit_op()

        def emit_segment(depth: int) -> None:
            if depth < cfg.loop_depth and rng.random() < 0.6:
                # Counted loop; the counter register is exclusive to this depth.
                counter = LOOP_COUNTERS[depth]
                label = b.fresh_label(f"loop_d{depth}")
                b.li(counter, rng.randrange(1, cfg.max_trips + 1))
                b.label(label)
                emit_run(cfg.ops_per_segment)
                if depth + 1 < cfg.loop_depth and rng.random() < 0.5:
                    emit_segment(depth + 1)
                b.subi(counter, counter, 1)
                b.bne(counter, label)
                return
            if rng.random() < cfg.branch_mix:
                # Guarded forward skip: both paths rejoin, everything reachable.
                skip = b.fresh_label("skip")
                b.emit(rng.choice(_BRANCH_OPS), src1=rng.choice(int_regs), target=skip)
                emit_run(max(1, cfg.ops_per_segment // 2))
                b.label(skip)
                return
            emit_run(cfg.ops_per_segment)

        for _ in range(rng.randrange(1, cfg.segments + 1)):
            emit_segment(0)
        b.halt()

    words = tuple((addr, rng.randrange(0, 1 << 20)) for addr in ADDRESS_POOL)
    return GeneratedCase(seed=seed, config=cfg, program=b.build(), memory_words=words)
