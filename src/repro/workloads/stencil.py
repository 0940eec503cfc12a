"""``stencil`` model — 1-D three-point FP stencil sweeps.

The floating-point companion to :mod:`repro.workloads.dotprod`, likewise
an extra kernel outside the paper's nine: ping-pong buffer pointers
(swapped every sweep through a scratch register) and a sliding window of
three neighbour loads, whose registers the arithmetic reuses as soon as
each load's value is consumed.

Locality structure: the grid is a quantised smooth field with zero-padded
boundary runs (:func:`repro.workloads.data.smooth_field`), so the three
neighbour loads show the F-SPEC pattern — heavy last-value and
group-constant reuse, with each load's value frequently sitting in one of
the *other* window registers from the previous iteration (dead-register
correlation across the sliding window).
"""

from __future__ import annotations

import numpy as np

from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..isa.registers import F, R
from ..sim.memory import Memory
from .base import HEADER_BASE, SCRATCH_BASE, Workload
from . import data

_SRC = 0
_DST = 1


class StencilWorkload(Workload):
    name = "stencil"
    category = "F"
    description = "Ping-pong 3-point stencil over a smooth zero-padded grid"

    def _build_program(self) -> Program:
        b = ProgramBuilder(self.name)
        with b.procedure("main"):
            b.li(R[0], HEADER_BASE)
            b.ld(R[2], R[0], 0)  # sweeps
            b.ld(R[1], R[0], 8)  # interior points (n - 2)
            b.li(R[3], self.array_base(_SRC))  # src
            b.li(R[6], self.array_base(_DST))  # dst
            b.fli(F[0], 1)  # w0
            b.fli(F[3], 2)  # w1
            b.label("sweep")
            b.add(R[4], R[3], 8)  # p: first interior point
            b.add(R[0], R[6], 8)  # q
            b.mov(R[5], R[1])  # i
            b.label("point")
            b.fld(F[1], R[4], -8)  # left
            b.fld(F[2], R[4], 0)  # mid
            b.fld(F[0], R[4], 8)  # right
            b.fadd(F[1], F[1], F[0])
            b.fmul(F[0], F[2], F[3])
            b.fadd(F[0], F[1], F[0])
            b.fst(F[0], R[0], 0)
            b.add(R[4], R[4], 8)
            b.add(R[0], R[0], 8)
            b.sub(R[5], R[5], 1)
            b.bne(R[5], "point")
            b.label("swap")
            b.mov(R[0], R[3])
            b.mov(R[3], R[6])
            b.mov(R[6], R[0])
            b.sub(R[2], R[2], 1)
            b.bne(R[2], "sweep")
            b.label("end")
            b.li(R[0], SCRATCH_BASE)
            b.st(R[3], R[0], 0)  # which buffer holds the final field
            b.halt()
        return b.build()

    def _populate_memory(self, memory: Memory, rng: np.random.Generator) -> None:
        n = self.n(68)
        sweeps = self.n(13)
        self.write_header(memory, sweeps, n - 2)
        grid = data.smooth_field(rng, n, levels=8, step_prob=0.12, zero_frac=0.2)
        grid[0] = grid[-1] = 0  # fixed boundary
        memory.write_words(self.array_base(_SRC), grid)
        # The destination buffer starts as a copy so boundary cells (never
        # written by the sweep) stay consistent after the ping-pong swap.
        memory.write_words(self.array_base(_DST), grid)
