"""``dotprod`` model — blocked integer dot product over correlated arrays.

Not one of the paper's nine SPEC95 programs: an extra integer kernel that
every runner and pass treats like the others.  The register assignment is
deliberately tight — the product reuses ``vb``'s register and the loop
test reuses it again — so the ``b`` load's destination is clobbered twice
per iteration.

Locality structure (what RVP sees):

* the ``a`` array is a run-length pool (:func:`repro.workloads.data.run_lengths`),
  so its load shows strong last-value reuse;
* the ``b`` array is a correlated copy of ``a`` shifted by one element, so
  ``b[i]`` frequently equals the value ``a`` loaded the previous iteration —
  dead/live-register correlation across the two load destinations;
* both pointers stride by the word size.
"""

from __future__ import annotations

import numpy as np

from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..isa.registers import R
from ..sim.memory import Memory
from .base import HEADER_BASE, SCRATCH_BASE, Workload
from . import data

_A = 0
_B = 1


class DotprodWorkload(Workload):
    name = "dotprod"
    category = "C"
    description = "Blocked dot product over correlated run-length arrays"

    def _build_program(self) -> Program:
        b = ProgramBuilder(self.name)
        with b.procedure("main"):
            b.li(R[0], HEADER_BASE)
            b.ld(R[6], R[0], 0)  # reps
            b.ld(R[4], R[0], 8)  # n
            b.li(R[3], self.array_base(_A))
            b.li(R[2], self.array_base(_B))
            b.li(R[5], 0)  # total
            b.label("outer")
            b.mov(R[8], R[3])  # pa
            b.mov(R[7], R[2])  # pb
            b.li(R[16], 0)  # i
            b.li(R[17], 0)  # acc
            b.label("inner")
            b.ld(R[1], R[8], 0)  # a[i]
            b.ld(R[0], R[7], 0)  # b[i]
            b.mul(R[0], R[1], R[0])
            b.add(R[17], R[17], R[0])
            b.add(R[8], R[8], 8)
            b.add(R[7], R[7], 8)
            b.add(R[16], R[16], 1)
            b.cmplt(R[0], R[16], R[4])
            b.bne(R[0], "inner")
            b.label("wrap")
            b.add(R[5], R[5], R[17])
            b.sub(R[6], R[6], 1)
            b.bne(R[6], "outer")
            b.label("end")
            b.li(R[0], SCRATCH_BASE)
            b.st(R[5], R[0], 0)
            b.halt()
        return b.build()

    def _populate_memory(self, memory: Memory, rng: np.random.Generator) -> None:
        n = self.n(96)
        reps = self.n(12)
        self.write_header(memory, reps, n)
        pool = [int(v) for v in rng.integers(1, 50, size=8)]
        a = data.run_lengths(rng, n, pool, mean_run=4.0)
        # b trails a by one element, so b's load usually matches the value
        # a's (by then dead) destination register held last iteration.
        shifted = a[-1:] + a[:-1]
        b = data.correlated_copy(rng, shifted, correlation=0.85)
        memory.write_words(self.array_base(_A), a)
        memory.write_words(self.array_base(_B), b)
