"""SSA compiler mid-end: programmatic IR, allocation, and lowering.

The package splits into layers:

* :mod:`repro.ir.nodes` — the data model (values, phis, blocks, functions);
* :mod:`repro.ir.ssa` — raising flat programs and SSA construction;
* :mod:`repro.ir.liveness` — tick-grain value liveness;
* :mod:`repro.ir.regalloc` — coalescing, colouring (reusing the flat
  Chaitin–Briggs machinery) and spilling;
* :mod:`repro.ir.lower` — SSA destruction and emission back to the flat ISA;
* :mod:`repro.ir.builder` — the programmatic front end;
* :mod:`repro.ir.equiv` — trace-equivalence checking for round trips.

Its users are abstract interpretation (:mod:`repro.analysis.absint`), the
IR-authored workloads, ``repro ir`` and the IR fuzz front end.  The RVP
passes themselves (marking, insertion, stride shadows, Section 7.3
reallocation) run on the flat program in :mod:`repro.compiler`.
"""

from .builder import IRBuilder
from .equiv import EquivalenceReport, check_equivalence, roundtrip
from .liveness import ENTRY_TICK, ValueLiveness, value_liveness
from .lower import LoweringResult, lower_module, sequence_copies
from .nodes import (
    FP,
    INT,
    Block,
    IRError,
    IRFunction,
    IRInstr,
    IRModule,
    Phi,
    Value,
    VReg,
    verify_ssa,
)
from .regalloc import SPILL_BASE, SPILL_END, AllocationResult, SpillSlots, allocate
from .ssa import arch_vreg, raise_program, to_ssa

__all__ = [
    "IRBuilder",
    "EquivalenceReport",
    "check_equivalence",
    "roundtrip",
    "ENTRY_TICK",
    "ValueLiveness",
    "value_liveness",
    "LoweringResult",
    "lower_module",
    "sequence_copies",
    "FP",
    "INT",
    "Block",
    "IRError",
    "IRFunction",
    "IRInstr",
    "IRModule",
    "Phi",
    "Value",
    "VReg",
    "verify_ssa",
    "SPILL_BASE",
    "SPILL_END",
    "AllocationResult",
    "SpillSlots",
    "allocate",
    "arch_vreg",
    "raise_program",
    "to_ssa",
]
