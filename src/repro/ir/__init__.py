"""SSA view of flat programs: raising and SSA construction.

The package has two layers:

* :mod:`repro.ir.nodes` — the data model (values, phis, blocks, functions);
* :mod:`repro.ir.ssa` — raising flat programs and SSA construction.

Its users are abstract interpretation (:mod:`repro.analysis.absint`, and
through it the verifier's RVP010–RVP013 and the static reuse
estimator), ``repro analyze --dump-ssa`` and the SSA tests.  The RVP passes
themselves (marking, insertion, stride shadows, Section 7.3 reallocation)
run on the flat program in :mod:`repro.compiler`; nothing lowers IR back
to the flat ISA.
"""

from .nodes import (
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
from .ssa import arch_vreg, raise_program, to_ssa

__all__ = [
    "Block",
    "IRError",
    "IRFunction",
    "IRInstr",
    "IRModule",
    "Phi",
    "Value",
    "VReg",
    "verify_ssa",
    "arch_vreg",
    "raise_program",
    "to_ssa",
]
