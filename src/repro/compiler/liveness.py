"""Per-procedure liveness dataflow.

Per-instruction definitions and uses — including the Section 7.3
calling-convention implicit effects — come from the canonical
:mod:`repro.analysis.effects` module; this module layers the backward
dataflow on top of them.  Implicit defs/uses are what pins
boundary-crossing webs to their original registers during reallocation.

Liveness itself is an instance of the shared CFG dataflow engine
(:mod:`repro.analysis.dataflow`): a backward *may* (union) problem with
``gen = uses`` and ``kill = defs`` per instruction.  Exit live-outs are the
empty boundary set — the convention's exit uses are modelled as uses *of the
exit instruction*, so the dataflow boundary itself carries nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from ..analysis.dataflow import BACKWARD, DataflowProblem, solve
from ..analysis.effects import (
    ALL_REGS as _ALL_REGS,
    CALL_USES as _CALL_USES,
    EXIT_USES as _EXIT_USES,
    NONVOLATILES as _NONVOLATILES,
    VOLATILES as _VOLATILES,
    defs_and_uses,
    explicit_defs,
    explicit_uses,
)
from ..isa.program import Procedure, Program
from ..isa.registers import Reg


class LivenessProblem(DataflowProblem):
    """Backward may-liveness: gen = uses, kill = defs, empty exit boundary."""

    direction = BACKWARD

    def __init__(self, program: Program, proc: Procedure) -> None:
        self._effects: Dict[int, Tuple[Set[Reg], Set[Reg]]] = {
            pc: defs_and_uses(program[pc]) for pc in range(proc.start, proc.end)
        }

    def gen(self, pc: int) -> Set[Reg]:
        return self._effects[pc][1]

    def kill(self, pc: int) -> Set[Reg]:
        return self._effects[pc][0]


@dataclass
class LivenessInfo:
    """Liveness facts for one procedure, indexed by pc."""

    proc: Procedure
    live_in: Dict[int, FrozenSet[Reg]]
    live_out: Dict[int, FrozenSet[Reg]]

    def is_live_in(self, pc: int, reg: Reg) -> bool:
        return reg in self.live_in[pc]

    def is_live_out(self, pc: int, reg: Reg) -> bool:
        return reg in self.live_out[pc]


def compute_liveness(program: Program, proc: Procedure) -> LivenessInfo:
    """Backward may-liveness over the procedure CFG, to instruction grain."""
    result = solve(program, proc, LivenessProblem(program, proc))
    return LivenessInfo(proc=proc, live_in=result.in_facts, live_out=result.out_facts)
