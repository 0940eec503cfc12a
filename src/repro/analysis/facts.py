"""Concrete dataflow facts per procedure: reaching defs, chains, reachability.

:class:`ProcedureFacts` bundles everything the verifier and web
construction need about one procedure, computed lazily and cached:

* **reaching definitions** — forward/union instance of the shared engine.
  A definition is ``(pc, reg)``; the procedure entry contributes a pseudo
  definition ``(None, reg)`` for every register (the calling convention says
  every register "arrives" at entry — arguments and callee-saved values
  meaningfully, volatile temporaries as garbage).
* **use-def chains** — per explicit operand slot, which defs reach it.
* **reachability** — blocks unreachable from the procedure entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import networkx as nx

from ..compiler.liveness import LivenessInfo, compute_liveness
from ..isa.program import BasicBlock, Procedure, Program
from ..isa.registers import Reg
from .dataflow import FORWARD, DataflowProblem, DataflowResult, solve
from .effects import ALL_REGS as _ALL_REGS
from .effects import defs_and_uses, explicit_uses

#: A definition: (pc, reg); pc is None for the procedure-entry pseudo-def.
DefId = Tuple[Optional[int], Reg]


class ReachingDefsProblem(DataflowProblem):
    """Forward may-reaching-definitions over ``(pc, reg)`` facts."""

    direction = FORWARD

    def __init__(self, program: Program, proc: Procedure) -> None:
        self._defs_at: Dict[int, Set[Reg]] = {}
        defs_of_reg: Dict[Reg, Set[DefId]] = {reg: {(None, reg)} for reg in _ALL_REGS}
        for pc in range(proc.start, proc.end):
            defs, _ = defs_and_uses(program[pc])
            self._defs_at[pc] = defs
            for reg in defs:
                defs_of_reg.setdefault(reg, set()).add((pc, reg))
        self._defs_of_reg = defs_of_reg

    def gen(self, pc: int) -> Set[DefId]:
        return {(pc, reg) for reg in self._defs_at[pc]}

    def kill(self, pc: int) -> Set[DefId]:
        killed: Set[DefId] = set()
        for reg in self._defs_at[pc]:
            killed |= self._defs_of_reg[reg]
        return killed - self.gen(pc)

    def boundary(self) -> Set[DefId]:
        return {(None, reg) for reg in _ALL_REGS}


@dataclass
class UseSite:
    """One explicit register operand read."""

    pc: int
    slot: str  # 'src1' or 'src2'
    reg: Reg


class ProcedureFacts:
    """Lazily computed dataflow facts for one procedure."""

    def __init__(self, program: Program, proc: Procedure) -> None:
        self.program = program
        self.proc = proc
        self._liveness: Optional[LivenessInfo] = None
        self._reaching: Optional[DataflowResult] = None
        self._reachable: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Underlying solutions
    # ------------------------------------------------------------------
    @property
    def liveness(self) -> LivenessInfo:
        if self._liveness is None:
            self._liveness = compute_liveness(self.program, self.proc)
        return self._liveness

    @property
    def reaching(self) -> DataflowResult:
        if self._reaching is None:
            self._reaching = solve(self.program, self.proc, ReachingDefsProblem(self.program, self.proc))
        return self._reaching

    # ------------------------------------------------------------------
    # Chains
    # ------------------------------------------------------------------
    def use_sites(self, pc: int) -> List[UseSite]:
        inst = self.program[pc]
        sites: List[UseSite] = []
        if inst.src1 is not None and not inst.src1.is_zero:
            sites.append(UseSite(pc, "src1", inst.src1))
        if inst.src2 is not None and not inst.src2.is_zero:
            sites.append(UseSite(pc, "src2", inst.src2))
        return sites

    def reaching_defs_of_use(self, use: UseSite) -> FrozenSet[DefId]:
        """The definitions of ``use.reg`` that reach ``use.pc``."""
        return frozenset(
            (def_pc, reg) for def_pc, reg in self.reaching.in_facts[use.pc] if reg == use.reg
        )

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    @property
    def reachable_blocks(self) -> Set[int]:
        """Block starts reachable from the procedure entry."""
        if self._reachable is None:
            graph = self.program.cfg(self.proc)
            if self.proc.start in graph:
                self._reachable = {self.proc.start} | set(nx.descendants(graph, self.proc.start))
            else:
                self._reachable = set()
        return self._reachable

    def unreachable_blocks(self) -> List[BasicBlock]:
        reachable = self.reachable_blocks
        return [b for b in self.program.basic_blocks(self.proc) if b.start not in reachable]


class ProgramFacts:
    """Facts for every procedure of a program, computed on demand."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._by_proc: Dict[str, ProcedureFacts] = {}

    def for_proc(self, proc: Procedure) -> ProcedureFacts:
        facts = self._by_proc.get(proc.name)
        if facts is None:
            facts = self._by_proc[proc.name] = ProcedureFacts(self.program, proc)
        return facts

    def __iter__(self):
        for proc in self.program.procedures:
            yield self.for_proc(proc)
