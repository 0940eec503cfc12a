"""Concrete dataflow facts per procedure: reaching defs, chains, reachability.

:class:`ProcedureFacts` bundles everything the verifier, the static reuse
estimator and web construction need about one procedure, computed lazily
and cached:

* **reaching definitions** — forward/union instance of the shared engine.
  A definition is ``(pc, reg)``; the procedure entry contributes a pseudo
  definition ``(None, reg)`` for every register (the calling convention says
  every register "arrives" at entry — arguments and callee-saved values
  meaningfully, volatile temporaries as garbage).
* **use-def / def-use chains** — per explicit operand slot, which defs reach
  it; and per definition, which operand slots consume it.
* **reachability** — blocks unreachable from the procedure entry.
* **available copies** — forward/intersection instance: ``(dst, src)`` pairs
  established by ``mov``/``fmov`` and still valid (neither side redefined)
  on *every* path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import networkx as nx

from ..compiler.liveness import LivenessInfo, compute_liveness
from ..isa.program import BasicBlock, Procedure, Program
from ..isa.registers import Reg
from .dataflow import FORWARD, INTERSECT, UNION, DataflowProblem, DataflowResult, solve
from .effects import ALL_REGS as _ALL_REGS
from .effects import defs_and_uses, explicit_uses

#: A definition: (pc, reg); pc is None for the procedure-entry pseudo-def.
DefId = Tuple[Optional[int], Reg]
#: A copy fact: dst currently holds the same value as src.
CopyFact = Tuple[Reg, Reg]

_COPY_OPS = ("mov", "fmov")


class ReachingDefsProblem(DataflowProblem):
    """Forward may-reaching-definitions over ``(pc, reg)`` facts."""

    direction = FORWARD
    meet = UNION

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


class AvailableCopiesProblem(DataflowProblem):
    """Forward must-availability of ``mov``/``fmov`` copy facts."""

    direction = FORWARD
    meet = INTERSECT

    def __init__(self, program: Program, proc: Procedure) -> None:
        self._gen: Dict[int, Set[CopyFact]] = {}
        self._defs_at: Dict[int, Set[Reg]] = {}
        all_copies: Set[CopyFact] = set()
        for pc in range(proc.start, proc.end):
            inst = program[pc]
            defs, _ = defs_and_uses(inst)
            self._defs_at[pc] = defs
            facts: Set[CopyFact] = set()
            if inst.op.name in _COPY_OPS and inst.writes is not None and inst.src1 is not None:
                if not inst.src1.is_zero and inst.writes != inst.src1:
                    facts.add((inst.writes, inst.src1))
            self._gen[pc] = facts
            all_copies |= facts
        self._universe = all_copies

    def gen(self, pc: int) -> Set[CopyFact]:
        return self._gen[pc]

    def kill(self, pc: int) -> Set[CopyFact]:
        defs = self._defs_at[pc]
        return {fact for fact in self._universe if fact[0] in defs or fact[1] in defs} - self._gen[pc]

    def universe(self) -> Set[CopyFact]:
        return self._universe


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
        self._copies: Optional[DataflowResult] = None
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

    @property
    def copies(self) -> DataflowResult:
        if self._copies is None:
            self._copies = solve(self.program, self.proc, AvailableCopiesProblem(self.program, self.proc))
        return self._copies

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

    def ud_chains(self) -> Dict[Tuple[int, str], FrozenSet[DefId]]:
        """(pc, slot) -> reaching definitions, for every explicit use."""
        chains: Dict[Tuple[int, str], FrozenSet[DefId]] = {}
        for pc in range(self.proc.start, self.proc.end):
            for use in self.use_sites(pc):
                chains[(pc, use.slot)] = self.reaching_defs_of_use(use)
        return chains

    def du_chains(self) -> Dict[DefId, Set[Tuple[int, str]]]:
        """Definition -> the explicit operand slots it (may) feed."""
        chains: Dict[DefId, Set[Tuple[int, str]]] = {}
        for (pc, slot), defs in self.ud_chains().items():
            for def_id in defs:
                chains.setdefault(def_id, set()).add((pc, slot))
        return chains

    def available_copies_at(self, pc: int) -> FrozenSet[CopyFact]:
        """Copies valid on every path into ``pc``."""
        return self.copies.in_facts[pc]

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
