"""Webs (du-chain unions): the allocation units of the Chaitin allocator.

A *web* is the maximal set of definitions and uses of one architectural
register connected through reaching definitions — the unit that can be
renamed to a different register without changing program semantics.  The
Section 7.3 reallocator merges webs ("combine the live ranges") to realise
dead-register reuse, so we need real webs, not whole-register live ranges.

Webs are read off the shared reaching-definitions solution
(:class:`repro.analysis.facts.ProcedureFacts`): every use unions the
definitions that reach it, and a web is live wherever its register is live
and one of its definitions reaches.

Implicit definitions (procedure entry, call clobbers) and implicit uses
(call argument registers, procedure-exit non-volatiles) participate in web
construction and mark their webs *fixed*: those values cross a convention
boundary and must keep their original register.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.effects import defs_and_uses, explicit_defs, implicit_uses
from ..isa.program import Procedure, Program
from ..isa.registers import ALLOCATABLE_FP, ALLOCATABLE_INT, Reg

_ALLOCATABLE = set(ALLOCATABLE_INT) | set(ALLOCATABLE_FP)


@dataclass
class Web:
    """One allocation unit."""

    index: int
    reg: Reg
    def_pcs: Set[int] = field(default_factory=set)  # explicit defs
    use_sites: Set[Tuple[int, str]] = field(default_factory=set)  # (pc, slot)
    live_pcs: Set[int] = field(default_factory=set)
    fixed: bool = False  # must keep its original register

    @property
    def kind(self) -> str:
        return self.reg.kind


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}

    def add(self, item: int) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


@dataclass
class WebAnalysis:
    """Webs of one procedure plus operand resolution maps."""

    proc: Procedure
    webs: List[Web]
    #: (pc, slot) -> web index, for slots 'src1'/'src2'; dst slot is 'dst'.
    slot_web: Dict[Tuple[int, str], int]

    def web_of_def(self, pc: int) -> Optional[Web]:
        index = self.slot_web.get((pc, "dst"))
        return self.webs[index] if index is not None else None

    def web_of_use(self, pc: int, slot: str) -> Optional[Web]:
        index = self.slot_web.get((pc, slot))
        return self.webs[index] if index is not None else None


def build_webs(program: Program, proc: Procedure) -> WebAnalysis:
    """Web construction for one procedure, over its reaching definitions."""
    # Imported here: analysis.facts imports compiler.liveness, so a
    # module-level import would cycle through the package __init__.
    from ..analysis.facts import ProcedureFacts

    facts = ProcedureFacts(program, proc)
    reaching = facts.reaching.in_facts
    live_in = facts.liveness.live_in

    # --- enumerate definitions -------------------------------------------
    # def id -> (pc or None for entry, reg, implicit?)
    defs: List[Tuple[Optional[int], Reg, bool]] = []
    #: the solver's (pc, reg) definition -> def id
    def_ids: Dict[Tuple[Optional[int], Reg], int] = {}

    def new_def(pc: Optional[int], reg: Reg, implicit: bool) -> None:
        def_ids[(pc, reg)] = len(defs)
        defs.append((pc, reg, implicit))

    for pc in range(proc.start, proc.end):
        inst = program[pc]
        all_defs, all_uses = defs_and_uses(inst)
        explicit = explicit_defs(inst)
        for reg in all_defs:
            new_def(pc, reg, reg not in explicit)
        # An entry def for every register read anywhere: at a join where one
        # path defines the register and another reaches it straight from
        # procedure entry (e.g. a loop body read on the first iteration), the
        # use's web must be pinned, not just the in-loop definition's.
        for reg in all_uses:
            if not reg.is_zero and (None, reg) not in def_ids:
                new_def(None, reg, True)

    # --- union defs through uses ------------------------------------------
    uf = _UnionFind()
    for def_id in range(len(defs)):
        uf.add(def_id)
    use_webs: Dict[Tuple[int, str], int] = {}
    implicit_use_defs: Set[int] = set()
    live_defs: List[Tuple[int, Set[int]]] = []

    for pc in range(proc.start, proc.end):
        # The definitions reaching pc, grouped by register once per pc.
        reach: Dict[Reg, Set[int]] = {}
        for fact in reaching[pc]:
            def_id = def_ids.get(fact)
            if def_id is not None:
                reach.setdefault(fact[1], set()).add(def_id)

        def reaching_ids(reg: Reg) -> Set[int]:
            # No def on any path (unreachable code): the entry value reaches.
            return reach.get(reg) or {def_ids[(None, reg)]}

        uses = facts.use_sites(pc)
        for use in uses:
            ids = reaching_ids(use.reg)
            use_webs[(pc, use.slot)] = next(iter(ids))
            _union_all(uf, ids)
        for reg in implicit_uses(program[pc]) - {use.reg for use in uses}:
            # Implicit use (call args, exit non-volatiles): union and pin.
            ids = reaching_ids(reg)
            implicit_use_defs |= ids
            _union_all(uf, ids)
        # A web is live at pc if its register is live-in and one of the web's
        # defs reaches pc.
        live_defs.extend((pc, reaching_ids(reg)) for reg in live_in[pc])

    # --- materialise webs ---------------------------------------------------
    root_to_web: Dict[int, int] = {}
    webs: List[Web] = []
    for def_id, (pc, reg, implicit) in enumerate(defs):
        root = uf.find(def_id)
        if root not in root_to_web:
            root_to_web[root] = len(webs)
            webs.append(Web(index=len(webs), reg=reg))
        web = webs[root_to_web[root]]
        if implicit:
            web.fixed = True
        else:
            web.def_pcs.add(pc)

    def web_of(def_id: int) -> Web:
        return webs[root_to_web[uf.find(def_id)]]

    for def_id in implicit_use_defs:
        web_of(def_id).fixed = True
    for web in webs:
        if web.reg not in _ALLOCATABLE:
            web.fixed = True

    slot_web: Dict[Tuple[int, str], int] = {}
    for (pc, slot), def_id in use_webs.items():
        web = web_of(def_id)
        slot_web[(pc, slot)] = web.index
        web.use_sites.add((pc, slot))
    for pc in range(proc.start, proc.end):
        dst = program[pc].writes
        if dst is not None:
            slot_web[(pc, "dst")] = web_of(def_ids[(pc, dst)]).index

    for pc, ids in live_defs:
        for def_id in ids:
            web_of(def_id).live_pcs.add(pc)
    # Include def points so two defs at the same point conflict.
    for web in webs:
        web.live_pcs |= web.def_pcs

    return WebAnalysis(proc=proc, webs=webs, slot_web=slot_web)


def _union_all(uf: _UnionFind, ids: Set[int]) -> None:
    first = next(iter(ids))
    for other in ids:
        uf.union(first, other)
