"""Profile-guided register reallocation (paper Section 7.3).

Starting from the dead-register and last-value profile lists, we support as
many register reuses as a *legal* register allocation allows:

* **Dead-register reuse** — "changing the register allocation of the
  destination of the current instruction to match that of the dead register":
  the candidate's definition web is recoloured to the register of the web
  that produced the matching value, provided the two live ranges do not
  conflict and no interfering web already holds that register.  Reuses whose
  producer lives in another procedure, or whose webs cross a calling-
  convention boundary, are abandoned — as in the paper.
* **Last-value reuse (LVR)** — the candidate's definition web must not share
  its register with any other definition in its innermost loop ("we create an
  interference edge with every instruction in the innermost loop containing
  the instruction").  If its current register is shared, it is moved to a
  register free of all those definitions — including the volatiles a
  ``jsr`` in the loop clobbers by convention; instructions not in a loop are
  abandoned.

When registers run out, reuses are removed in the paper's priority order:
LVR before dead-register reuse (heuristic 1), outer loops before inner
(heuristic 2), lowest critical-path contribution first (heuristic 3).  We
realise this by *applying* candidates in the reverse order — dead reuses
first, then LVR from the innermost loops and highest criticality down — so
that when a candidate finds no legal register it is exactly the one the
paper's pruning would have discarded.

Unlike a from-scratch Chaitin pass, the repair touches only candidate webs:
untouched code keeps its original registers, so reuse that already exists in
the input program is never collateral damage.  The final assignment is
verified against the augmented interference graph (RVP007) and the applied
LVR set (RVP008).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.effects import implicit_defs
from ..isa.instructions import Instruction
from ..isa.program import Procedure, Program
from ..isa.registers import ALLOCATABLE_FP, ALLOCATABLE_INT, Reg
from ..profiling.lists import ProfileLists
from .interference import build_interference
from .webs import WebAnalysis, build_webs

_POOLS = {"int": ALLOCATABLE_INT, "fp": ALLOCATABLE_FP}


@dataclass
class _DeadCandidate:
    pc: int
    def_web: int
    src_web: int
    critical: int


@dataclass
class _LvrCandidate:
    pc: int
    def_web: int
    loop_depth: int
    loop_def_webs: Set[int]
    #: registers any other loop instruction defines, implicit call
    #: clobbers included (the definition RVP008 checks against)
    loop_def_regs: Set[Reg]
    critical: int


@dataclass
class ReallocReport:
    """What happened to each profile-suggested reuse."""

    dead_attempted: int = 0
    dead_applied: int = 0
    dead_conflicting: int = 0  # live ranges / registers already conflict
    dead_foreign: int = 0  # producer in another procedure or fixed web
    lvr_attempted: int = 0
    lvr_applied: int = 0
    lvr_not_in_loop: int = 0
    lvr_shared: int = 0  # web shared with another loop definition
    pruned_for_coloring: int = 0  # no exclusive register available
    #: pcs whose destination became loop-exclusive (applied LVR); the
    #: verifier re-checks exclusivity from these (rule RVP008).
    lvr_pcs: Set[int] = field(default_factory=set)

    def merged(self, other: "ReallocReport") -> "ReallocReport":
        result = ReallocReport()
        for name in vars(result):
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(result, name, mine | theirs if isinstance(mine, set) else mine + theirs)
        return result


def reallocate(
    program: Program,
    lists: ProfileLists,
    critical: Optional[Counter] = None,
) -> Tuple[Program, ReallocReport]:
    """Apply Section 7.3 reallocation; returns (new program, report).

    Postcondition: the rewritten program passes the verifier, including
    RVP007 (every recoloured web respects the pre-rewrite interference graph)
    and RVP008 (applied LVR registers are genuinely loop-exclusive).
    """
    critical = critical or Counter()
    total = ReallocReport()
    rewrites: Dict[int, Instruction] = {}
    checks = []
    for proc in program.procedures:
        proc_rewrites, report, check = _reallocate_procedure(program, proc, lists, critical)
        rewrites.update(proc_rewrites)
        checks.append(check)
        total = total.merged(report)

    def rewrite(inst: Instruction) -> Instruction:
        return rewrites.get(inst.pc, inst)

    result = program.rewrite(rewrite, name=f"{program.name}+realloc")

    from ..analysis.verifier import check_program

    check_program(
        result,
        source=f"reallocate({program.name})",
        lists=lists,
        lvr_pcs=total.lvr_pcs,
        allocations=checks,
        baseline=program,
    )
    return result, total


def _reallocate_procedure(
    program: Program,
    proc: Procedure,
    lists: ProfileLists,
    critical: Counter,
) -> Tuple[Dict[int, Instruction], ReallocReport, "AllocationCheck"]:
    # Imported here: analysis.verifier imports compiler.liveness, so a
    # module-level import would cycle through the package __init__.
    from ..analysis.verifier import AllocationCheck

    report = ReallocReport()
    analysis = build_webs(program, proc)
    adjacency = build_interference(analysis.webs)
    webs = analysis.webs

    assignment: Dict[int, Reg] = {web.index: web.reg for web in webs}
    #: extra exclusivity edges added by applied LVR candidates
    extra_edges: Dict[int, Set[int]] = {}

    def neighbours(index: int) -> Set[int]:
        return adjacency.get(index, set()) | extra_edges.get(index, set())

    def colors_near(index: int) -> Set[Reg]:
        return {assignment[n] for n in neighbours(index)}

    # ------------------------------------------------------------------
    # Dead-register reuses first (they survive pruning longest, so they get
    # first pick of the registers).  Most valuable (critical) first.
    # ------------------------------------------------------------------
    dead_candidates = _collect_dead_candidates(proc, lists, analysis, adjacency, critical, report)
    dead_moved: Set[int] = set()
    for cand in sorted(dead_candidates, key=lambda c: -c.critical):
        target = assignment[cand.src_web]
        if target in colors_near(cand.def_web):
            report.dead_conflicting += 1
            continue
        assignment[cand.def_web] = target
        dead_moved.add(cand.def_web)
        report.dead_applied += 1

    # ------------------------------------------------------------------
    # LVR candidates: innermost loops and highest criticality first, so that
    # if registers run out, the abandoned ones are the outer-loop /
    # non-critical reuses (paper heuristics 2 and 3).
    # ------------------------------------------------------------------
    lvr_candidates = _collect_lvr_candidates(program, proc, lists, analysis, critical, report)
    used_colors = {assignment[web.index] for web in webs}
    for cand in sorted(lvr_candidates, key=lambda c: (-c.loop_depth, -c.critical)):
        if cand.def_web in dead_moved:
            continue  # already placed by a dead-register merge
        exclusion = cand.loop_def_webs | neighbours(cand.def_web)
        taken = {assignment[n] for n in exclusion} | cand.loop_def_regs
        current = assignment[cand.def_web]
        if current not in taken:
            chosen: Optional[Reg] = current
        else:
            pool = _POOLS[webs[cand.def_web].kind]
            # Prefer a register unused anywhere in the procedure, to avoid
            # creating new sharing; fall back to any legal register.
            chosen = next((r for r in pool if r not in taken and r not in used_colors), None)
            if chosen is None:
                chosen = next((r for r in pool if r not in taken), None)
        if chosen is None:
            report.pruned_for_coloring += 1
            continue
        assignment[cand.def_web] = chosen
        used_colors.add(chosen)
        for other in cand.loop_def_webs:
            extra_edges.setdefault(cand.def_web, set()).add(other)
            extra_edges.setdefault(other, set()).add(cand.def_web)
        report.lvr_applied += 1
        report.lvr_pcs.add(cand.pc)

    # The legality of every move is re-established by the RVP007/RVP008
    # postcondition in :func:`reallocate`, which sees this context.
    merged_adjacency = {
        web.index: adjacency.get(web.index, set()) | extra_edges.get(web.index, set())
        for web in webs
    }
    check = AllocationCheck(
        proc_name=proc.name,
        webs=webs,
        adjacency=merged_adjacency,
        assignment=dict(assignment),
    )

    changed = {index for index, reg in assignment.items() if reg != webs[index].reg}
    if not changed:
        return {}, report, check

    rewrites: Dict[int, Instruction] = {}
    for pc in range(proc.start, proc.end):
        inst = program[pc]
        new_dst, new_src1, new_src2 = inst.dst, inst.src1, inst.src2
        web = analysis.web_of_def(pc)
        if web is not None and web.index in changed:
            new_dst = assignment[web.index]
        use1 = analysis.web_of_use(pc, "src1")
        if use1 is not None and use1.index in changed:
            new_src1 = assignment[use1.index]
        use2 = analysis.web_of_use(pc, "src2")
        if use2 is not None and use2.index in changed:
            new_src2 = assignment[use2.index]
        if (new_dst, new_src1, new_src2) != (inst.dst, inst.src1, inst.src2):
            rewrites[pc] = replace(inst, dst=new_dst, src1=new_src1, src2=new_src2)
    return rewrites, report, check


def _collect_dead_candidates(
    proc: Procedure,
    lists: ProfileLists,
    analysis: WebAnalysis,
    adjacency: Dict[int, Set[int]],
    critical: Counter,
    report: ReallocReport,
) -> List[_DeadCandidate]:
    candidates: List[_DeadCandidate] = []
    for pc, hint in sorted(lists.dead.items()):
        if pc not in proc:
            continue
        if pc in lists.same:
            continue  # already reusing; nothing to do
        report.dead_attempted += 1
        def_web = analysis.web_of_def(pc)
        if def_web is None or def_web.fixed:
            report.dead_foreign += 1
            continue
        if hint.producer_pc is None or hint.producer_pc not in proc:
            report.dead_foreign += 1  # produced in another procedure
            continue
        src_web = analysis.web_of_def(hint.producer_pc)
        if (
            src_web is None
            or src_web.fixed
            or src_web.kind != def_web.kind
            or src_web.reg != hint.reg
            or src_web.index == def_web.index
        ):
            report.dead_foreign += 1
            continue
        if src_web.index in adjacency.get(def_web.index, ()):
            report.dead_conflicting += 1  # live ranges already conflict
            continue
        candidates.append(
            _DeadCandidate(pc=pc, def_web=def_web.index, src_web=src_web.index, critical=critical.get(pc, 0))
        )
    return candidates


def _collect_lvr_candidates(
    program: Program,
    proc: Procedure,
    lists: ProfileLists,
    analysis: WebAnalysis,
    critical: Counter,
    report: ReallocReport,
) -> List[_LvrCandidate]:
    candidates: List[_LvrCandidate] = []
    for pc in sorted(lists.last_value):
        if pc not in proc or pc in lists.same:
            continue
        report.lvr_attempted += 1
        def_web = analysis.web_of_def(pc)
        if def_web is None or def_web.fixed:
            report.lvr_not_in_loop += 1
            continue
        loop = program.innermost_loop(pc)
        if loop is None:
            report.lvr_not_in_loop += 1  # abandoned: not in a loop
            continue
        loop_webs: Set[int] = set()
        loop_regs: Set[Reg] = set()
        shared = False
        for other_pc in loop.body:
            if other_pc == pc:
                continue
            loop_regs |= implicit_defs(program[other_pc])
            other_web = analysis.web_of_def(other_pc)
            if other_web is None or other_web.kind != def_web.kind:
                continue
            if other_web.index == def_web.index:
                shared = True  # another loop definition shares the web
                break
            loop_webs.add(other_web.index)
        if shared:
            report.lvr_shared += 1
            continue
        candidates.append(
            _LvrCandidate(
                pc=pc,
                def_web=def_web.index,
                loop_depth=loop.depth,
                loop_def_webs=loop_webs,
                loop_def_regs=loop_regs,
                critical=critical.get(pc, 0),
            )
        )
    return candidates
