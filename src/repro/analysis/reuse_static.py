"""Profile-free estimation of the paper's reuse classes from dataflow alone.

The Figure-1 analysis profiles a *dynamic* trace to find loads whose result
is already in a register (same-register / dead-register reuse) or equals the
load's previous result (last-value).  Echoing the static-reuse-estimation
direction of arXiv:2509.18684, :class:`StaticReuseEstimator` derives the
same classes from the CFG and dataflow facts, with no trace at all:

* **same-register** — a load in a loop whose address is loop-invariant (no
  definition of the base register inside the loop), whose destination has no
  other definition in the loop, and whose loop contains no store (memory is
  loop-invariant): from the second iteration on, the destination already
  holds the loaded value.
* **last-value** — loop-invariant address and memory, but the destination is
  clobbered by another definition in the loop: the value repeats while the
  register does not retain it.
* **dead-register** — the loaded value provably lives in another
  same-class register that is dead at the load: either a must-available
  ``mov`` copy of the destination that survives around the back edge, or a
  second load of the same (base, offset) address, whose holder register is
  not live-in at the candidate.
* **none** — nothing provable (including every load outside loops: cross-
  invocation reuse is invisible to a per-procedure static analysis).

Memory invariance uses a base-register may-alias heuristic: a store is
assumed to clobber a load only when both address through the *same base
register* (exactly matching offsets when that base is loop-invariant).
Distinct base registers are assumed to address distinct objects — unsound
in general, standard for allocation-free address analysis, and explicitly
an *estimate*: ``repro lint --reuse-report`` puts these static numbers side
by side with the profiled truth per workload, and the gap (value-identical
data, input-dependent invariance, cross-procedure reuse) is the point of
the comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..isa.program import Loop, Procedure, Program
from ..isa.registers import Reg
from .facts import ProcedureFacts, ProgramFacts


class ReuseClass(enum.Enum):
    SAME = "same"
    DEAD = "dead"
    LAST_VALUE = "last_value"
    NONE = "none"


@dataclass
class LoadClassification:
    """Static verdict for one load."""

    pc: int
    reuse: ReuseClass
    reason: str
    #: dead-register source, when reuse is DEAD
    source_reg: Optional[Reg] = None
    #: sibling load supplying the dead register, when one exists (lets the
    #: soundness oracle replay the exact argument behind the verdict)
    source_pc: Optional[int] = None


@dataclass
class StaticReuseEstimate:
    """Per-load classifications plus aggregate counts."""

    program_name: str
    loads: Dict[int, LoadClassification] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        counts = {cls.value: 0 for cls in ReuseClass}
        for verdict in self.loads.values():
            counts[verdict.reuse.value] += 1
        return counts

    def pcs_of(self, reuse: ReuseClass) -> Set[int]:
        return {pc for pc, v in self.loads.items() if v.reuse is reuse}


class StaticReuseEstimator:
    """Classify every static load of a program into reuse classes."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.facts = ProgramFacts(program)
        #: per-loop def-site cache: every load in a loop shares the same
        #: def map, so compute it once per loop rather than once per load.
        self._loop_defs: Dict[Loop, Dict[Reg, Set[int]]] = {}

    # ------------------------------------------------------------------
    def estimate(self) -> StaticReuseEstimate:
        estimate = StaticReuseEstimate(self.program.name)
        for proc in self.program.procedures:
            facts = self.facts.for_proc(proc)
            for pc in range(proc.start, proc.end):
                inst = self.program[pc]
                if not inst.is_load:
                    continue
                estimate.loads[pc] = self._classify(facts, pc)
        return estimate

    # ------------------------------------------------------------------
    def _classify(self, facts: ProcedureFacts, pc: int) -> LoadClassification:
        program = self.program
        inst = program[pc]
        loop = program.innermost_loop(pc)
        if loop is None:
            return LoadClassification(pc, ReuseClass.NONE, "not inside a loop")
        if inst.dst is None or inst.src1 is None:
            return LoadClassification(pc, ReuseClass.NONE, "malformed load")

        defs_in_loop = self._defs_in_loop(loop)
        base_invariant = self._address_invariant(loop, pc, defs_in_loop)
        memory_invariant = self._memory_invariant(loop, pc, defs_in_loop)
        if not (base_invariant and memory_invariant):
            # The repeating-value argument needs both; a dead copy of a
            # varying value is still checked below.
            dead = self._dead_holder(facts, pc, loop, defs_in_loop, value_repeats=False)
            if dead is not None:
                return dead
            why = "address varies in loop" if not base_invariant else "loop contains a store"
            return LoadClassification(pc, ReuseClass.NONE, why)

        dst_redefined = any(other_pc != pc for other_pc in defs_in_loop.get(inst.dst, ()))
        if not dst_redefined and not inst.dst.is_zero:
            return LoadClassification(
                pc, ReuseClass.SAME, "invariant address and destination untouched in loop"
            )
        dead = self._dead_holder(facts, pc, loop, defs_in_loop, value_repeats=True)
        if dead is not None:
            return dead
        return LoadClassification(
            pc, ReuseClass.LAST_VALUE, "invariant address but destination clobbered in loop"
        )

    # ------------------------------------------------------------------
    # Overridable judgement hooks (the symbolic estimator replaces these
    # register-name arguments with SSA-level symbolic-address facts).
    # ------------------------------------------------------------------
    def _address_invariant(self, loop: Loop, pc: int, defs_in_loop: Dict[Reg, Set[int]]) -> bool:
        """Is the load's address the same on every iteration of ``loop``?"""
        base = self.program[pc].src1
        return base.is_zero or base not in defs_in_loop

    def _memory_invariant(self, loop: Loop, pc: int, defs_in_loop: Dict[Reg, Set[int]]) -> bool:
        """Can no store in ``loop`` change what the load at ``pc`` reads?"""
        inst = self.program[pc]
        return not self._store_may_clobber(loop, inst.src1, inst.imm, defs_in_loop)

    def _sibling_shares_address(
        self, loop: Loop, pc: int, other_pc: int, defs_in_loop: Dict[Reg, Set[int]]
    ) -> bool:
        """Do the loads at ``pc`` and ``other_pc`` read the same unclobbered cell?"""
        inst, other = self.program[pc], self.program[other_pc]
        if other.src1 != inst.src1 or (other.imm or 0) != (inst.imm or 0):
            return False
        if other.src1 is not None and not other.src1.is_zero and other.src1 in defs_in_loop:
            return False  # address register varies between the two loads
        if self._store_may_clobber(loop, other.src1, other.imm, defs_in_loop):
            return False  # memory may change between the sibling loads
        return True

    # ------------------------------------------------------------------
    def _defs_in_loop(self, loop: Loop) -> Dict[Reg, Set[int]]:
        """Explicitly defined registers inside the loop body -> defining pcs."""
        cached = self._loop_defs.get(loop)
        if cached is not None:
            return cached
        defs: Dict[Reg, Set[int]] = {}
        for pc in loop.body:
            written = self.program[pc].writes
            if written is not None:
                defs.setdefault(written, set()).add(pc)
        self._loop_defs[loop] = defs
        return defs

    def _store_may_clobber(
        self, loop: Loop, base: Reg, offset: Optional[int], defs_in_loop: Dict[Reg, Set[int]]
    ) -> bool:
        """May-alias heuristic: only same-base stores clobber ``offset(base)``.

        When the shared base register varies inside the loop, any offset may
        collide across iterations; when it is invariant, only the exact
        offset does.  Stores through a different base register are assumed
        to address a different object (see module docstring).
        """
        base_varies = not base.is_zero and base in defs_in_loop
        for pc in loop.body:
            store = self.program[pc]
            if not store.is_store or store.src1 != base:
                continue
            # store.src1 == base here, so base_varies already answers
            # "does this store's address register vary in the loop".
            if base_varies:
                return True
            if (store.imm or 0) == (offset or 0):
                return True
        return False

    def _dead_holder(
        self,
        facts: ProcedureFacts,
        pc: int,
        loop: Loop,
        defs_in_loop: Dict[Reg, Set[int]],
        value_repeats: bool,
    ) -> Optional[LoadClassification]:
        """A same-class register provably holding the load's value, dead at pc."""
        inst = self.program[pc]
        dst = inst.dst
        live_in = facts.liveness.live_in[pc]

        if value_repeats:
            # A must-available copy of the destination surviving to the load
            # holds the previous (== next) loaded value.
            for holder, src in facts.available_copies_at(pc):
                if src == dst and holder.kind == dst.kind and holder != dst and holder not in live_in:
                    return LoadClassification(
                        pc, ReuseClass.DEAD,
                        f"copy of destination survives in dead {holder.name}",
                        source_reg=holder,
                    )
        # A sibling load of the same invariant (base, offset) in the loop
        # leaves the value in its own destination.
        for other_pc in sorted(loop.body):
            other = self.program[other_pc]
            if other_pc == pc or not other.is_load or other.dst is None:
                continue
            if dst is None or other.dst == dst or other.dst.kind != dst.kind:
                continue
            if not self._sibling_shares_address(loop, pc, other_pc, defs_in_loop):
                continue
            holder = other.dst
            if any(other_def != other_pc for other_def in defs_in_loop.get(holder, ())):
                continue  # holder clobbered elsewhere in the loop
            if holder not in live_in:
                return LoadClassification(
                    pc, ReuseClass.DEAD,
                    f"sibling load at pc {other_pc} leaves value in dead {holder.name}",
                    source_reg=holder,
                    source_pc=other_pc,
                )
        return None


# ----------------------------------------------------------------------
# Comparison against the profiled numbers
# ----------------------------------------------------------------------
def compare_with_profile(
    estimate: StaticReuseEstimate,
    profile,  # ReuseProfile
    lists,  # ProfileLists
    min_count: int = 8,
) -> Dict[str, object]:
    """Static estimate vs profiled truth, per reuse class.

    Returns a JSON-friendly dict: static counts, profiled-list counts over
    the same loads, per-class overlap, and dynamic-weighted fractions
    (static classes weighted by each site's profiled execution count,
    against the profiled Figure-1 fractions).
    """
    sites = {pc: s for pc, s in profile.sites.items() if s.is_load and s.count >= min_count}
    judged = {pc: v for pc, v in estimate.loads.items() if pc in sites}

    def overlap(static_pcs: Set[int], profiled_pcs: Set[int]) -> Dict[str, int]:
        return {
            "static": len(static_pcs),
            "profiled": len(profiled_pcs),
            "both": len(static_pcs & profiled_pcs),
        }

    static_same = {pc for pc, v in judged.items() if v.reuse is ReuseClass.SAME}
    static_dead = {pc for pc, v in judged.items() if v.reuse is ReuseClass.DEAD}
    static_lv = {pc for pc, v in judged.items() if v.reuse is ReuseClass.LAST_VALUE}
    profiled_same = {pc for pc in lists.same if pc in sites}
    profiled_dead = {pc for pc in lists.dead if pc in sites}
    profiled_lv = {pc for pc in lists.last_value if pc in sites}

    total_weight = sum(s.count for s in sites.values()) or 1
    weighted = {
        cls.value: sum(sites[pc].count for pc, v in judged.items() if v.reuse is cls) / total_weight
        for cls in (ReuseClass.SAME, ReuseClass.DEAD, ReuseClass.LAST_VALUE)
    }

    return {
        "program": estimate.program_name,
        "static_loads": len(estimate.loads),
        "judged_loads": len(judged),
        "static_counts": estimate.counts(),
        "overlap": {
            "same": overlap(static_same, profiled_same),
            "dead": overlap(static_dead, profiled_dead),
            "last_value": overlap(static_lv, profiled_lv),
        },
        "weighted_static_fractions": weighted,
        "profiled_fig1_fractions": profile.fig1.fractions(),
    }
