"""Profile-free estimation of the paper's reuse classes.

The Figure-1 analysis profiles a *dynamic* trace to find loads whose result
is already in a register (same-register / dead-register reuse) or equals the
load's previous result (last-value).  Echoing the static-reuse-estimation
direction of arXiv:2509.18684, :class:`StaticReuseEstimator` derives the
same classes from the CFG, dataflow facts and the abstract interpreter
(:class:`~repro.analysis.absint.ProgramAbsint`), with no trace at all:

* **same-register** — a load in a loop whose address is loop-invariant,
  whose destination has no other definition in the loop, and whose memory
  cell no store in the loop can change: from the second iteration on, the
  destination already holds the loaded value.
* **last-value** — loop-invariant address and memory, but the destination is
  clobbered by another definition in the loop: the value repeats while the
  register does not retain it.
* **dead-register** — the loaded value provably lives in another
  same-class register that is dead at the load: either a must-available
  ``mov`` copy of the destination that survives around the back edge, or a
  sibling load of the same unclobbered cell, whose holder register is not
  live-in at the candidate.
* **none** — nothing provable (including every load outside loops: cross-
  invocation reuse is invisible to a per-procedure static analysis).

The three judgements read SSA-level symbolic facts, not register names:

* *address invariance* is "no symbol of the load's affine address expression
  is defined inside the loop" — robust against register-name reuse, copies
  of the base pointer, and rematerialised constants.
* *memory invariance* asks the alias domain for a no-alias verdict between
  the load and every store in the loop; a store that provably writes back
  the load's own value is exempt (the cell keeps the value either way).
  Calls inside the loop clobber unless the callee (transitively) contains
  no store.
* *sibling detection* is must-alias of the two loads' address expressions.

A pc with no absint entry or address expression gets the conservative
answer (not invariant, not shared).

On top of the classifier:

* :func:`select_rvp_candidates` turns an estimate into profile-free
  :class:`~repro.profiling.lists.ProfileLists` for the marking pass — the
  ROADMAP's "no profiling run at all" path.
* :func:`symbolic_reuse_by_depth` buckets reuse per loop depth in the
  Razzak-et-al. style (PAPERS.md): per-depth class counts plus a
  trip-weighted expected reuse fraction ``(trip-1)/trip`` for loads whose
  loop has a proven trip count.
* :func:`candidate_overlap` scores candidate lists against profiled lists,
  and :func:`compare_with_profile` puts the static classes side by side
  with the profiled truth (``repro analyze`` reports both).

The verdicts are *estimates*: the allocation-site object model behind the
alias domain is an assumption (see :mod:`repro.analysis.absint`), and the
only soundness guarantee is the dynamic one enforced by the
``absint-soundness`` fuzz oracle.  The gap to the profile (value-identical
data, input-dependent invariance, cross-procedure reuse) is the point of
the comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir.nodes import Value
from ..isa.opcodes import OpKind
from ..isa.program import Loop, Program
from ..isa.registers import Reg
from ..profiling.lists import DeadHint, ProfileLists
from .absint import Alias, ProgramAbsint
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
    """Classify every static load of a program into reuse classes.

    Construction raises :class:`~repro.ir.nodes.IRError` when the program
    cannot be raised to SSA (e.g. unreachable blocks).
    """

    def __init__(self, program: Program, absint: Optional[ProgramAbsint] = None) -> None:
        self.program = program
        self.facts = ProgramFacts(program)
        self.absint = absint if absint is not None else ProgramAbsint(program)
        self._no_store_procs = _no_store_procedures(program)
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
        # Every class needs the loaded value to repeat: a dead holder is
        # either a copy of the previous load or a sibling reading the same
        # cell, so both need an invariant address and memory.
        if not self._address_invariant(loop, pc):
            return LoadClassification(pc, ReuseClass.NONE, "address varies in loop")
        if not self._memory_invariant(loop, pc):
            return LoadClassification(pc, ReuseClass.NONE, "loop contains a store")

        defs_in_loop = self._defs_in_loop(loop)
        dst_redefined = any(other_pc != pc for other_pc in defs_in_loop.get(inst.dst, ()))
        if not dst_redefined and not inst.dst.is_zero:
            return LoadClassification(
                pc, ReuseClass.SAME, "invariant address and destination untouched in loop"
            )
        dead = self._dead_holder(facts, pc, loop, defs_in_loop)
        if dead is not None:
            return dead
        return LoadClassification(
            pc, ReuseClass.LAST_VALUE, "invariant address but destination clobbered in loop"
        )

    # ------------------------------------------------------------------
    def _address_invariant(self, loop: Loop, pc: int) -> bool:
        """Is the load's address the same on every iteration of ``loop``?"""
        expr = self.absint.addr_expr_at(pc)
        if expr is None:
            return False
        analysis = self.absint.lookup(pc)[0]
        return analysis.invariant_in(expr, self.absint.body_labels(pc, loop.body))

    def _memory_invariant(self, loop: Loop, pc: int) -> bool:
        """Can no store in ``loop`` change what the load at ``pc`` reads?"""
        load_expr = self.absint.addr_expr_at(pc)
        if load_expr is None:
            return False
        analysis, load_instr, _ = self.absint.lookup(pc)
        load_value = load_instr.defined
        for other_pc in loop.body:
            other = self.program[other_pc]
            if other.op.kind is OpKind.CALL:
                if other.target not in self._no_store_procs:
                    return False  # callee may store anywhere we can't see
                continue
            if not other.is_store:
                continue
            store_expr = self.absint.addr_expr_at(other_pc)
            if store_expr is None:
                return False
            if analysis.alias(load_expr, store_expr) is Alias.NO:
                continue
            # Same-value exemption: storing the load's own result back to
            # an aliasing cell leaves the loaded value in place.
            stored = self.absint.lookup(other_pc)[1].src2
            if (
                isinstance(stored, Value)
                and isinstance(load_value, Value)
                and stored.vid == load_value.vid
            ):
                continue
            return False
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

    def _dead_holder(
        self,
        facts: ProcedureFacts,
        pc: int,
        loop: Loop,
        defs_in_loop: Dict[Reg, Set[int]],
    ) -> Optional[LoadClassification]:
        """A same-class register provably holding the load's value, dead at pc.

        Only called once the load's address and memory are known invariant.
        """
        inst = self.program[pc]
        dst = inst.dst
        live_in = facts.liveness.live_in[pc]

        # A must-available copy of the destination surviving to the load
        # holds the previous (== next) loaded value.
        for holder, src in facts.available_copies_at(pc):
            if src == dst and holder.kind == dst.kind and holder != dst and holder not in live_in:
                return LoadClassification(
                    pc, ReuseClass.DEAD,
                    f"copy of destination survives in dead {holder.name}",
                    source_reg=holder,
                )
        # A sibling load of the same (invariant, unclobbered) cell in the
        # loop leaves the value in its own destination.
        analysis = self.absint.lookup(pc)[0]
        load_expr = self.absint.addr_expr_at(pc)
        for other_pc in sorted(loop.body):
            other = self.program[other_pc]
            if other_pc == pc or not other.is_load or other.dst is None:
                continue
            if other.dst == dst or other.dst.kind != dst.kind:
                continue
            if analysis.alias(load_expr, self.absint.addr_expr_at(other_pc)) is not Alias.MUST:
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


def _no_store_procedures(program: Program) -> Set[str]:
    """Procedure names that (transitively) execute no store instruction."""
    direct_store: Dict[str, bool] = {}
    callees: Dict[str, Set[str]] = {}
    for proc in program.procedures:
        stores = False
        called: Set[str] = set()
        for pc in range(proc.start, proc.end):
            inst = program[pc]
            if inst.is_store:
                stores = True
            if inst.op.kind is OpKind.CALL and inst.target is not None:
                called.add(inst.target)
        direct_store[proc.name] = stores
        callees[proc.name] = called
    clean = {name for name, stores in direct_store.items() if not stores}
    changed = True
    while changed:
        changed = False
        for name in list(clean):
            if any(callee not in clean for callee in callees[name] if callee in direct_store):
                clean.discard(name)
                changed = True
    return clean


# ----------------------------------------------------------------------
# Profile-free candidate selection for the marking pass
# ----------------------------------------------------------------------
def select_rvp_candidates(
    program: Program,
    estimate: Optional[StaticReuseEstimate] = None,
) -> ProfileLists:
    """Build marking-pass input lists from static facts alone.

    The returned :class:`ProfileLists` mirrors what a profiling run would
    feed :func:`~repro.compiler.marking.mark_static_rvp`: SAME sites in
    ``same``, sibling-sourced DEAD sites (with their holder register and
    producing pc) in ``dead``, LAST_VALUE sites in ``last_value``.  Loads
    whose destination is the zero register never predict usefully (their
    result is dropped) and are excluded, matching the RVP006 rule.
    ``threshold`` is 0.0: static facts hold on every iteration or not at
    all — there is no confidence to threshold.
    """
    if estimate is None:
        estimate = StaticReuseEstimator(program).estimate()
    lists = ProfileLists(threshold=0.0)
    for pc, verdict in estimate.loads.items():
        if program[pc].writes is None:
            continue  # zero-register destination: nothing to reuse
        if verdict.reuse is ReuseClass.SAME:
            lists.same.add(pc)
        elif verdict.reuse is ReuseClass.DEAD and verdict.source_reg is not None:
            lists.dead[pc] = DeadHint(reg=verdict.source_reg, producer_pc=verdict.source_pc)
        elif verdict.reuse is ReuseClass.LAST_VALUE:
            lists.last_value.add(pc)
    return lists


def _score(static_pcs: Set[int], profiled_pcs: Set[int]) -> Dict[str, int]:
    return {
        "static": len(static_pcs),
        "profiled": len(profiled_pcs),
        "both": len(static_pcs & profiled_pcs),
    }


def candidate_overlap(candidates: ProfileLists, profiled: ProfileLists) -> Dict[str, Dict[str, int]]:
    """How the static candidate lists line up with profiled lists, per class."""
    return {
        "same": _score(set(candidates.same), set(profiled.same)),
        "dead": _score(set(candidates.dead), set(profiled.dead)),
        "last_value": _score(set(candidates.last_value), set(profiled.last_value)),
    }


# ----------------------------------------------------------------------
# Razzak-style per-loop-depth attribution
# ----------------------------------------------------------------------
def symbolic_reuse_by_depth(
    absint: ProgramAbsint,
    estimate: StaticReuseEstimate,
    lists: Optional[ProfileLists] = None,
) -> Dict[str, Dict[str, object]]:
    """Bucket reuse classes by absint loop depth, with trip-weighted reuse.

    Depth comes from the raised SSA CFG, so this works for every program
    absint can analyze.  For loads in loops with a proven trip count ``t``
    the expected dynamic reuse fraction of an invariant load is
    ``(t-1)/t`` (every iteration after the first); the
    per-depth ``trip_weighted_reuse`` averages that over the provable
    SAME/DEAD/LAST_VALUE loads of the depth, ``None`` when no trip is
    proven at that depth.
    """
    trip_by_header: Dict[tuple, int] = {}
    for name, fact in absint.induction_facts():
        if fact.trip is not None:
            key = (name, fact.header)
            existing = trip_by_header.get(key)
            trip_by_header[key] = fact.trip if existing is None else min(existing, fact.trip)

    buckets: Dict[int, Dict[str, object]] = {}

    def bucket(depth: int) -> Dict[str, object]:
        return buckets.setdefault(
            depth,
            {
                "loads": 0,
                **{cls.value: 0 for cls in ReuseClass},
                "profiled_same": 0,
                "profiled_dead": 0,
                "profiled_last_value": 0,
                "_trip_fractions": [],
            },
        )

    for pc, verdict in estimate.loads.items():
        depth = absint.loop_depth_at(pc)
        entry = bucket(depth)
        entry["loads"] += 1
        entry[verdict.reuse.value] += 1
        if verdict.reuse in (ReuseClass.SAME, ReuseClass.DEAD, ReuseClass.LAST_VALUE):
            trip = _innermost_trip(absint, pc, trip_by_header)
            if trip is not None and trip > 0:
                entry["_trip_fractions"].append((trip - 1) / trip)
    if lists is not None:
        for attr in ("same", "dead", "last_value"):
            for pc in getattr(lists, attr):
                if pc in estimate.loads:
                    bucket(absint.loop_depth_at(pc))[f"profiled_{attr}"] += 1

    out: Dict[str, Dict[str, object]] = {}
    for depth in sorted(buckets):
        entry = buckets[depth]
        fractions: List[float] = entry.pop("_trip_fractions")
        entry["proven_trip_loads"] = len(fractions)
        entry["trip_weighted_reuse"] = (
            round(sum(fractions) / len(fractions), 4) if fractions else None
        )
        out[str(depth)] = entry
    return out


def _innermost_trip(
    absint: ProgramAbsint, pc: int, trip_by_header: Dict[tuple, int]
) -> Optional[int]:
    entry = absint.lookup(pc)
    if entry is None:
        return None
    analysis, _, label = entry
    best: Optional[tuple] = None  # (depth, trip)
    for loop in analysis.loops:
        if label not in loop.body:
            continue
        trip = trip_by_header.get((analysis.func.name, loop.header))
        if trip is None:
            continue
        if best is None or loop.depth > best[0]:
            best = (loop.depth, trip)
    return best[1] if best is not None else None


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
            "same": _score(static_same, profiled_same),
            "dead": _score(static_dead, profiled_dead),
            "last_value": _score(static_lv, profiled_lv),
        },
        "weighted_static_fractions": weighted,
        "profiled_fig1_fractions": profile.fig1.fractions(),
    }
