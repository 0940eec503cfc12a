"""Symbolic (absint-backed) reuse classification and profile-free marking.

:class:`SymbolicReuseEstimator` keeps the flat estimator's classification
skeleton (loop walk, liveness, copy/sibling dead-holder arguments) but swaps
its three judgement hooks for SSA-level symbolic facts from
:class:`~repro.analysis.absint.ProgramAbsint`:

* *address invariance* is "no symbol of the load's affine address expression
  is defined inside the loop" — robust against register-name reuse, copies
  of the base pointer, and rematerialised constants, where the flat
  heuristic only asks whether the base *register name* is redefined.
* *memory invariance* asks the alias domain for a no-alias verdict between
  the load and every store in the loop, instead of comparing base register
  names; a store that provably writes back the load's own value is exempt
  (the cell keeps the value either way).  Calls inside the loop clobber
  unless the callee (transitively) contains no store.
* *sibling detection* is must-alias of the two loads' address expressions.

On top of the classifier:

* :func:`select_rvp_candidates` turns an estimate into profile-free
  :class:`~repro.profiling.lists.ProfileLists` for the marking pass — the
  ROADMAP's "no profiling run at all" path.
* :func:`symbolic_reuse_by_depth` buckets reuse per loop depth in the
  Razzak-et-al. style (PAPERS.md): per-depth class counts plus a
  trip-weighted expected reuse fraction ``(trip-1)/trip`` for loads whose
  loop has a proven trip count.
* :func:`candidate_overlap` scores candidate lists against profiled lists.

All of this inherits the absint caveats: verdicts are *estimates* whose
only soundness guarantee is the dynamic one enforced by the
``absint-soundness`` fuzz oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.nodes import IRError, Value
from ..isa.opcodes import OpKind
from ..isa.program import Loop, Program
from ..isa.registers import Reg
from ..profiling.lists import DeadHint, ProfileLists
from .absint import Alias, ProgramAbsint
from .reuse_static import ReuseClass, StaticReuseEstimate, StaticReuseEstimator


class SymbolicReuseEstimator(StaticReuseEstimator):
    """Reuse classification with symbolic addresses instead of base names.

    Construction raises :class:`~repro.ir.nodes.IRError` when the program
    cannot be raised to SSA (e.g. unreachable blocks); callers that want a
    soft fallback should catch it and use :class:`StaticReuseEstimator`.
    """

    def __init__(self, program: Program, absint: Optional[ProgramAbsint] = None) -> None:
        super().__init__(program)
        self.absint = absint if absint is not None else ProgramAbsint(program)
        self._no_store_procs = _no_store_procedures(program)

    # ------------------------------------------------------------------
    # Hook overrides
    # ------------------------------------------------------------------
    def _address_invariant(self, loop: Loop, pc: int, defs_in_loop) -> bool:
        entry = self.absint.lookup(pc)
        expr = self.absint.addr_expr_at(pc)
        if entry is None or expr is None:
            return super()._address_invariant(loop, pc, defs_in_loop)
        analysis = entry[0]
        labels = self.absint.body_labels(pc, loop.body)
        return analysis.invariant_in(expr, labels)

    def _memory_invariant(self, loop: Loop, pc: int, defs_in_loop) -> bool:
        entry = self.absint.lookup(pc)
        load_expr = self.absint.addr_expr_at(pc)
        if entry is None or load_expr is None:
            return super()._memory_invariant(loop, pc, defs_in_loop)
        analysis, load_instr, _ = entry
        load_value = load_instr.defined
        for other_pc in loop.body:
            other = self.program[other_pc]
            if other.op.kind is OpKind.CALL:
                if other.target not in self._no_store_procs:
                    return False  # callee may store anywhere we can't see
                continue
            if not other.is_store:
                continue
            store_entry = self.absint.lookup(other_pc)
            store_expr = self.absint.addr_expr_at(other_pc)
            if store_entry is None or store_expr is None:
                return False
            if analysis.alias(load_expr, store_expr) is Alias.NO:
                continue
            # Same-value exemption: storing the load's own result back to
            # an aliasing cell leaves the loaded value in place.
            stored = store_entry[1].src2
            if (
                isinstance(stored, Value)
                and isinstance(load_value, Value)
                and stored.vid == load_value.vid
            ):
                continue
            return False
        return True

    def _sibling_shares_address(self, loop: Loop, pc: int, other_pc: int, defs_in_loop) -> bool:
        entry = self.absint.lookup(pc)
        expr = self.absint.addr_expr_at(pc)
        other_expr = self.absint.addr_expr_at(other_pc)
        if entry is None or expr is None or other_expr is None:
            return super()._sibling_shares_address(loop, pc, other_pc, defs_in_loop)
        analysis = entry[0]
        if analysis.alias(expr, other_expr) is not Alias.MUST:
            return False
        labels = self.absint.body_labels(pc, loop.body)
        if not analysis.invariant_in(expr, labels):
            return False
        return self._memory_invariant(loop, pc, defs_in_loop)


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
        estimate = SymbolicReuseEstimator(program).estimate()
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


def candidate_overlap(candidates: ProfileLists, profiled: ProfileLists) -> Dict[str, Dict[str, int]]:
    """How the static candidate lists line up with profiled lists, per class."""

    def score(static_pcs: Set[int], profiled_pcs: Set[int]) -> Dict[str, int]:
        return {
            "static": len(static_pcs),
            "profiled": len(profiled_pcs),
            "both": len(static_pcs & profiled_pcs),
        }

    return {
        "same": score(set(candidates.same), set(profiled.same)),
        "dead": score(set(candidates.dead), set(profiled.dead)),
        "last_value": score(set(candidates.last_value), set(profiled.last_value)),
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


__all__ = [
    "SymbolicReuseEstimator",
    "select_rvp_candidates",
    "candidate_overlap",
    "symbolic_reuse_by_depth",
    "IRError",
]
