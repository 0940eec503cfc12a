"""SSA register allocation: coalescing + Chaitin–Briggs colouring + spilling.

The colouring machinery is the flat back end's, reused wholesale:
:func:`repro.compiler.interference.build_interference` consumes the value
*classes* built here (duck-typed like webs: ``index`` / ``kind`` /
``live_pcs``, where the pcs are liveness ticks), and
:func:`repro.compiler.coloring.color_graph` colours them with the same
preference / precolour rules.  What the SSA form adds on top:

* **coalescing** — a union-find over values merges phi-connected values and
  values descending from the same virtual register whenever their tick
  ranges don't overlap, so the allocation of a raised program reproduces
  its original registers exactly (every class keeps its preferred
  register).
* **spilling** — when colouring fails (only possible for builder-authored
  code; a raised program is its own colouring), the uncoloured classes are
  spilled to reserved absolute slots (``SPILL_BASE``): a store after each
  definition, a reload before each use, then the allocation reruns.  The
  flat allocator never needed this; the IR front end does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..compiler.coloring import ColorNode, color_graph
from ..compiler.interference import build_interference
from ..isa.registers import ZERO, Reg
from .liveness import ValueLiveness, value_liveness
from .nodes import IRError, IRFunction, IRInstr, Value

#: Reserved absolute-address region for compiler-generated spill slots and
#: parallel-copy shuffle traffic.  Sits between the workloads' data segments
#: and the stack region; nothing else in the repo addresses it (see
#: DESIGN.md Section 13).
SPILL_BASE = 0xDC_0000
SPILL_END = 0xE0_0000
_WORD = 8
#: Spill-and-recolour rounds before the allocator gives up.
_MAX_SPILL_ROUNDS = 16


class SpillSlots:
    """Module-wide allocator of spill-slot addresses (absolute, off r31)."""

    def __init__(self, base: int = SPILL_BASE) -> None:
        self.base = base
        self._next = 0
        self._shuffle: Optional[int] = None

    def alloc(self) -> int:
        addr = self.base + self._next * _WORD
        self._next += 1
        if addr >= SPILL_END:
            raise IRError("spill area exhausted")
        return addr

    @property
    def shuffle(self) -> int:
        """The one scratch slot used to break parallel-copy cycles."""
        if self._shuffle is None:
            self._shuffle = self.alloc()
        return self._shuffle

    @property
    def used(self) -> int:
        return self._next


class ValueClass:
    """A coalesce group of SSA values (duck-typed like a flat web)."""

    __slots__ = ("index", "kind", "live_pcs", "vids", "pin", "preferred")

    def __init__(self, index: int, kind: str) -> None:
        self.index = index
        self.kind = kind
        self.live_pcs: Set[int] = set()
        self.vids: Set[int] = set()
        self.pin: Optional[Reg] = None
        self.preferred: Optional[Reg] = None


@dataclass
class AllocationResult:
    """Outcome of one allocation attempt over one function."""

    ok: bool
    liveness: ValueLiveness
    reg_of: Dict[int, Reg] = field(default_factory=dict)  # vid -> register
    #: vids spilled across all rounds.
    spilled: List[int] = field(default_factory=list)
    #: Why colouring failed, when ``ok`` is False.
    failure: str = ""


def _try_union(
    classes: Dict[int, ValueClass],
    root: Dict[int, int],
    keep_vid: int,
    other_vid: int,
) -> bool:
    """Merge ``other``'s class into ``keep``'s if legal; keep's affinity wins."""
    a, b = root[keep_vid], root[other_vid]
    if a == b:
        return True
    ca, cb = classes[a], classes[b]
    if ca.kind != cb.kind:
        return False
    if ca.pin is not None and cb.pin is not None and ca.pin != cb.pin:
        return False
    if ca.live_pcs & cb.live_pcs:
        return False
    ca.live_pcs |= cb.live_pcs
    ca.vids |= cb.vids
    ca.pin = ca.pin or cb.pin
    ca.preferred = ca.preferred or cb.preferred
    for vid in cb.vids:
        root[vid] = a
    del classes[b]
    return True


def build_classes(
    func: IRFunction, liveness: ValueLiveness
) -> Tuple[Dict[int, ValueClass], Dict[int, int]]:
    """Coalesce values into classes; returns (classes, vid -> class index)."""
    classes: Dict[int, ValueClass] = {}
    root: Dict[int, int] = {}
    for vid, value in liveness.values.items():
        cls = ValueClass(vid, value.kind)
        cls.live_pcs = set(liveness.ticks.get(vid, ()))
        cls.vids = {vid}
        cls.pin = value.pin
        cls.preferred = value.pin or value.preferred
        classes[vid] = cls
        root[vid] = vid

    for block in func.blocks:
        for phi in block.phis:
            for arg in phi.args.values():
                _try_union(classes, root, phi.dst.vid, arg.vid)
    by_vreg: Dict[object, List[int]] = {}
    for vid in sorted(liveness.values):
        vreg = liveness.values[vid].vreg
        if vreg is not None:
            by_vreg.setdefault(vreg, []).append(vid)
    for vids in by_vreg.values():
        leader = vids[0]
        for vid in vids[1:]:
            _try_union(classes, root, leader, vid)
    return classes, root


def _spillable(value: Value) -> bool:
    return value.pin is None and not getattr(value, "no_spill", False)


def _spill_class(func: IRFunction, cls: ValueClass, liveness: ValueLiveness, slots: SpillSlots) -> List[int]:
    """Rewrite the IR so every value in ``cls`` lives in memory; returns vids."""
    spilled = []
    for vid in sorted(cls.vids):
        value = liveness.values[vid]
        if not _spillable(value):
            continue
        slot = slots.alloc()
        store_op = "fst" if value.kind == "fp" else "st"
        load_op = "fld" if value.kind == "fp" else "ld"
        spilled.append(vid)

        for block in func.blocks:
            # Reload before each explicit use (one reload per instruction).
            rebuilt: List[IRInstr] = []
            for instr in block.instrs:
                if any(op is value for op in instr.used):
                    fresh = func.new_value(value.kind)
                    fresh.no_spill = True
                    rebuilt.append(IRInstr(load_op, dst=fresh, src1=ZERO, imm=slot))
                    if instr.src1 is value:
                        instr.src1 = fresh
                    if instr.src2 is value:
                        instr.src2 = fresh
                rebuilt.append(instr)
                # Store right after the definition.
                if instr.defined is value:
                    rebuilt.append(IRInstr(store_op, src2=value, src1=ZERO, imm=slot))
            block.instrs = rebuilt
            # A spilled phi destination is stored at block entry.
            if any(phi.dst is value for phi in block.phis):
                block.instrs.insert(0, IRInstr(store_op, src2=value, src1=ZERO, imm=slot))
        # Phi arguments: reload at the end of the predecessor.
        for block in func.blocks:
            label = block.label
            for succ_label in func.successors(block):
                succ = func.block(succ_label)
                needed = [phi for phi in succ.phis if phi.args.get(label) is value]
                if not needed:
                    continue
                fresh = func.new_value(value.kind)
                fresh.no_spill = True
                reload = IRInstr(load_op, dst=fresh, src1=ZERO, imm=slot)
                if block.terminator is not None:
                    block.instrs.insert(len(block.instrs) - 1, reload)
                else:
                    block.instrs.append(reload)
                for phi in needed:
                    phi.args[label] = fresh
    return spilled


def allocate(func: IRFunction, slots: SpillSlots) -> AllocationResult:
    """Allocate registers for one SSA function, spilling until it colours."""
    spilled: List[int] = []
    for _ in range(_MAX_SPILL_ROUNDS):
        liveness = value_liveness(func)
        classes, root = build_classes(func, liveness)
        adjacency = build_interference(list(classes.values()))
        nodes = [
            ColorNode(node_id=cls.index, kind=cls.kind, preferred=cls.preferred, fixed=cls.pin)
            for cls in classes.values()
        ]
        coloring = color_graph(nodes, adjacency, func.name)
        if not coloring.uncolored:
            result = AllocationResult(ok=True, liveness=liveness, spilled=spilled)
            for vid, cls_index in root.items():
                reg = coloring.assignment[cls_index]
                result.reg_of[vid] = reg
                liveness.values[vid].assigned_reg = reg
            return result

        to_spill = [
            classes[index]
            for index in sorted(coloring.uncolored)
            if classes[index].pin is None and any(_spillable(liveness.values[v]) for v in classes[index].vids)
        ]
        if not to_spill:
            messages = "; ".join(d.message for d in coloring.diagnostics[:3])
            return AllocationResult(
                ok=False,
                liveness=liveness,
                failure=f"{func.name}: colouring failed ({messages})",
            )
        for cls in to_spill:
            spilled.extend(_spill_class(func, cls, liveness, slots))
    raise IRError(f"{func.name}: spilling did not converge after {_MAX_SPILL_ROUNDS} rounds")
