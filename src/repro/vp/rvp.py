"""Dynamic register-value prediction (the paper's contribution, Section 4.2).

Storage: a 1K-entry direct-mapped table of 3-bit resetting confidence
counters indexed by instruction PC — *no value storage at all*.  The counters
are deliberately untagged: "With RVP, positive interference can be exploited
when there are no tags, as long as both instructions that map to the same
confidence counter experience register-value reuse."

The prediction value is whatever is already in the register file:

* with no compiler assistance the source is the instruction's own
  destination register (``drvp``);
* with the dead/live profile lists, listed instructions read the correlated
  register instead (``drvp_dead`` — the paper's idealised model of
  register reallocation);
* with the last-value list, listed instructions predict their own previous
  result (``drvp_dead_lv`` — the idealised model of the compiler reserving a
  loop-exclusive register, under which same-register reuse equals last-value
  reuse).  The per-pc value memory used to *simulate* this costs nothing in
  the modelled hardware; it stands in for the value sitting undisturbed in
  the reserved register.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa.instructions import Instruction
from ..profiling.lists import HintKind, ProfileLists
from .base import PredictionSource, SourceKind, ValuePredictor
from .confidence import DEFAULT_THRESHOLD, ResettingCounterTable


class DynamicRVP(ValuePredictor):
    """PC-indexed confidence counters + register-file prediction sources."""

    __slots__ = (
        "counters", "tagged", "_tags", "loads_only", "lists",
        "use_dead", "use_live", "use_lv", "_last_result", "name",
    )

    def __init__(
        self,
        entries: int = 1024,
        threshold: int = DEFAULT_THRESHOLD,
        loads_only: bool = False,
        lists: Optional[ProfileLists] = None,
        use_dead: bool = False,
        use_live: bool = False,
        use_lv: bool = False,
        tagged: bool = False,
        name: Optional[str] = None,
    ) -> None:
        """``tagged=True`` adds PC tags to the confidence counters — the
        ablation the paper ran to confirm that *untagged* counters perform
        better (positive interference helps RVP; see Section 7.2).  A tag
        mismatch yields no prediction and the entry is stolen on update."""
        self.counters = ResettingCounterTable(entries, threshold)
        self.tagged = tagged
        self._tags: Dict[int, int] = {}
        self.loads_only = loads_only
        self.lists = lists
        self.use_dead = use_dead
        self.use_live = use_live
        self.use_lv = use_lv
        self._last_result: Dict[int, int] = {}
        if name is not None:
            self.name = name
        else:
            suffix = "".join(s for s, on in [("_dead", use_dead), ("_live", use_live), ("_lv", use_lv)] if on)
            self.name = ("drvp" if loads_only else "drvp_all") + suffix

    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        if inst.writes is None:
            return None
        if self.loads_only and not inst.is_load:
            return None
        if self.lists is not None:
            hint = self.lists.hint_for(inst.pc, use_dead=self.use_dead, use_live=self.use_live, use_lv=self.use_lv)
            if hint is HintKind.REG:
                reg = self.lists.hint_reg(inst.pc, use_live=self.use_live)
                if reg is not None and reg.kind == inst.writes.kind:
                    return PredictionSource(SourceKind.REG, reg)
            elif hint is HintKind.LAST_VALUE:
                return PredictionSource(SourceKind.STORED)
        return PredictionSource(SourceKind.DST)

    def confident(self, pc: int) -> bool:
        if self.tagged and self._tags.get(self.counters.index(pc)) != pc:
            return False
        return self.counters.confident(pc)

    def stored_value(self, pc: int) -> Optional[int]:
        return self._last_result.get(pc)

    def update(self, pc: int, correct: bool, actual: int) -> None:
        if self.tagged:
            index = self.counters.index(pc)
            if self._tags.get(index) != pc:
                # Steal the entry: new owner starts cold.
                self._tags[index] = pc
                self.counters.update(pc, False)
                self._last_result[pc] = actual
                return
        self.counters.update(pc, correct)
        self._last_result[pc] = actual

    def reset(self) -> None:
        self.counters.reset()
        self._tags.clear()
        self._last_result.clear()
