"""Buffer-based last-value prediction (Lipasti & Shen [7, 8]).

The paper's comparison point: a 1K-entry last-value table with one 3-bit
resetting confidence counter per entry and a confidence threshold of 7.
Entries are tagged with the PC ("we also assume dynamic LVP buffer entries
are tagged with the PC, which improves performance"); a tag mismatch yields
no prediction, and the entry is reclaimed on update.

On a 64-bit machine this table costs 8KB of values plus tag storage — the
hardware the paper's storageless scheme eliminates.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.instructions import Instruction
from .base import PredictionSource, SourceKind, ValuePredictor
from .confidence import COUNTER_MAX, DEFAULT_THRESHOLD


class LastValuePredictor(ValuePredictor):
    """Tagged, direct-mapped last-value table."""

    __slots__ = ("entries", "threshold", "loads_only", "tagged", "name", "_mask", "_tags", "_values", "_counters")

    #: STORED values come from a real hardware table (available at rename with
    #: no dependence), unlike the idealised reserved-register model.
    table_backed = True

    def __init__(
        self,
        entries: int = 1024,
        threshold: int = DEFAULT_THRESHOLD,
        loads_only: bool = True,
        tagged: bool = True,
    ) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.threshold = threshold
        self.loads_only = loads_only
        self.tagged = tagged
        self.name = "lvp" if loads_only else "lvp_all"
        self._mask = entries - 1
        self._tags: List[Optional[int]] = [None] * entries
        self._values: List[int] = [0] * entries
        self._counters: List[int] = [0] * entries

    def _hit(self, pc: int) -> bool:
        idx = pc & self._mask
        return not self.tagged or self._tags[idx] == pc

    def timing_key(self) -> Tuple[int, int, bool]:
        return (self.entries, self.threshold, self.tagged)

    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        if inst.writes is None:
            return None
        if self.loads_only and not inst.is_load:
            return None
        return PredictionSource(SourceKind.STORED)

    def confident(self, pc: int) -> bool:
        idx = pc & self._mask
        return self._hit(pc) and self._counters[idx] >= self.threshold

    def stored_value(self, pc: int) -> Optional[int]:
        if not self._hit(pc):
            return None
        return self._values[pc & self._mask]

    def update(self, pc: int, correct: bool, actual: int) -> None:
        idx = pc & self._mask
        fresh = self._tags[idx] is None or (self.tagged and self._tags[idx] != pc)
        if fresh:
            # Allocate (or steal) the entry.
            self._tags[idx] = pc
            self._values[idx] = actual
            self._counters[idx] = 0
            return
        if actual == self._values[idx]:
            if self._counters[idx] < COUNTER_MAX:
                self._counters[idx] += 1
        else:
            self._counters[idx] = 0
        self._values[idx] = actual
        self._tags[idx] = pc

    def reset(self) -> None:
        self._tags = [None] * self.entries
        self._values = [0] * self.entries
        self._counters = [0] * self.entries
