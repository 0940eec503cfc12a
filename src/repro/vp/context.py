"""Context-based (two-level) value prediction (Sazeides & Smith [13],
Wang & Franklin [17]; paper Section 2).

The most storage-hungry comparator class the paper cites: a first-level
table records, per static instruction, the recent *value history* (an order-k
context); a second-level table maps each observed context to the value that
followed it, with a resetting confidence counter.  Captures repeating value
*sequences* (e.g. 1,2,3,1,2,3,...) that last-value, stride and register-value
prediction all miss.

Storage accounting (64-bit machine, defaults): the VHT holds k values per
entry and the VPT one value + counter per entry — several times LVP's cost,
which is the paper's argument for leaving this class out of its figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Instruction
from .base import PredictionSource, SourceKind, ValuePredictor
from .confidence import COUNTER_MAX, DEFAULT_THRESHOLD


class ContextPredictor(ValuePredictor):
    """Order-k FCM (finite context method) value predictor."""

    __slots__ = (
        "entries", "vpt_entries", "order", "threshold", "loads_only", "name",
        "_mask", "_vpt_mask", "_vht", "_vpt",
    )

    table_backed = True

    def __init__(
        self,
        entries: int = 1024,
        vpt_entries: int = 4096,
        order: int = 2,
        threshold: int = DEFAULT_THRESHOLD,
        loads_only: bool = False,
    ) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if vpt_entries <= 0 or vpt_entries & (vpt_entries - 1):
            raise ValueError("vpt_entries must be a positive power of two")
        if order < 1:
            raise ValueError("order must be >= 1")
        self.entries = entries
        self.vpt_entries = vpt_entries
        self.order = order
        self.threshold = threshold
        self.loads_only = loads_only
        self.name = "context" if loads_only else "context_all"
        self._mask = entries - 1
        self._vpt_mask = vpt_entries - 1
        #: value history table: per pc slot, (tag, history tuple)
        self._vht: List[Optional[Tuple[int, Tuple[int, ...]]]] = [None] * entries
        #: value prediction table: context hash -> (value, counter)
        self._vpt: List[Tuple[int, int]] = [(0, 0) for _ in range(vpt_entries)]

    # ------------------------------------------------------------------
    def _context(self, pc: int) -> Optional[int]:
        entry = self._vht[pc & self._mask]
        if entry is None or entry[0] != pc or len(entry[1]) < self.order:
            return None
        h = 0
        for value in entry[1]:
            h = (h * 0x9E3779B1 + value) & 0xFFFFFFFF
        return h & self._vpt_mask

    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        if inst.writes is None:
            return None
        if self.loads_only and not inst.is_load:
            return None
        return PredictionSource(SourceKind.STORED)

    def confident(self, pc: int) -> bool:
        context = self._context(pc)
        return context is not None and self._vpt[context][1] >= self.threshold

    def stored_value(self, pc: int) -> Optional[int]:
        context = self._context(pc)
        if context is None:
            return None
        return self._vpt[context][0]

    def update(self, pc: int, correct: bool, actual: int) -> None:
        index = pc & self._mask
        context = self._context(pc)
        if context is not None:
            value, counter = self._vpt[context]
            if value == actual:
                self._vpt[context] = (value, min(COUNTER_MAX, counter + 1))
            else:
                # Replace the context's successor; confidence restarts.
                self._vpt[context] = (actual, 0)
        # Advance the per-pc history.
        entry = self._vht[index]
        if entry is None or entry[0] != pc:
            history: Tuple[int, ...] = (actual,)
        else:
            history = (entry[1] + (actual,))[-self.order :]
        self._vht[index] = (pc, history)

    def reset(self) -> None:
        self._vht = [None] * self.entries
        self._vpt = [(0, 0) for _ in range(self.vpt_entries)]
