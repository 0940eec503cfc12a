"""Memory renaming as a value predictor (Tyson & Austin [16]; paper Sec. 2-3).

The paper's Figure 2(b) shows RVP subsuming memory renaming by assigning a
correlated store and load the same register.  This module provides the
buffer-based original as an extended baseline: a store cache records, per
address, the pc and value of the last store; a load-communication table then
maps each load pc to its *predicted communicating store value*, predicting a
load once the same store→load channel has held ``threshold`` consecutive
times.

Compared with LVP this catches loads whose value changes every time — as
long as a store recently wrote the new value — which is exactly the
store→load guest-pc pattern in the m88ksim model.  The hardware cost is the
largest of the bunch: a store cache *and* a tagged communication table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Instruction
from .base import PredictionSource, SourceKind, ValuePredictor
from .confidence import COUNTER_MAX, DEFAULT_THRESHOLD


class MemoryRenamingPredictor(ValuePredictor):
    """Store-load communication predictor (loads only, by construction)."""

    __slots__ = (
        "entries", "threshold", "_mask", "_stores", "_store_cap",
        "_store_values", "_tags", "_channels", "_counters",
    )

    table_backed = True
    name = "memren"

    def __init__(self, entries: int = 1024, store_cache: int = 4096, threshold: int = DEFAULT_THRESHOLD) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.threshold = threshold
        self._mask = entries - 1
        #: last store (pc, value) per address — bounded FIFO-ish cache
        self._stores: Dict[int, Tuple[int, int]] = {}
        self._store_cap = store_cache
        #: latest value written by each store pc (the "value file" entry the
        #: communicating store keeps fresh)
        self._store_values: Dict[int, int] = {}
        #: per load pc: (tag, predicted store pc, counter)
        self._tags: List[Optional[int]] = [None] * entries
        self._channels: List[int] = [0] * entries
        self._counters: List[int] = [0] * entries

    # ------------------------------------------------------------------
    # Store side: the pipeline feeds committed stores through observe_store.
    # ------------------------------------------------------------------
    def observe_store(self, pc: int, addr: int, value: int) -> None:
        if len(self._stores) >= self._store_cap:
            self._stores.pop(next(iter(self._stores)))
        self._stores[addr] = (pc, value)
        self._store_values[pc] = value

    # ------------------------------------------------------------------
    # ValuePredictor interface (loads)
    # ------------------------------------------------------------------
    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        if not inst.is_load or inst.writes is None:
            return None
        return PredictionSource(SourceKind.STORED)

    def _hit(self, pc: int) -> bool:
        return self._tags[pc & self._mask] == pc

    def confident(self, pc: int) -> bool:
        return self._hit(pc) and self._counters[pc & self._mask] >= self.threshold

    def stored_value(self, pc: int) -> Optional[int]:
        if not self._hit(pc):
            return None
        return self._store_values.get(self._channels[pc & self._mask])

    def update_load(self, pc: int, addr: Optional[int], actual: int) -> None:
        """Train with the load's address and value: resolve which store pc
        communicated this value (via the store cache) and track how stable
        that store→load channel is."""
        index = pc & self._mask
        store = self._stores.get(addr) if addr is not None else None
        if self._tags[index] != pc:
            self._tags[index] = pc
            self._channels[index] = store[0] if store else -1
            self._counters[index] = 0
            return
        if store is not None and store[0] == self._channels[index]:
            # Same communicating store pc as before: the channel holds.
            if self._counters[index] < COUNTER_MAX:
                self._counters[index] += 1
        else:
            self._channels[index] = store[0] if store else -1
            self._counters[index] = 0

    def update(self, pc: int, correct: bool, actual: int) -> None:
        # Address-less fallback (the pipeline calls update_load when it has
        # the address; this path keeps the common interface working).
        self.update_load(pc, None, actual)

    def reset(self) -> None:
        self._stores.clear()
        self._store_values.clear()
        self._tags = [None] * self.entries
        self._channels = [0] * self.entries
        self._counters = [0] * self.entries
