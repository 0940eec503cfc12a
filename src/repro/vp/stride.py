"""Stride value prediction (Gabbay & Mendelson [4]; paper Section 2).

The buffer-based comparator the paper *excludes* from Figure 6 "to equalize
comparisons" (their Grp_all is the Gabbay register predictor *without* its
stride component).  Provided here as an extended baseline: a tagged table
holding, per static instruction, the last value and the last observed stride;
a prediction of ``last + stride`` is made once the same stride has been seen
``threshold`` consecutive times.

Captures the induction-variable values (pointers, loop indices) that
last-value and register-value prediction both miss — at the cost of a value
field *and* a stride field per entry, i.e. even more storage than LVP.
"""

from __future__ import annotations

from typing import List, Optional

from ..isa.instructions import Instruction
from ..isa.opcodes import MASK64
from .base import PredictionSource, SourceKind, ValuePredictor
from .confidence import COUNTER_MAX, DEFAULT_THRESHOLD


class StridePredictor(ValuePredictor):
    """Tagged last-value + stride table (predicts ``value + stride``)."""

    __slots__ = ("entries", "threshold", "loads_only", "name", "_mask", "_tags", "_values", "_strides", "_counters")

    table_backed = True

    def __init__(
        self,
        entries: int = 1024,
        threshold: int = DEFAULT_THRESHOLD,
        loads_only: bool = False,
    ) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.threshold = threshold
        self.loads_only = loads_only
        self.name = "stride" if loads_only else "stride_all"
        self._mask = entries - 1
        self._tags: List[Optional[int]] = [None] * entries
        self._values: List[int] = [0] * entries
        self._strides: List[int] = [0] * entries
        self._counters: List[int] = [0] * entries

    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        if inst.writes is None:
            return None
        if self.loads_only and not inst.is_load:
            return None
        return PredictionSource(SourceKind.STORED)

    def _hit(self, pc: int) -> bool:
        return self._tags[pc & self._mask] == pc

    def confident(self, pc: int) -> bool:
        return self._hit(pc) and self._counters[pc & self._mask] >= self.threshold

    def stored_value(self, pc: int) -> Optional[int]:
        if not self._hit(pc):
            return None
        index = pc & self._mask
        return (self._values[index] + self._strides[index]) & MASK64

    def update(self, pc: int, correct: bool, actual: int) -> None:
        index = pc & self._mask
        if self._tags[index] != pc:
            self._tags[index] = pc
            self._values[index] = actual
            self._strides[index] = 0
            self._counters[index] = 0
            return
        new_stride = (actual - self._values[index]) & MASK64
        if new_stride == self._strides[index]:
            if self._counters[index] < COUNTER_MAX:
                self._counters[index] += 1
        else:
            self._strides[index] = new_stride
            self._counters[index] = 0
        self._values[index] = actual

    def reset(self) -> None:
        self._tags = [None] * self.entries
        self._values = [0] * self.entries
        self._strides = [0] * self.entries
        self._counters = [0] * self.entries
