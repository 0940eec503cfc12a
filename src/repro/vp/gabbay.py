"""The Gabbay & Mendelson register-file predictor [4] (paper Section 2).

The closest predecessor to dynamic RVP, included in Figure 6 as ``Grp_all``
(without its stride component, "to equalize comparisons").  The crucial
difference from the paper's RVP: **confidence counters are indexed by
destination register number, not instruction PC** — "in that scheme,
register-value reuse is only available if it remains high for *all*
definitions of the register".  Every instruction that writes ``r7`` shares
one counter, so interference is severe, which is exactly what Table 2's
coverage column shows.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.registers import Reg
from .base import PredictionSource, SourceKind, ValuePredictor
from .confidence import COUNTER_MAX, DEFAULT_THRESHOLD


class GabbayRegisterPredictor(ValuePredictor):
    """Per-architectural-register confidence; prediction reads the register.

    ``source()`` fills the pc→register routing table as a side effect.  Each
    run routes its predictor through
    :func:`~repro.uarch.stream.predictor_routing`, which calls ``source()``
    once per static pc, so a fresh instance is routed before its first
    ``confident()``/``update()``."""

    __slots__ = ("threshold", "loads_only", "name", "_counters", "_reg_of_pc")

    def __init__(self, threshold: int = DEFAULT_THRESHOLD, loads_only: bool = False) -> None:
        self.threshold = threshold
        self.loads_only = loads_only
        self.name = "grp" if loads_only else "grp_all"
        self._counters = [0] * 64
        #: rename-time routing: pc -> register id, filled by source() so that
        #: confident()/update() (keyed by pc in the common interface) can find
        #: the per-register counter.  One pc always writes one register.
        self._reg_of_pc = {}

    @staticmethod
    def _rid(reg: Reg) -> int:
        return reg.index + (0 if reg.is_int else 32)

    def timing_key(self) -> Tuple[int]:
        return (self.threshold,)

    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        dst = inst.writes
        if dst is None:
            return None
        if self.loads_only and not inst.is_load:
            return None
        self._reg_of_pc[inst.pc] = self._rid(dst)
        return PredictionSource(SourceKind.DST)

    def confident(self, pc: int) -> bool:
        rid = self._reg_of_pc.get(pc)
        return rid is not None and self._counters[rid] >= self.threshold

    def update(self, pc: int, correct: bool, actual: int) -> None:
        rid = self._reg_of_pc.get(pc)
        if rid is None:
            return
        if correct:
            if self._counters[rid] < COUNTER_MAX:
                self._counters[rid] += 1
        else:
            self._counters[rid] = 0

    def reset(self) -> None:
        self._counters = [0] * 64
        self._reg_of_pc.clear()
