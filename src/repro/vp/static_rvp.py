"""Static register-value prediction (paper Section 4.1).

Candidates are identified by opcode — the compiler (see
:mod:`repro.compiler.marking`) replaced selected loads with ``rvp_ld`` /
``rvp_fld``.  Every marked load is predicted unconditionally: confidence
filtering happened offline, in the profile-driven marking decision.  No
dynamic state exists at all; the profile lists supply the prediction source
for dead/live/lv-marked loads exactly as for dynamic RVP.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa.instructions import Instruction
from ..profiling.lists import HintKind, ProfileLists
from .base import PredictionSource, SourceKind, ValuePredictor


class StaticRVP(ValuePredictor):
    """Opcode-driven prediction of marked loads."""

    __slots__ = ("lists", "use_dead", "use_live", "use_lv", "_last_result", "name")

    def __init__(
        self,
        lists: Optional[ProfileLists] = None,
        use_dead: bool = False,
        use_live: bool = False,
        use_lv: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.lists = lists
        self.use_dead = use_dead
        self.use_live = use_live
        self.use_lv = use_lv
        self._last_result: Dict[int, int] = {}
        if name is not None:
            self.name = name
        else:
            level = "live_lv" if use_lv else ("live" if use_live else ("dead" if use_dead else "same"))
            self.name = f"srvp_{level}"

    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        if not inst.op.rvp_marked or inst.writes is None:
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
        return True  # marked loads are always predicted

    def stored_value(self, pc: int) -> Optional[int]:
        return self._last_result.get(pc)

    def update(self, pc: int, correct: bool, actual: int) -> None:
        self._last_result[pc] = actual

    def reset(self) -> None:
        self._last_result.clear()
