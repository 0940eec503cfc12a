"""The four profile lists of Section 5 and the hint model built from them.

The paper profiles each application and creates four lists of instructions
that have (1) same-register value reuse, (2) high correlation with a value in
a dead register, (3) high correlation with a value in a live register, and
(4) high last-value predictability.  :class:`ProfileLists` is that artifact.

A *hint* tells the predictor where a candidate instruction's prediction
comes from:

* ``SAME``       — the instruction's own destination register (pure RVP).
* ``REG``        — another architectural register (the dead/live-correlation
  optimisations, modelled the way the paper does: "we track reuse of the
  value in the other register for that instruction").
* ``LAST_VALUE`` — the instruction's own previous result (the idealised
  last-value reallocation: the compiler guarantees no intervening write, so
  same-register reuse equals last-value reuse).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..isa.registers import Reg


class HintKind(enum.Enum):
    SAME = "same"
    REG = "reg"
    LAST_VALUE = "last_value"


@dataclass(frozen=True)
class DeadHint:
    """Dead/live-register correlation hint for one static instruction."""

    reg: Reg
    #: pc of the instruction that most often produced the matching value
    #: (needed by the Section 7.3 live-range merging), if known.
    producer_pc: Optional[int] = None


@dataclass
class ProfileLists:
    """The four lists, keyed by static pc.

    Membership is computed independently per list (one pc may satisfy
    several); consumers pick by their optimisation level via :meth:`hint_for`.
    """

    threshold: float
    same: Set[int] = field(default_factory=set)
    dead: Dict[int, DeadHint] = field(default_factory=dict)
    live: Dict[int, DeadHint] = field(default_factory=dict)
    last_value: Set[int] = field(default_factory=set)

    def hint_for(
        self,
        pc: int,
        use_dead: bool = False,
        use_live: bool = False,
        use_lv: bool = False,
    ) -> Optional[HintKind]:
        """The hint an optimisation level assigns to ``pc``, or None.

        Priority follows the paper: existing same-register reuse needs no
        help; otherwise dead-register correlation, then live-register
        correlation, then last-value reallocation.
        """
        if pc in self.same:
            return HintKind.SAME
        if use_dead and pc in self.dead:
            return HintKind.REG
        if use_live and pc in self.live:
            return HintKind.REG
        if use_lv and pc in self.last_value:
            return HintKind.LAST_VALUE
        return None

    def hint_reg(self, pc: int, use_live: bool = False) -> Optional[Reg]:
        """The correlated register for a REG hint at ``pc``."""
        if pc in self.dead:
            return self.dead[pc].reg
        if use_live and pc in self.live:
            return self.live[pc].reg
        return None

    def candidate_pcs(self, use_dead: bool = False, use_live: bool = False, use_lv: bool = False) -> Set[int]:
        pcs = set(self.same)
        if use_dead:
            pcs |= set(self.dead)
        if use_live:
            pcs |= set(self.live)
        if use_lv:
            pcs |= self.last_value
        return pcs
